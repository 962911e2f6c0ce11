package eigen

import (
	"math"
	"math/rand"
	"testing"

	"tridiag/internal/lapack"
)

// TestAuditResultDetectsCorruption: the audit must flag a flipped bit in an
// eigenvalue (spectrum check), a flipped bit in an eigenvector entry
// (residual check) and a rescaled eigenvector (unit-norm check) — and pass
// the untouched result.
func TestAuditResultDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	tri := randomTridiag(rng, 120)
	o := &Options{Workers: 2}
	res, err := Solve(tri, o)
	if err != nil {
		t.Fatal(err)
	}
	if worst, aerr := auditResult(tri, res, o); aerr != nil {
		t.Fatalf("false positive on clean result: %v (worst %g)", aerr, worst)
	}

	corrupt := func(mutate func(r *Result)) error {
		cp := &Result{N: res.N, Values: append([]float64(nil), res.Values...),
			Vectors: append([]float64(nil), res.Vectors...), Stats: &SolveStats{}}
		mutate(cp)
		_, aerr := auditResult(tri, cp, o)
		return aerr
	}

	flip := func(v float64) float64 { return math.Float64frombits(math.Float64bits(v) ^ (1 << 57)) }
	if err := corrupt(func(r *Result) { r.Values[37] = flip(r.Values[37]) }); err == nil {
		t.Error("flipped eigenvalue escaped the audit")
	} else if !IsCorruption(err) {
		t.Errorf("spectrum failure not classified as corruption: %v", err)
	}
	// Flip the largest entry of one eigenvector column (a flip in a
	// denormal-range entry is harmless by construction — 2^32 of ~1e-300 is
	// still negligible — and the argmax is what the chaos probes flip too).
	if err := corrupt(func(r *Result) {
		col := r.Vectors[61*r.N : 62*r.N]
		arg, mx := 0, 0.0
		for i, v := range col {
			if a := math.Abs(v); a > mx {
				arg, mx = i, a
			}
		}
		col[arg] = flip(col[arg])
	}); err == nil {
		t.Error("flipped eigenvector entry escaped the audit")
	} else if !IsCorruption(err) {
		t.Errorf("residual failure not classified as corruption: %v", err)
	}
	if err := corrupt(func(r *Result) {
		for i := 0; i < r.N; i++ {
			r.Vectors[25*r.N+i] *= 1 + 1e-6
		}
	}); err == nil {
		t.Error("rescaled eigenvector escaped the unit-norm audit")
	}

	// NaN compares false, so a bound written as x > bound lets it through.
	// A single flip of bit 62 turns a value in [1, 2) into NaN. Index 7 of
	// an n=300 spectrum is not among the Sturm samples, so only the
	// ascending check can see a NaN there.
	gw := exactGluedW21(300, 1e-10)
	gres, err := Solve(gw, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		for _, c := range []struct {
			what   string
			mutate func(r *Result)
		}{
			{"eigenvalue 7", func(r *Result) { r.Values[7] = bad }},
			{"eigenvector entry", func(r *Result) { r.Vectors[40*r.N+40] = bad }},
		} {
			cp := &Result{N: gres.N, Values: append([]float64(nil), gres.Values...),
				Vectors: append([]float64(nil), gres.Vectors...), Stats: &SolveStats{}}
			c.mutate(cp)
			if _, aerr := auditResult(gw, cp, o); aerr == nil {
				t.Errorf("glued W21 n=300: %s set to %v escaped the audit", c.what, bad)
			} else if !IsCorruption(aerr) {
				t.Errorf("glued W21 n=300: %s set to %v: failure not classified as corruption: %v", c.what, bad, aerr)
			}
		}
	}
}

// TestAuditDisable: Options.DisableAudit must skip the audit entirely — the
// served result reports Audited false, and a corrupt result ships (that is
// the caller's explicit choice).
func TestAuditDisable(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	tri := randomTridiag(rng, 60)
	res, err := Solve(tri, &Options{DisableAudit: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Audited {
		t.Error("audit ran despite DisableAudit")
	}
	on, err := Solve(tri, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !on.Stats.Audited {
		t.Error("audit skipped by default")
	}
	if on.Stats.AuditResidual < 0 {
		t.Errorf("negative audit residual %g", on.Stats.AuditResidual)
	}
}

// TestVerifyDegradedChecks pins what verify runs. A clean tier runs the
// audit alone, and nothing under DisableAudit. A degraded tier always runs
// the audit and adds pairwise orthogonality, which catches a duplicated
// eigenvector the audit cannot see: on a matrix with a repeated eigenvalue
// the copy still has a zero residual and unit norm.
func TestVerifyDegradedChecks(t *testing.T) {
	tri := Tridiagonal{D: []float64{1, 2, 1}, E: []float64{0, 0}}
	fresh := func() *Result {
		return &Result{N: 3, Values: []float64{1, 1, 2}, Vectors: []float64{1, 0, 0, 1, 0, 0, 0, 1, 0}, Stats: &SolveStats{}}
	}
	beats := 0
	on, off := &Options{Progress: func() { beats++ }}, &Options{DisableAudit: true}
	if err := verify(tri, fresh(), on, false); err != nil {
		t.Errorf("clean tier ran more than the audit: %v", err)
	}
	res := fresh()
	beats = 0
	err := verify(tri, res, on, true)
	if err == nil || IsCorruption(err) {
		t.Errorf("degraded tier: duplicated eigenvector gave %v, want a plain orthogonality failure", err)
	}
	if !res.Stats.Validated || !res.Stats.Audited || res.Stats.Orthogonality != 1.0/3 {
		t.Errorf("degraded tier stats %+v, want validated, audited, orthogonality 1/3", res.Stats)
	}
	// A watchdog must see verification progress: one beat per column of the
	// audit's sweep and one per column of the orthogonality check.
	if beats != 2*3 {
		t.Errorf("degraded tier: verify beat Progress %d times, want 6", beats)
	}

	// A wrong eigenvalue ships from a clean tier under DisableAudit, and is
	// caught on a degraded one all the same.
	res = fresh()
	res.Vectors[3], res.Vectors[5] = 0, 1 // the right basis
	res.Values[2] = 3
	if err := verify(tri, res, off, false); err != nil {
		t.Errorf("clean tier ran checks under DisableAudit: %v", err)
	}
	if err := verify(tri, res, off, true); !IsCorruption(err) {
		t.Errorf("degraded tier under DisableAudit: wrong eigenvalue gave %v, want an audit failure", err)
	}
	if res.Stats.Audited {
		t.Error("Audited set under DisableAudit")
	}
}

// sturmCountBelow is the scalar reference of sturmCountBelow4: the number of
// eigenvalues of the symmetric tridiagonal matrix (d, e) strictly below x,
// counted as the negative pivots of the LDLᵀ recurrence
// t_i = (d_i − x) − e_{i−1}²/t_{i−1}, with a pivot smaller than pivmin in
// magnitude replaced by −pivmin. guarded counts those replacements.
func sturmCountBelow(d, e []float64, x, pivmin float64) (count, guarded int) {
	t := d[0] - x
	for i := range d {
		if i > 0 {
			t = (d[i] - x) - e[i-1]*e[i-1]/t
		}
		if math.Abs(t) < pivmin {
			t = -pivmin
			guarded++
		}
		if t < 0 {
			count++
		}
	}
	return count, guarded
}

// TestSturmCountBelow4MatchesScalar: every lane of the 4-wide Sturm kernel
// the audit runs must return exactly the scalar count. The matrices are the
// audit's pathological kinds, seen as the audit sees them (pre-scaled); the
// shifts are the ones it probes (computed eigenvalues and λ ± tol), the
// neighbouring floats, and shifts that zero a pivot and trip the pivmin
// guard (d_0 on every matrix, d_i with zero off-diagonals, 1 on 1-2-1).
func TestSturmCountBelow4MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	base := randomTridiag(rng, 60)
	clustered := randomTridiag(rng, 64)
	for i := range clustered.D {
		clustered.D[i] = 1
	}
	for i := range clustered.E {
		clustered.E[i] = 1e-13 * float64(i%5+1)
	}
	oneTwoOne := Tridiagonal{D: make([]float64, 50), E: make([]float64, 49)}
	for i := range oneTwoOne.D {
		oneTwoOne.D[i] = 2
	}
	for i := range oneTwoOne.E {
		oneTwoOne.E[i] = 1
	}
	cases := map[string]Tridiagonal{
		"random":            base,
		"glued-wilkinson":   gluedWilkinson(4, 21, 1e-6),
		"glued-tight":       gluedWilkinson(3, 21, 1e-12),
		"clustered":         clustered,
		"zero-offdiagonals": {D: base.D, E: make([]float64, len(base.E))},
		"x1e300":            scaled(base, 1e300),
		"x1e-300":           scaled(base, 1e-300),
		"1-2-1":             oneTwoOne,
	}
	var interiorGuards int
	for name, tri := range cases {
		d, e, _ := preScale(tri)
		n := len(d)
		res, err := Solve(Tridiagonal{D: d, E: e}, &Options{ValuesOnly: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nrm := lapack.Dlanst('M', n, d, e)
		tol := maxResidual * float64(n) * nrm
		var maxE2 float64
		for _, v := range e {
			maxE2 = math.Max(maxE2, v*v)
		}
		pivmin := math.Max(lapack.SafeMin, lapack.SafeMin*maxE2)

		shifts := []float64{d[0], 1}
		for i, w := range res.Values {
			shifts = append(shifts, w, w+tol, w-tol, math.Nextafter(w, math.Inf(1)), math.Nextafter(w, math.Inf(-1)), d[i])
		}
		for len(shifts)%4 != 0 {
			shifts = append(shifts, d[0])
		}
		rng.Shuffle(len(shifts), func(i, j int) { shifts[i], shifts[j] = shifts[j], shifts[i] })
		var guards int
		for s := 0; s < len(shifts); s += 4 {
			// Rotate the four shifts through every lane.
			for r := 0; r < 4; r++ {
				var x [4]float64
				for l := range x {
					x[l] = shifts[s+(l+r)%4]
				}
				got := sturmCountBelow4(d, e, x, pivmin)
				for l, xl := range x {
					want, g := sturmCountBelow(d, e, xl, pivmin)
					if got[l] != want {
						t.Fatalf("%s: lane %d at x=%v: count %d, scalar %d", name, l, xl, got[l], want)
					}
					guards += g
					if g > 0 && xl != d[0] {
						interiorGuards++
					}
				}
			}
		}
		if guards == 0 {
			t.Errorf("%s: no shift tripped the pivmin guard", name)
		}
	}
	if interiorGuards == 0 {
		t.Error("no shift tripped the pivmin guard past the first pivot")
	}
}
