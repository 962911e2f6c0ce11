package eigen

import (
	"math"
	"math/rand"
	"testing"
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
