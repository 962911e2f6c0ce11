package eigen

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randomTridiag(rng *rand.Rand, n int) Tridiagonal {
	d := make([]float64, n)
	e := make([]float64, max(n-1, 0))
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	for i := range e {
		e[i] = rng.NormFloat64()
	}
	return Tridiagonal{D: d, E: e}
}

func TestSolveAllMethodsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	n := 90
	tri := randomTridiag(rng, n)
	var ref []float64
	for _, m := range []Method{MethodDC, MethodDCSequential, MethodMRRR, MethodQR} {
		res, err := Solve(tri, &Options{Method: m, Workers: 3})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got := Residual(tri, res); got > 1e-13 {
			t.Errorf("%v: residual %.3e", m, got)
		}
		if got := Orthogonality(res); got > 1e-13 {
			t.Errorf("%v: orthogonality %.3e", m, got)
		}
		if ref == nil {
			ref = res.Values
			continue
		}
		for i := 0; i < n; i++ {
			if math.Abs(res.Values[i]-ref[i]) > 1e-11 {
				t.Errorf("%v: eigenvalue %d differs: %v vs %v", m, i, res.Values[i], ref[i])
			}
		}
	}
}

func TestValuesMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	tri := randomTridiag(rng, 60)
	w, err := Values(tri)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(tri, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if math.Abs(w[i]-res.Values[i]) > 1e-11 {
			t.Errorf("eigenvalue %d: %v vs %v", i, w[i], res.Values[i])
		}
	}
}

func TestSolveDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	tri := randomTridiag(rng, 40)
	d0 := append([]float64(nil), tri.D...)
	e0 := append([]float64(nil), tri.E...)
	if _, err := Solve(tri, nil); err != nil {
		t.Fatal(err)
	}
	for i := range d0 {
		if tri.D[i] != d0[i] {
			t.Fatal("Solve modified D")
		}
	}
	for i := range e0 {
		if tri.E[i] != e0[i] {
			t.Fatal("Solve modified E")
		}
	}
}

func TestSymEigen(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	n := 70
	a := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			v := rng.NormFloat64()
			a[i+j*n] = v
			a[j+i*n] = v
		}
	}
	aorig := append([]float64(nil), a...)
	res, err := SymEigen(n, a, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A v = λ v
	worst := 0.0
	var anorm float64
	for _, v := range aorig {
		anorm = math.Max(anorm, math.Abs(v))
	}
	for j := 0; j < n; j++ {
		v := res.Vector(j)
		for i := 0; i < n; i++ {
			var s float64
			for l := 0; l < n; l++ {
				s += aorig[i+l*n] * v[l]
			}
			worst = math.Max(worst, math.Abs(s-res.Values[j]*v[i]))
		}
	}
	if worst/(anorm*float64(n)) > 1e-14 {
		t.Errorf("SymEigen residual %.3e", worst/(anorm*float64(n)))
	}
	if got := Orthogonality(res); got > 1e-14 {
		t.Errorf("SymEigen orthogonality %.3e", got)
	}
}

func TestSolveEdgeCases(t *testing.T) {
	// empty
	res, err := Solve(Tridiagonal{}, nil)
	if err != nil || res.N != 0 {
		t.Errorf("empty: %v %v", res, err)
	}
	// 1x1
	res, err = Solve(Tridiagonal{D: []float64{7}, E: []float64{}}, nil)
	if err != nil || res.Values[0] != 7 || res.Vector(0)[0] != 1 {
		t.Errorf("1x1: %+v %v", res, err)
	}
	// wrong E length
	if _, err := Solve(Tridiagonal{D: []float64{1, 2}, E: []float64{}}, nil); err == nil {
		t.Error("bad E length must error")
	}
	// bad method
	if _, err := Solve(Tridiagonal{D: []float64{1}, E: []float64{}}, &Options{Method: Method(99)}); err == nil {
		t.Error("unknown method must error")
	}
	// SymEigen validation
	if _, err := SymEigen(4, make([]float64, 16), 2, nil); err == nil {
		t.Error("lda<n must error")
	}
}

// Property: for random tridiagonals, eigenvalues are ascending, the trace is
// preserved, and vectors are orthonormal.
func TestSolveQuickProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		tri := randomTridiag(r, n)
		res, err := Solve(tri, &Options{Workers: 2, MinPartition: 8, PanelSize: 8})
		if err != nil {
			return false
		}
		var trT, trL float64
		for i := 0; i < n; i++ {
			trT += tri.D[i]
			trL += res.Values[i]
			if i > 0 && res.Values[i] < res.Values[i-1] {
				return false
			}
		}
		if math.Abs(trT-trL) > 1e-10*float64(n)*(math.Abs(trT)+1) {
			return false
		}
		return Orthogonality(res) < 1e-13
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMethodString(t *testing.T) {
	if MethodDC.String() != "dc" || MethodMRRR.String() != "mrrr" {
		t.Error("method names")
	}
}

func TestSymGeneralized(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	n := 60
	a := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			v := rng.NormFloat64()
			a[i+j*n] = v
			a[j+i*n] = v
		}
	}
	// SPD B = M Mᵀ + n I
	m := make([]float64, n*n)
	for i := range m {
		m[i] = rng.NormFloat64()
	}
	b := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			var s float64
			for l := 0; l < n; l++ {
				s += m[i+l*n] * m[j+l*n]
			}
			b[i+j*n] = s
		}
		b[j+j*n] += float64(n)
	}
	aorig := append([]float64(nil), a...)
	borig := append([]float64(nil), b...)
	res, err := SymGeneralized(n, a, n, b, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A x = λ B x and Xᵀ B X = I
	var anorm float64
	for _, x := range aorig {
		anorm = math.Max(anorm, math.Abs(x))
	}
	bx := make([]float64, n)
	for j := 0; j < n; j++ {
		v := res.Vector(j)
		for i := 0; i < n; i++ {
			var ax float64
			bx[i] = 0
			for l := 0; l < n; l++ {
				ax += aorig[i+l*n] * v[l]
				bx[i] += borig[i+l*n] * v[l]
			}
			if math.Abs(ax-res.Values[j]*bx[i]) > 1e-11*anorm*float64(n) {
				t.Fatalf("generalized residual at (%d,%d)", i, j)
			}
		}
		// B-orthonormality against earlier vectors
		for k := 0; k <= j; k++ {
			var s float64
			vk := res.Vector(k)
			for i := 0; i < n; i++ {
				s += vk[i] * bx[i]
			}
			want := 0.0
			if k == j {
				want = 1
			}
			if math.Abs(s-want) > 1e-11*float64(n) {
				t.Fatalf("XᵀBX (%d,%d) = %v", k, j, s)
			}
		}
	}
	// indefinite B must be rejected
	bad := make([]float64, 4)
	bad[0], bad[3] = 1, -1
	if _, err := SymGeneralized(2, make([]float64, 4), 2, bad, 2, nil); err == nil {
		t.Error("indefinite B must error")
	}
}

// TestDenseDriversValuesOnly: the dense drivers honour ValuesOnly. Solve
// returns nil Vectors for it, so each driver must skip its
// back-transformation and return the eigenvalues of its full solve (for
// SymGeneralized, the generalized ones).
func TestDenseDriversValuesOnly(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(431))
	sym := func() []float64 {
		a := make([]float64, n*n)
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				v := rng.NormFloat64()
				a[i+j*n] = v
				a[j+i*n] = v
			}
		}
		return a
	}
	a0 := sym()
	b0 := sym() // diagonally dominant, hence SPD
	for i := 0; i < n; i++ {
		b0[i+i*n] += 2 * n
	}
	clone := func(v []float64) []float64 { return append([]float64(nil), v...) }
	drivers := []struct {
		name string
		run  func(o *Options) (*Result, error)
	}{
		{"SymEigen", func(o *Options) (*Result, error) { return SymEigen(n, clone(a0), n, o) }},
		{"SymGeneralized", func(o *Options) (*Result, error) {
			return SymGeneralized(n, clone(a0), n, clone(b0), n, o)
		}},
	}
	for _, dr := range drivers {
		full, err := dr.run(nil)
		if err != nil {
			t.Fatalf("%s: full solve: %v", dr.name, err)
		}
		vo, err := dr.run(&Options{ValuesOnly: true})
		if err != nil {
			t.Fatalf("%s: values-only solve: %v", dr.name, err)
		}
		if vo.Vectors != nil {
			t.Errorf("%s: values-only result carries %d vector entries", dr.name, len(vo.Vectors))
		}
		tol := 1e-12 * n * spectrumScale(full.Values)
		for i := range full.Values {
			if d := math.Abs(vo.Values[i] - full.Values[i]); d > tol {
				t.Errorf("%s: eigenvalue %d: values-only %v, full %v", dr.name, i, vo.Values[i], full.Values[i])
			}
		}
	}
}

// TestTierRoutes pins the tiers every route runs, per method and lane: the
// direct route with Fallback, the direct route without it (cut to its first
// tier, which is also a Server's primary attempt) and a Server's fallback
// route. A clean solve of each method and lane is served by the first tier.
func TestTierRoutes(t *testing.T) {
	cases := []struct {
		m                            Method
		direct, fallback             string
		directValues, fallbackValues string
	}{
		{MethodDC, "task-flow→dstedc→qr", "dstedc→qr", "task-flow→dsterf", "dsterf"},
		{MethodDCSequential, "dstedc→qr", "dstedc→qr", "dsterf", "dsterf"},
		{MethodMRRR, "mrrr→qr", "qr", "dsterf", "dsterf"},
		{MethodQR, "qr", "qr", "dsterf", "dsterf"},
	}
	join := func(tiers []string) string { return strings.Join(tiers, "→") }
	tri := randomTridiag(rand.New(rand.NewSource(433)), 60)
	for _, c := range cases {
		for _, vo := range []bool{false, true} {
			direct, fallback := c.direct, c.fallback
			if vo {
				direct, fallback = c.directValues, c.fallbackValues
			}
			o := &Options{Method: c.m, ValuesOnly: vo, Fallback: true}
			if got := join(directRoute(o)); got != direct {
				t.Errorf("%v values-only=%v: direct route %s, want %s", c.m, vo, got, direct)
			}
			first := strings.Split(direct, "→")[0]
			o.Fallback = false
			if got := join(directRoute(o)); got != first {
				t.Errorf("%v values-only=%v: route without Fallback %s, want %s", c.m, vo, got, first)
			}
			if got := join(fallbackRoute(o)); got != fallback {
				t.Errorf("%v values-only=%v: server fallback route %s, want %s", c.m, vo, got, fallback)
			}
			res, err := Solve(tri, o)
			if err != nil {
				t.Fatalf("%v values-only=%v: %v", c.m, vo, err)
			}
			if res.Stats.Tier != first || res.Stats.Degraded() || res.Stats.Validated {
				t.Errorf("%v values-only=%v: clean solve served by %s (degraded=%v validated=%v), want %s",
					c.m, vo, res.Stats.Tier, res.Stats.Degraded(), res.Stats.Validated, first)
			}
		}
	}
	if r := directRoute(&Options{Method: Method(99), Fallback: true}); r != nil {
		t.Errorf("unknown method has route %v", r)
	}
}

// TestTiersIgnoreDirtyVectors checks what lets the fallback ladder hand a
// retry the vectors a failed tier left behind: every vector tier writes
// every entry of q (task-flow and dstedc through their closing sort, qr
// from Dsteqr's identity start, mrrr by zeroing its output), so a run on a
// NaN-filled q gives the same bytes as one on a zeroed q.
func TestTiersIgnoreDirtyVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	o := &Options{Workers: 2}
	for _, tri := range []Tridiagonal{randomTridiag(rng, 200), exactGluedW21(210, 1e-10)} {
		n := tri.N()
		for _, tier := range []string{"task-flow", "dstedc", "qr", "mrrr"} {
			run := func(fill float64) (d, q []float64) {
				d = append([]float64(nil), tri.D...)
				ework := append([]float64(nil), tri.E...)
				eorig := append([]float64(nil), tri.E...)
				q = make([]float64, n*n)
				for i := range q {
					q[i] = fill
				}
				if _, err := runTier(context.Background(), tier, n, o, d, ework, q, eorig); err != nil {
					t.Fatalf("n=%d tier %s: %v", n, tier, err)
				}
				return d, q
			}
			dz, qz := run(0)
			dn, qn := run(math.NaN())
			for i := range dz {
				if math.Float64bits(dz[i]) != math.Float64bits(dn[i]) {
					t.Fatalf("n=%d tier %s: eigenvalue %d differs on a NaN-filled q: %v vs %v", n, tier, i, dn[i], dz[i])
				}
			}
			for i := range qz {
				if math.Float64bits(qz[i]) != math.Float64bits(qn[i]) {
					t.Fatalf("n=%d tier %s: q[%d] differs on a NaN-filled q: %v vs %v", n, tier, i, qn[i], qz[i])
				}
			}
		}
	}
}
