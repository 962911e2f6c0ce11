package core

import (
	"math"
	"math/rand"
	"testing"

	"tridiag/internal/lapack"
)

func randTridiag(rng *rand.Rand, n int) (d, e []float64) {
	d = make([]float64, n)
	e = make([]float64, max(n-1, 1))
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	for i := 0; i < n-1; i++ {
		e[i] = rng.NormFloat64()
	}
	return
}

// perturbedLegendre is the Jacobi matrix of the Legendre polynomials with a
// 1e-6 relative perturbation of every off-diagonal and a diagonal of the
// same size (perfbench's lib-lowdefl family): almost nothing deflates.
func perturbedLegendre(rng *rand.Rand, n int) (d, e []float64) {
	d, e = make([]float64, n), make([]float64, n-1)
	for i := 1; i < n; i++ {
		fi := float64(i)
		e[i-1] = fi / math.Sqrt((2*fi-1)*(2*fi+1)) * (1 + 1e-6*(2*rng.Float64()-1))
	}
	for i := range d {
		d[i] = 0.5e-6 * (2*rng.Float64() - 1)
	}
	return d, e
}

// gluedW21 chains jittered Wilkinson W21⁺ blocks with glue couplings of
// about 1e-10 (perfbench's lib-highdefl family): most of every merge
// deflates, much of it through close-pair rotations.
func gluedW21(rng *rand.Rand, n int) (d, e []float64) {
	d, e = make([]float64, n), make([]float64, n-1)
	for s := 0; s < n; s += 21 {
		bs := min(21, n-s)
		for i := 0; i < bs; i++ {
			d[s+i] = math.Abs(float64(i-bs/2)) + 1e-5*(2*rng.Float64()-1)
			if i < bs-1 {
				e[s+i] = 1
			}
		}
		if s+bs < n {
			e[s+bs-1] = 1e-10 * (0.5 + rng.Float64())
		}
	}
	return d, e
}

func residualAndOrth(n int, d0, e0, lam, z []float64, ldz int) (res, orth float64) {
	y := make([]float64, n)
	for j := 0; j < n; j++ {
		v := z[j*ldz : j*ldz+n]
		for i := 0; i < n; i++ {
			s := d0[i] * v[i]
			if i > 0 {
				s += e0[i-1] * v[i-1]
			}
			if i < n-1 {
				s += e0[i] * v[i+1]
			}
			y[i] = s - lam[j]*v[i]
		}
		var nrm float64
		for _, t := range y {
			nrm += t * t
		}
		res = math.Max(res, math.Sqrt(nrm))
	}
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			var s float64
			zi, zj := z[i*ldz:i*ldz+n], z[j*ldz:j*ldz+n]
			for k := 0; k < n; k++ {
				s += zi[k] * zj[k]
			}
			if i == j {
				s -= 1
			}
			orth = math.Max(orth, math.Abs(s))
		}
	}
	return res, orth
}

func checkSolve(t *testing.T, name string, n int, d0, e0 []float64, opts *Options) {
	t.Helper()
	d := append([]float64(nil), d0...)
	e := append([]float64(nil), e0...)
	q := make([]float64, n*n)
	_, err := SolveDC(n, d, e, q, n, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i := 1; i < n; i++ {
		if d[i] < d[i-1] {
			t.Fatalf("%s: eigenvalues not sorted at %d", name, i)
		}
	}
	nrm := lapack.Dlanst('M', n, d0, e0)
	if nrm == 0 {
		nrm = 1
	}
	res, orth := residualAndOrth(n, d0, e0, d, q, n)
	if res/(nrm*float64(n)) > 200*lapack.Eps {
		t.Errorf("%s: residual %.3e", name, res/(nrm*float64(n)))
	}
	if orth/float64(n) > 200*lapack.Eps {
		t.Errorf("%s: orthogonality %.3e", name, orth/float64(n))
	}
	// eigenvalues must match a direct QR solve
	dd := append([]float64(nil), d0...)
	ee := append([]float64(nil), e0...)
	if err := lapack.Dsteqr(lapack.CompNone, n, dd, ee, nil, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(d[i]-dd[i]) > 1e-11*(nrm+1)*float64(n) {
			t.Errorf("%s: eigenvalue %d mismatch: %v vs %v", name, i, d[i], dd[i])
		}
	}
}

func TestSolveDCAllModes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 150
	d0, e0 := randTridiag(rng, n)
	for _, mode := range []Mode{ModeTaskFlow, ModeLevelSync, ModeScaLAPACK, ModeForkJoin, ModeSequential} {
		for _, workers := range []int{1, 4} {
			opts := &Options{Mode: mode, Workers: workers, MinPartition: 20, PanelSize: 16}
			checkSolve(t, mode.String(), n, d0, e0, opts)
		}
	}
}

func TestSolveDCPanelSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 130
	d0, e0 := randTridiag(rng, n)
	for _, nb := range []int{1, 7, 32, 64, 1000} {
		checkSolve(t, "nb", n, d0, e0, &Options{Workers: 3, MinPartition: 24, PanelSize: nb})
	}
}

func TestSolveDCSmallSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 3, 4, 5, 9, 17, 33} {
		d0, e0 := randTridiag(rng, n)
		checkSolve(t, "small", n, d0, e0, &Options{Workers: 2, MinPartition: 4, PanelSize: 4})
	}
}

func TestSolveDCHighDeflation(t *testing.T) {
	// Constant diagonal with negligible couplings: everything deflates.
	n := 160
	d0 := make([]float64, n)
	e0 := make([]float64, n-1)
	for i := range d0 {
		d0[i] = 1
	}
	for i := range e0 {
		e0[i] = 1e-16
	}
	d := append([]float64(nil), d0...)
	e := append([]float64(nil), e0...)
	q := make([]float64, n*n)
	res, err := SolveDC(n, d, e, q, n, &Options{Workers: 4, MinPartition: 20, PanelSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Stats.DeflationRatio(); r < 0.95 {
		t.Errorf("expected near-total deflation, got ratio %v", r)
	}
	rres, orth := residualAndOrth(n, d0, e0, d, q, n)
	if rres > 1e-11 || orth > 1e-12 {
		t.Errorf("high-deflation accuracy: res=%v orth=%v", rres, orth)
	}
}

func TestSolveDCLowDeflation(t *testing.T) {
	// The (1,2,1) Toeplitz matrix has extended (sine) eigenvectors, so its
	// z vectors are dense and little deflation is possible.
	n := 200
	d0 := make([]float64, n)
	e0 := make([]float64, n-1)
	for i := range d0 {
		d0[i] = 2
	}
	for i := range e0 {
		e0[i] = 1
	}
	d := append([]float64(nil), d0...)
	e := append([]float64(nil), e0...)
	q := make([]float64, n*n)
	res, err := SolveDC(n, d, e, q, n, &Options{Workers: 4, MinPartition: 25, PanelSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Stats.DeflationRatio(); r > 0.5 {
		t.Errorf("unexpectedly high deflation %v for (1,2,1)", r)
	}
}

func TestSolveDCZeroMatrix(t *testing.T) {
	n := 64
	d := make([]float64, n)
	e := make([]float64, n-1)
	q := make([]float64, n*n)
	if _, err := SolveDC(n, d, e, q, n, &Options{Workers: 2, MinPartition: 8}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if d[i] != 0 || q[i+i*n] != 1 {
			t.Fatal("zero matrix should yield identity eigenvectors")
		}
	}
}

func TestSolveDCGraphShapeFigure2(t *testing.T) {
	// The paper's Figure 2: n=1000, minimal partition 300, nb=500 gives four
	// leaves of 250 and a fixed, matrix-independent task census.
	n := 1000
	d := make([]float64, n)
	e := make([]float64, n-1)
	rng := rand.New(rand.NewSource(6))
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	for i := range e {
		e[i] = rng.NormFloat64()
	}
	q := make([]float64, n*n)
	res, err := SolveDC(n, d, e, q, n, &Options{
		Workers: 2, MinPartition: 300, PanelSize: 500, CaptureGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	if g == nil {
		t.Fatal("graph not captured")
	}
	counts := g.ClassCounts()
	if counts["STEDC"] != 4 {
		t.Errorf("expected 4 leaf tasks, got %d", counts["STEDC"])
	}
	if counts["ComputeDeflation"] != 3 || counts["ReduceW"] != 3 {
		t.Errorf("expected 3 merges: %v", counts)
	}
	// merges of 500 with nb=500 have 1 panel; the root merge of 1000 has 2.
	if counts["LAED4"] != 1+1+2 {
		t.Errorf("expected 4 LAED4 tasks, got %d", counts["LAED4"])
	}
	if counts["UpdateVect"] != 4 {
		t.Errorf("expected 4 UpdateVect tasks, got %d", counts["UpdateVect"])
	}
	// every edge must be time-respected
	for _, ed := range g.Edges {
		if g.Tasks[ed[1]].Start < g.Tasks[ed[0]].End {
			t.Fatalf("edge %v violated in execution", ed)
		}
	}
}

func TestSolveDCMatrixIndependentDAG(t *testing.T) {
	// The same sizes with totally different deflation behaviour must yield
	// the identical task census (the paper's matrix-independent DAG).
	n := 300
	build := func(deflating bool) map[string]int {
		d := make([]float64, n)
		e := make([]float64, n-1)
		rng := rand.New(rand.NewSource(7))
		for i := range d {
			if deflating {
				d[i] = 1
			} else {
				d[i] = rng.NormFloat64()
			}
		}
		for i := range e {
			if deflating {
				e[i] = 1e-14
			} else {
				e[i] = rng.NormFloat64()
			}
		}
		q := make([]float64, n*n)
		res, err := SolveDC(n, d, e, q, n, &Options{
			Workers: 3, MinPartition: 40, PanelSize: 32, CaptureGraph: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Graph.ClassCounts()
	}
	a, b := build(true), build(false)
	for k, v := range a {
		if b[k] != v {
			t.Errorf("task census differs for %s: %d vs %d", k, v, b[k])
		}
	}
	if len(a) != len(b) {
		t.Errorf("class sets differ: %v vs %v", a, b)
	}
}

func TestSolveDCStatsCubicDominance(t *testing.T) {
	// Eq. 8: the last merge level should dominate the cubic work for a
	// low-deflation matrix. A (1,2,1) Toeplitz with a small diagonal ramp
	// avoids both localization and the mirror symmetry that would deflate
	// half the root merge.
	n := 400
	d0 := make([]float64, n)
	e0 := make([]float64, n-1)
	for i := range d0 {
		d0[i] = 2 + 0.001*float64(i)
	}
	for i := range e0 {
		e0[i] = 1
	}
	d := append([]float64(nil), d0...)
	e := append([]float64(nil), e0...)
	q := make([]float64, n*n)
	res, err := SolveDC(n, d, e, q, n, &Options{Workers: 2, MinPartition: 50, PanelSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	// The two compressed GEMMs of one merge take 2·n·k² flops: summed per
	// tree level, the dominant cubic term of Eq. 8.
	perLevel := map[int]int64{}
	for _, m := range res.Stats.Merges {
		perLevel[m.Level] += 2 * int64(m.N) * int64(m.K) * int64(m.K)
	}
	maxLvl := 0
	for l := range perLevel {
		if l > maxLvl {
			maxLvl = l
		}
	}
	var others int64
	for l, v := range perLevel {
		if l != maxLvl {
			others += v
		}
	}
	if perLevel[maxLvl] <= others {
		t.Errorf("root level %d ops %d should dominate all other levels' %d", maxLvl, perLevel[maxLvl], others)
	}
}

func TestSolveDCWilkinsonTypes(t *testing.T) {
	// Wilkinson and Clement matrices, paper Table III types 11/12.
	n := 121
	dW := make([]float64, n)
	eW := make([]float64, n-1)
	for i := 0; i < n; i++ {
		dW[i] = math.Abs(float64(i - (n-1)/2))
	}
	for i := range eW {
		eW[i] = 1
	}
	checkSolve(t, "wilkinson", n, dW, eW, &Options{Workers: 4, MinPartition: 16, PanelSize: 16})

	dC := make([]float64, n)
	eC := make([]float64, n-1)
	for i := 1; i < n; i++ {
		eC[i-1] = math.Sqrt(float64(i) * float64(n-i))
	}
	checkSolve(t, "clement", n, dC, eC, &Options{Workers: 4, MinPartition: 16, PanelSize: 16})
}

func TestSolveDCInvalidArgs(t *testing.T) {
	if _, err := SolveDC(-1, nil, nil, nil, 0, nil); err == nil {
		t.Error("negative n must error")
	}
	if _, err := SolveDC(10, make([]float64, 10), make([]float64, 9), make([]float64, 100), 5, nil); err == nil {
		t.Error("ldq < n must error")
	}
	if _, err := SolveDC(0, nil, nil, nil, 0, nil); err != nil {
		t.Errorf("n=0 should succeed: %v", err)
	}
}
