package core

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"tridiag/internal/lapack"
	"tridiag/internal/pool"
	"tridiag/internal/testmat"
)

// ulpTol returns the comparison tolerance at the spectrum's scale: tol ulps
// of the largest eigenvalue magnitude (with a floor at the denormal range so
// identically-zero spectra compare equal).
func ulpTol(d []float64, ulps float64) float64 {
	var scale float64
	for _, v := range d {
		scale = math.Max(scale, math.Abs(v))
	}
	if scale == 0 {
		return 0
	}
	return ulps * lapack.Eps * scale
}

// voUlps is the spectrum-comparison bar between the values-only lane and the
// full task-flow path: 8 ulp (at spectrum scale) per merge level of the D&C
// tree (mergeLevels). The two paths share bit-identical QR leaf and
// deflation trajectories, but each merge's z-vector is formed differently —
// two sequential dot products per column in the lane versus rows of a
// blocked GEMM in the full path — so the secular roots drift by a few ulp per
// level, and when that drift pushes a borderline z entry across the
// deflation threshold the flip perturbs the spectrum by the threshold itself
// (~8 ulp at scale; both results are within the algorithm's error bound).
// Both lanes run the same tree at every n, so a matrix that is one QR leaf
// (no merge level) must match exactly.
func voUlps(n, minPartition int) float64 {
	return 8 * float64(mergeLevels(n, minPartition))
}

// mergeLevels is the merge depth of a task-flow solve's tree: the task
// flow's levels over leaves of at most minPartition rows (<2: the default),
// plus the levels inside the deepest leaf over QR leaves of
// min(minPartition, 25) rows.
func mergeLevels(n, minPartition int) int {
	if minPartition < 2 {
		minPartition = DefaultMinPartition
	}
	leaves := lapack.PartitionSizes(n, minPartition)
	qr := lapack.PartitionSizes(leaves[len(leaves)-1], min(minPartition, lapack.DefaultSmallSize))
	return bits.Len(uint(len(leaves)-1)) + bits.Len(uint(len(qr)-1))
}

// checkValuesOnly solves (d0, e0) with the values-only lane and the full
// task-flow path and requires the spectra to agree to ulps ulp of the
// spectrum scale.
func checkValuesOnly(t *testing.T, name string, n int, d0, e0 []float64, opts *Options, ulps float64) {
	t.Helper()
	full := append([]float64(nil), d0...)
	eFull := append([]float64(nil), e0...)
	q := make([]float64, n*n)
	if _, err := SolveDC(n, full, eFull, q, max(n, 1), opts); err != nil {
		t.Fatalf("%s: full solve: %v", name, err)
	}

	vo := append([]float64(nil), d0...)
	eVO := append([]float64(nil), e0...)
	voOpts := *opts
	voOpts.ValuesOnly = true
	base := pool.InUseBytes()
	if _, err := SolveDC(n, vo, eVO, nil, 0, &voOpts); err != nil {
		t.Fatalf("%s: values-only solve: %v", name, err)
	}
	if got := pool.InUseBytes(); got != base {
		t.Errorf("%s: pool accountant moved: %d -> %d", name, base, got)
	}
	for i := 1; i < n; i++ {
		if vo[i] < vo[i-1] {
			t.Fatalf("%s: values-only eigenvalues not sorted at %d", name, i)
		}
	}
	tol := ulpTol(full, ulps)
	for i := 0; i < n; i++ {
		if diff := math.Abs(vo[i] - full[i]); diff > tol {
			t.Fatalf("%s: eigenvalue %d differs: full=%.17g values-only=%.17g (|Δ|=%.3e > tol=%.3e)",
				name, i, full[i], vo[i], diff, tol)
		}
	}
}

func TestValuesOnlyMatchesFullSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 5, 17, 48, 49, 96, 97, 200, 317, 512} {
		d, e := randTridiag(rng, n)
		checkValuesOnly(t, "random", n, d, e, &Options{Workers: 4}, voUlps(n, 0))
	}
	for _, typ := range []int{1, 2, 3, 4, 5} {
		m, err := testmat.Type(typ, 300, rng)
		if err != nil {
			t.Fatal(err)
		}
		checkValuesOnly(t, m.Name, 300, m.D, m.E, &Options{Workers: 4}, voUlps(300, 0))
	}
	// Fixed panel size exercises the non-adaptive secular widths.
	d, e := randTridiag(rng, 257)
	checkValuesOnly(t, "fixed-nb", 257, d, e, &Options{Workers: 3, PanelSize: 32, MinPartition: 16}, voUlps(257, 16))
}

func TestValuesOnlySequentialModes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d0, e0 := randTridiag(rng, 150)
	want := append([]float64(nil), d0...)
	eW := append([]float64(nil), e0...)
	q := make([]float64, 150*150)
	if _, err := SolveDC(150, want, eW, q, 150, nil); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeSequential, ModeForkJoin} {
		d := append([]float64(nil), d0...)
		e := append([]float64(nil), e0...)
		if _, err := SolveDC(150, d, e, nil, 0, &Options{Mode: mode, ValuesOnly: true}); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		tol := ulpTol(want, 64) // Dsterf is a different algorithm: looser bar
		for i := range d {
			if math.Abs(d[i]-want[i]) > tol {
				t.Fatalf("%s: eigenvalue %d differs by %.3e", mode, i, math.Abs(d[i]-want[i]))
			}
		}
	}
	for _, mode := range []Mode{ModeLevelSync, ModeScaLAPACK} {
		d := append([]float64(nil), d0...)
		e := append([]float64(nil), e0...)
		if _, err := SolveDC(150, d, e, nil, 0, &Options{Mode: mode, ValuesOnly: true}); err == nil {
			t.Fatalf("%s: values-only should be rejected", mode)
		}
	}
}
