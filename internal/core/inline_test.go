package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tridiag/internal/lapack"
)

// inlineFamilies are FuzzInlineMergeMatchesTaskFlow's matrix families: the
// two lib workloads' families, a random matrix, a unit diagonal whose
// couplings are at most 1e-300 (every merge deflates through a tiny ρ), and
// the zero matrix.
var inlineFamilies = []func(rng *rand.Rand, n int) (d, e []float64){
	randTridiag,
	gluedW21,
	perturbedLegendre,
	func(rng *rand.Rand, n int) ([]float64, []float64) {
		d, e := make([]float64, n), make([]float64, max(n-1, 1))
		for i := range d {
			d[i] = 1
		}
		for i := range n - 1 {
			e[i] = 1e-300 * (2*rng.Float64() - 1)
		}
		return d, e
	},
	func(_ *rand.Rand, n int) ([]float64, []float64) {
		return make([]float64, n), make([]float64, max(n-1, 1))
	},
}

// FuzzInlineMergeMatchesTaskFlow: the task flow's merges and the merges the
// sequential driver runs inline are the same merge. At MinPartition 25 the
// task leaves are the QR leaves, so every merge runs as panel tasks, and at
// PanelSize n each of them is one panel, the column range the driver runs.
// The full solve must then give every λ and V bit of lapack.DstedcChecked,
// and the values-only solve every λ bit of lapack.DstedcCarrier (both with
// a checked run and QR leaves of 25 rows), at one and two workers; where one
// side fails, the other must fail too. The input is a family
// (inlineFamilies), the order n ∈ [1, 400], the generator's seed and a
// power-of-ten scale in [−300, 300].
func FuzzInlineMergeMatchesTaskFlow(f *testing.F) {
	for fam := range 3 {
		for _, n := range []uint16{60, 300, 400} {
			f.Add(uint8(fam), n, int64(1), int16(0))
		}
	}
	for fam := range inlineFamilies {
		for _, n := range []uint16{1, 2, 3, 25, 26, 27, 49, 50, 51, 77, 128, 129, 257} {
			for _, scale := range []int16{0, 300, -300} {
				f.Add(uint8(fam), n, int64(2), scale)
			}
		}
	}
	f.Fuzz(func(t *testing.T, family uint8, order uint16, seed int64, scale int16) {
		n := 1 + int(order-1)%400
		d0, e0 := inlineFamilies[int(family)%len(inlineFamilies)](rand.New(rand.NewSource(seed)), n)
		s := math.Pow10(int(scale) % 301)
		for i := range d0 {
			d0[i] *= s
		}
		for i := range e0 {
			e0[i] *= s
		}
		cfg := &lapack.DCConfig{SmallSize: lapack.DefaultSmallSize}

		dq, eq, q := slices.Clone(d0), slices.Clone(e0), make([]float64, n*n)
		qerr := lapack.DstedcChecked(n, dq, eq, q, n, cfg, &lapack.DCRun{})
		dc, ec, fl := slices.Clone(d0), slices.Clone(e0), make([]float64, 2*n)
		cerr := lapack.DstedcCarrier(n, dc, ec, fl, cfg, &lapack.DCRun{})

		for _, w := range []int{1, 2} {
			for _, vo := range []bool{false, true} {
				d, e := slices.Clone(d0), slices.Clone(e0)
				var v []float64
				if !vo {
					v = make([]float64, n*n)
				}
				_, err := SolveDC(n, d, e, v, n, &Options{Workers: w, MinPartition: 25, PanelSize: n, ValuesOnly: vo})
				wantD, wantV, werr := dq, q, qerr
				if vo {
					wantD, wantV, werr = dc, nil, cerr
				}
				switch {
				case (err == nil) != (werr == nil):
					t.Fatalf("W=%d values-only=%v: task flow error %v, sequential driver error %v", w, vo, err, werr)
				case err != nil:
				case !sameBits(d, wantD):
					t.Fatalf("W=%d values-only=%v: eigenvalue bits differ from the sequential driver's", w, vo)
				case !sameBits(v, wantV):
					t.Fatalf("W=%d: eigenvector bits differ from the sequential driver's", w)
				}
			}
		}
	})
}
