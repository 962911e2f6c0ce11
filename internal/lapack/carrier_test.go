package lapack

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"tridiag/internal/pool"
)

// TestDstedcCarrierMatchesDstedc: the carrier driver runs the sequential
// divide and conquer of Dstedc over the first and last rows of the
// eigenvectors only. Its eigenvalues, and its carrier against rows 0 and
// m−1 of Dstedc's vectors, agree within 8 ulp (of the spectrum's scale,
// and of 1 for the carrier entries) per merge level: the QR leaves and the
// deflation scans are bit-identical, and each merge forms the next z from
// fused dot products instead of GEMM rows, so a few ulp move per level. A
// matrix that is one QR leaf, or the zero matrix, must match exactly.
func TestDstedcCarrierMatchesDstedc(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	type tc struct {
		name string
		d, e []float64
	}
	var cases []tc
	for _, n := range []int{1, 2, 17, 25, 26, 60, 128, 300} {
		d, e := randTridiag(rng, n)
		cases = append(cases, tc{"random", d, e})
	}
	oneTwoOne := func(n int) ([]float64, []float64) {
		d, e := make([]float64, n), make([]float64, n-1)
		for i := range d {
			d[i] = 2
		}
		for i := range e {
			e[i] = 1
		}
		return d, e
	}
	d, e := oneTwoOne(100)
	cases = append(cases, tc{"1-2-1", d, e})
	cases = append(cases, tc{"zero", make([]float64, 40), make([]float64, 39)})
	// Glued Wilkinson W21: most of every merge deflates, much of it
	// through close-pair rotations of the carrier.
	gd, ge := make([]float64, 126), make([]float64, 125)
	for i := range gd {
		gd[i] = math.Abs(float64(i%21-10)) + 1e-5*(2*rng.Float64()-1)
	}
	for i := range ge {
		ge[i] = 1
		if i%21 == 20 {
			ge[i] = 1e-10
		}
	}
	cases = append(cases, tc{"glued-W21", gd, ge})

	for _, c := range cases {
		n := len(c.d)
		smlsiz := DefaultSmallSize
		levels := bits.Len(uint(len(PartitionSizes(n, smlsiz)) - 1))
		if n <= smlsiz {
			levels = 0
		}
		dv, ev := append([]float64(nil), c.d...), append([]float64(nil), c.e...)
		q := make([]float64, n*n)
		if err := Dstedc(n, dv, ev, q, n, nil); err != nil {
			t.Fatalf("%s n=%d: Dstedc: %v", c.name, n, err)
		}
		dc, ec := append([]float64(nil), c.d...), append([]float64(nil), c.e...)
		fl := make([]float64, 2*n)
		run := &DCRun{}
		if err := DstedcCarrier(n, dc, ec, fl, nil, run); err != nil {
			t.Fatalf("%s n=%d: DstedcCarrier: %v", c.name, n, err)
		}
		if got, want := len(run.Merges), len(PartitionSizes(n, smlsiz))-1; got != want && Dlanst('M', n, c.d, c.e) != 0 {
			t.Errorf("%s n=%d: %d merge records, want one per merge", c.name, n, got)
		}
		for _, m := range run.Merges {
			if m.InvariantFails > 0 || m.Invariants == 0 {
				t.Errorf("%s n=%d: merge %+v failed or ran no check", c.name, n, m)
			}
		}
		var scale float64
		for _, v := range dv {
			scale = math.Max(scale, math.Abs(v))
		}
		tolD := 8 * float64(levels) * Eps * scale
		tolV := 8 * float64(levels) * Eps
		for j := 0; j < n; j++ {
			if diff := math.Abs(dc[j] - dv[j]); diff > tolD {
				t.Errorf("%s n=%d: eigenvalue %d: carrier %.17g, Dstedc %.17g (|Δ| %.3g > %.3g)", c.name, n, j, dc[j], dv[j], diff, tolD)
				break
			}
			for r, got := range [2]float64{fl[2*j], fl[2*j+1]} {
				row := []int{0, n - 1}[r]
				if diff := math.Abs(got - q[row+j*n]); diff > tolV {
					t.Errorf("%s n=%d: carrier row %d of vector %d: %.17g, Dstedc %.17g (|Δ| %.3g > %.3g)", c.name, n, row, j, got, q[row+j*n], diff, tolV)
					break
				}
			}
		}
	}
}

// TestCarrierScratchCoversMerges: every carrier merge holds exactly the
// buffers its type declares (mergeWords): at its ComputeDeflation fault
// point, the Deflate step's z and outer-row copy and the secular state of
// its K roots in one panel, and at every later point the secular state
// alone, sampled through the run's hook. Those stay within the pool classes
// of CarrierScratch, which the values-only admission estimate charges.
func TestCarrierScratchCoversMerges(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, n := range []int{26, 60, 128, 300} {
		d, e := randTridiag(rng, n)
		base := pool.InUseBytes()
		type sample struct {
			deflate bool
			held    int64
		}
		var held []sample // pooled bytes at each hook call
		run := &DCRun{Corrupt: func(class string, _ []float64) {
			held = append(held, sample{class == "ComputeDeflation", pool.InUseBytes() - base})
		}}
		if err := DstedcCarrier(n, d, e, make([]float64, 2*n), nil, run); err != nil {
			t.Fatal(err)
		}
		var bound int64
		for _, words := range CarrierScratch(n, nil) {
			bound += pool.ClassBytes(words)
		}
		merge := -1
		var want int64
		for _, s := range held {
			if s.deflate {
				merge++
				m := run.Merges[merge]
				deflate, secular := mergeWords(true, m.N, m.K, 1)
				want = pool.ClassBytes(secular)
				if s.held != pool.ClassBytes(deflate)+want {
					t.Errorf("n=%d: merge of %d rows (K=%d) held %d pooled bytes in Deflate, want %d", n, m.N, m.K, s.held, pool.ClassBytes(deflate)+want)
				}
			} else if s.held != want {
				t.Errorf("n=%d: merge %d held %d pooled bytes after Deflate, want its secular state's %d", n, merge, s.held, want)
			}
			if s.held > bound {
				t.Errorf("n=%d: merge %d held %d pooled bytes, beyond CarrierScratch's %d", n, merge, s.held, bound)
			}
		}
		if merge+1 != len(run.Merges) {
			t.Errorf("n=%d: %d deflation hooks for %d merges", n, merge+1, len(run.Merges))
		}
	}
}
