package lapack

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"tridiag/internal/pool"
)

// checkFinalSort plans perm over q (n×n at leading dimension ldq, column j
// valid on sp[j]) as segs segments, runs the segments concurrently and
// compares q against the explicit gather: column i must hold column
// perm[i]'s span rows bit for bit and +0 on every other row of [0, n), rows
// [n, ldq) must be untouched, and the plan's saved vectors and the
// segments' buffers must all be back in the pool. With clean set, q's rows
// [0, n) outside the spans are first set to +0 and the sort is told so. It
// returns the entries the segments report.
func checkFinalSort(t *testing.T, label string, n, ldq int, q []float64, perm []int, sp []Span, segs int, clean bool) int64 {
	t.Helper()
	if clean {
		for j, s := range sp {
			clearOutside(q[j*ldq:j*ldq+n], s.Lo, s.Hi)
		}
	}
	want := make([]float64, len(q))
	copy(want, q)
	for i, src := range perm {
		for r := 0; r < n; r++ {
			want[r+i*ldq] = spanned(q, ldq, sp, r, src)
		}
	}
	before := pool.InUseBytes()
	fs := NewFinalSort(n, perm, q, ldq, sp, segs, clean)
	var wg sync.WaitGroup
	var words atomic.Int64
	for s := range segs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			words.Add(fs.Segment(s))
		}()
	}
	wg.Wait()
	fs.Release()
	if got := pool.InUseBytes(); got != before {
		t.Fatalf("%s: pool accountant at %d bytes after the sort, want %d", label, got, before)
	}
	for i := range want {
		if math.Float64bits(q[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s (clean=%v): q[%d] (row %d, column %d) = %v, want %v", label, clean, i, i%ldq, i/ldq, q[i], want[i])
		}
	}
	return words.Load()
}

// spannedMatrix fills an n×n matrix (leading dimension ldq) with NaN and
// gives each column a random span of random values, some of them −0.
func spannedMatrix(rng *rand.Rand, n, ldq int) ([]float64, []Span) {
	q := make([]float64, n*ldq)
	for i := range q {
		q[i] = math.NaN()
	}
	sp := make([]Span, n)
	for j := range sp {
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		sp[j] = Span{lo, hi}
		for r := lo; r < hi; r++ {
			if rng.Intn(8) == 0 {
				q[r+j*ldq] = math.Copysign(0, -1)
			} else {
				q[r+j*ldq] = rng.NormFloat64()
			}
		}
	}
	return q, sp
}

// TestFinalSortMatchesGather checks the closing column permutation against
// the explicit gather on the permutation shapes that stress its cycle
// splitting — one giant cycle, all 2-cycles, the identity, scattered fixed
// points and random — at S ∈ {1, 2, 3, 8} segments run concurrently, with
// random spans over NaN-filled storage.
func TestFinalSortMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	shapes := map[string]func(n int) []int{
		"giant-cycle": func(n int) []int {
			p := make([]int, n)
			for i := range p {
				p[i] = (i + 1) % n
			}
			return p
		},
		"2-cycles": func(n int) []int {
			p := make([]int, n)
			for i := range p {
				p[i] = i ^ 1
				if p[i] >= n {
					p[i] = i
				}
			}
			return p
		},
		"identity": identityPerm,
		"fixed-points": func(n int) []int {
			// A random permutation of a random half of the columns; the
			// rest stay put.
			p := make([]int, n)
			var moved []int
			for i := range p {
				p[i] = i
				if rng.Intn(2) == 0 {
					moved = append(moved, i)
				}
			}
			for i, j := range rng.Perm(len(moved)) {
				p[moved[i]] = moved[j]
			}
			return p
		},
		"random": func(n int) []int { return rng.Perm(n) },
	}
	for name, shape := range shapes {
		for _, n := range []int{1, 2, 3, 7, 40, 129} {
			for _, segs := range []int{1, 2, 3, 8} {
				for trial := 0; trial < 3; trial++ {
					ldq := n + trial // exercise ldq > n
					q, sp := spannedMatrix(rng, n, ldq)
					perm := shape(n)
					qc := append([]float64(nil), q...)
					checkFinalSort(t, name, n, ldq, q, perm, sp, segs, false)
					checkFinalSort(t, name, n, ldq, qc, perm, sp, segs, true)
				}
			}
		}
	}
}

// TestFinalSortCleanModeWritesSpans checks the two write rules against each
// other on a q that is +0 outside its spans: the clean mode must leave the
// same bytes as the full clear, while writing only the source's span rows
// and the destination's old span rows of each moved column. A column that
// stays costs nothing, so the identity writes no entry at all.
func TestFinalSortCleanModeWritesSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, n := range []int{1, 5, 64, 200} {
		for _, segs := range []int{1, 3} {
			q, sp := spannedMatrix(rng, n, n)
			for j, s := range sp {
				clearOutside(q[j*n:j*n+n], s.Lo, s.Hi)
			}
			for name, perm := range map[string][]int{"random": rng.Perm(n), "identity": identityPerm(n)} {
				var bound int64
				for dst, src := range perm {
					if src != dst {
						a, b := min(sp[src].Lo, sp[dst].Lo), max(sp[src].Hi, sp[dst].Hi)
						bound += int64(b - a)
					}
				}
				full := append([]float64(nil), q...)
				clean := append([]float64(nil), q...)
				if got := checkFinalSort(t, name, n, n, full, perm, sp, segs, false); got != int64(n)*int64(n) {
					t.Errorf("%s n=%d: full-clear mode reports %d entries, want n² = %d", name, n, got, n*n)
				}
				got := checkFinalSort(t, name, n, n, clean, perm, sp, segs, true)
				for i := range full {
					if math.Float64bits(full[i]) != math.Float64bits(clean[i]) {
						t.Fatalf("%s n=%d S=%d: entry %d differs between the modes: %v vs %v", name, n, segs, i, full[i], clean[i])
					}
				}
				if got > bound {
					t.Errorf("%s n=%d: clean mode wrote %d entries, more than the %d rows its moved columns' spans cover", name, n, got, bound)
				}
			}
		}
	}
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// TestSortOrderMatchesTwoStep checks SortOrder against LAPACK's two steps
// done on an explicit copy: the gather through indxq, then the insertion
// pass over d that swaps whole columns. d must come out bit for bit the
// same, and the permutation it returns must name the columns the two steps
// leave in each position.
func TestSortOrderMatchesTwoStep(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for _, n := range []int{1, 2, 5, 64, 301} {
		for trial := 0; trial < 5; trial++ {
			d := make([]float64, n)
			for i := range d {
				// Few distinct values, so the gathered order has inversions
				// and ties for the insertion pass to handle.
				d[i] = float64(rng.Intn(6)) + 1e-16*float64(rng.Intn(3))
			}
			indxq := rng.Perm(n)
			wantD := make([]float64, n)
			wantCol := make([]int, n)
			for i, j := range indxq {
				wantD[i], wantCol[i] = d[j], j
			}
			for i := 1; i < n; i++ {
				for j := i; j > 0 && wantD[j] < wantD[j-1]; j-- {
					wantD[j], wantD[j-1] = wantD[j-1], wantD[j]
					wantCol[j], wantCol[j-1] = wantCol[j-1], wantCol[j]
				}
			}
			const scale = 3.5
			SortOrder(n, d, indxq, scale)
			for i := range d {
				if math.Float64bits(d[i]) != math.Float64bits(wantD[i]*scale) || indxq[i] != wantCol[i] {
					t.Fatalf("n=%d trial %d: position %d holds %v from column %d, want %v from column %d",
						n, trial, i, d[i], indxq[i], wantD[i]*scale, wantCol[i])
				}
			}
		}
	}
}

// TestFinalSortScratchIsLinear bounds the closing sort's allocations: it
// must follow the permutation's cycles with O(n) scratch (the cycle list
// and pooled columns), never an n×n shadow copy, which at n=512 would be
// 2 MB per call.
func TestFinalSortScratchIsLinear(t *testing.T) {
	const n = 512
	rng := rand.New(rand.NewSource(97))
	d := make([]float64, n)
	q := make([]float64, n*n)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	sp := make([]Span, n)
	for j := range sp {
		sp[j] = Span{0, n}
	}
	perm := rng.Perm(n)
	indxq := make([]int, n)
	for _, segs := range []int{1, 8} {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(indxq, perm)
				SortOrder(n, d, indxq, 1)
				fs := NewFinalSort(n, indxq, q, n, sp, segs, false)
				for s := range segs {
					fs.Segment(s)
				}
				fs.Release()
			}
		})
		if got, limit := res.AllocedBytesPerOp(), int64(200<<10); got > limit {
			t.Errorf("S=%d: the closing sort allocates %d B/op for n=%d, want O(n) scratch (< %d B)", segs, got, n, limit)
		}
	}
}

// FuzzFinalPermutation drives the closing column permutation with
// fuzz-chosen sizes (n ≤ 64), permutations, spans and segment counts (1–8),
// in both write modes: the full clear over NaN-filled storage, and the
// clean mode over the same q with +0 outside the spans. Each is compared
// against the explicit gather, so the two leave the same bytes. The seed
// corpus lives in testdata/fuzz/FuzzFinalPermutation.
func FuzzFinalPermutation(f *testing.F) {
	f.Add([]byte{7, 2, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		n := 1 + next()%64
		segs := 1 + next()%8
		ldq := n + next()%3
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0; i-- { // Fisher–Yates on fuzz bytes
			j := next() % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		q := make([]float64, n*ldq)
		for i := range q {
			q[i] = math.NaN()
		}
		sp := make([]Span, n)
		for j := range sp {
			lo := next() % n
			hi := lo + 1 + next()%(n-lo)
			sp[j] = Span{lo, hi}
			for r := lo; r < hi; r++ {
				q[r+j*ldq] = float64(j*n + r + 1)
			}
		}
		qc := append([]float64(nil), q...)
		checkFinalSort(t, "fuzz", n, ldq, q, perm, sp, segs, false)
		checkFinalSort(t, "fuzz", n, ldq, qc, perm, sp, segs, true)
	})
}
