package core

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"tridiag/internal/lapack"
)

// TestSolveDCReusedWorkspace is the regression test for the in-process
// slowdown bug, where a reused workspace carried the previous solve's
// eigenvectors into the structurally-zero rows the merge kernels read,
// silently corrupting results AND collapsing deflation. The kernels now
// read only each column's valid row span (lapack.Span) and the closing
// sort writes every entry, so a solve into a dirty q — here poisoned with
// NaN, which propagates loudly through any stale read — must give λ, V and
// operation counts bit-identical to a solve into a zeroed q. The matrices
// cover the paths that move spans: glued W21 (close-pair rotations and
// about 80% deflation), perturbed Legendre (almost none) and a random one,
// in every execution mode.
func TestSolveDCReusedWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type matrix struct {
		name string
		d, e []float64
	}
	var mats []matrix
	for _, m := range []struct {
		name string
		gen  func(*rand.Rand, int) ([]float64, []float64)
	}{{"random", randTridiag}, {"glued-w21", gluedW21}, {"legendre", perturbedLegendre}} {
		d, e := m.gen(rng, 300)
		mats = append(mats, matrix{m.name, d, e})
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"taskflow-w1", Options{Workers: 1}},
		{"taskflow-w2", Options{Workers: 2}},
		{"taskflow-w4", Options{Workers: 4}},
		{"levelsync", Options{Workers: 2, Mode: ModeLevelSync}},
		{"scalapack", Options{Workers: 2, Mode: ModeScaLAPACK}},
		{"forkjoin", Options{Workers: 2, Mode: ModeForkJoin}},
		{"sequential", Options{Mode: ModeSequential}},
		{"panel-37", Options{Workers: 2, PanelSize: 37}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range mats {
				n := len(m.d)
				solve := func(q []float64) ([]float64, map[string]int64) {
					d := append([]float64(nil), m.d...)
					e := append([]float64(nil), m.e...)
					opts := tc.opts
					res, err := SolveDC(n, d, e, q, n, &opts)
					if err != nil {
						t.Fatalf("%s: %v", m.name, err)
					}
					return d, res.Stats.Ops
				}

				qFresh := make([]float64, n*n)
				dFresh, opsFresh := solve(qFresh)

				qDirty := make([]float64, n*n)
				for i := range qDirty {
					qDirty[i] = math.NaN()
				}
				dDirty, opsDirty := solve(qDirty)

				if !sameBits(dFresh, dDirty) {
					t.Fatalf("%s: eigenvalues differ with reused q", m.name)
				}
				for i := range qFresh {
					if math.Float64bits(qFresh[i]) != math.Float64bits(qDirty[i]) {
						t.Fatalf("%s: eigenvector entry %d differs with reused q: %v vs %v (stale contents leaked)", m.name, i, qFresh[i], qDirty[i])
					}
				}
				if len(opsFresh) != len(opsDirty) {
					t.Fatalf("%s: op classes differ with reused q: %v vs %v", m.name, opsFresh, opsDirty)
				}
				for c, v := range opsFresh {
					if opsDirty[c] != v {
						t.Fatalf("%s: %s ops differ with reused q: %d vs %d (deflation collapsed)", m.name, c, v, opsDirty[c])
					}
				}
				nrm := lapack.Dlanst('M', n, m.d, m.e)
				res, _ := residualAndOrth(n, m.d, m.e, dDirty, qDirty, n)
				if res/(nrm*float64(n)) > 200*lapack.Eps {
					t.Fatalf("%s: residual with reused q: %.3e", m.name, res/(nrm*float64(n)))
				}
			}
		})
	}
}

// TestSolveDCSteadyState runs many sequential solves in one process on a
// reused workspace — the long-running-caller pattern that exposed the
// slowdown — and asserts steady state: constant per-solve work, a bounded
// wall-time ratio between the last half and the first quarter, and bounded
// heap growth.
func TestSolveDCSteadyState(t *testing.T) {
	reps := 20
	if testing.Short() {
		reps = 8
	}
	n := 1000
	rng := rand.New(rand.NewSource(7))
	d0, e0 := randTridiag(rng, n)

	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "w1", 4: "w4"}[workers], func(t *testing.T) {
			q := make([]float64, n*n) // reused across all reps, never cleared
			d := make([]float64, n)
			e := make([]float64, n-1)

			var baseHeap uint64
			times := make([]time.Duration, 0, reps)
			var ops0 int64
			for rep := 0; rep < reps; rep++ {
				copy(d, d0)
				copy(e, e0)
				start := time.Now()
				res, err := SolveDC(n, d, e, q, n, &Options{Workers: workers})
				el := time.Since(start)
				if err != nil {
					t.Fatalf("rep %d: %v", rep, err)
				}
				times = append(times, el)
				ops := res.Stats.Ops["UpdateVect"]
				if rep == 0 {
					ops0 = ops
				} else if ops != ops0 {
					t.Fatalf("rep %d: UpdateVect ops %d != rep 0's %d (per-solve work not steady)", rep, ops, ops0)
				}
				if rep == 1 {
					baseHeap = forcedHeapAlloc()
				}
			}

			// Wall-clock: the bug showed 3-8× degradation; the shared VM is
			// noisy, so the tolerance is loose but still far below the bug.
			first := median(times[:max(reps/4, 2)])
			last := median(times[reps/2:])
			if ratio := float64(last) / float64(first); ratio > 2.5 {
				t.Errorf("steady-state slowdown: last-half median %v vs first-quarter %v (%.2fx)", last, first, ratio)
			}

			// Heap: under the pool's retain limit, repeated solves must not grow
			// the live set (64 MiB slack for allocator/GC jitter).
			endHeap := forcedHeapAlloc()
			if endHeap > baseHeap+64<<20 {
				t.Errorf("heap grew across solves: %d -> %d bytes", baseHeap, endHeap)
			}
		})
	}
}

func forcedHeapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(ts []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ts...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
