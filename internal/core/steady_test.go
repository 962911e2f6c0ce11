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
// slowdown bug: the merge kernels (full-column deflation rotations and
// deflated-column copies) require the structurally-zero off-block regions
// of q to hold exact zeros. A fresh Go allocation provided them for free;
// a reused workspace carried the previous solve's eigenvectors there,
// silently corrupting results AND collapsing deflation (the ~2.5× "GC
// pressure" slowdown). The leaf tasks now establish the zeros, so a solve
// into a dirty q — here poisoned with NaN, which propagates loudly through
// any stale read — must produce bit-identical results to a fresh one.
func TestSolveDCReusedWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 300
	d0, e0 := randTridiag(rng, n)
	for _, tc := range []struct {
		name string
		opts *Options
	}{
		{"taskflow-w4", &Options{Workers: 4}},
		{"sequential", &Options{Mode: ModeSequential}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			solve := func(q []float64) ([]float64, int64) {
				d := append([]float64(nil), d0...)
				e := append([]float64(nil), e0...)
				res, err := SolveDC(n, d, e, q, n, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				var ops int64
				if res.Stats != nil {
					ops = res.Stats.Ops["UpdateVect"]
				}
				return d, ops
			}

			qFresh := make([]float64, n*n)
			dFresh, opsFresh := solve(qFresh)

			qDirty := make([]float64, n*n)
			for i := range qDirty {
				qDirty[i] = math.NaN()
			}
			dDirty, opsDirty := solve(qDirty)

			for i := range dFresh {
				if dFresh[i] != dDirty[i] {
					t.Fatalf("eigenvalue %d differs with reused q: %v vs %v", i, dFresh[i], dDirty[i])
				}
			}
			for i := range qFresh {
				if qFresh[i] != qDirty[i] {
					t.Fatalf("eigenvector entry %d differs with reused q: %v vs %v (stale contents leaked)", i, qFresh[i], qDirty[i])
				}
			}
			if opsFresh != opsDirty {
				t.Fatalf("UpdateVect ops differ with reused q: %d vs %d (deflation collapsed)", opsFresh, opsDirty)
			}
			nrm := lapack.Dlanst('M', n, d0, e0)
			res, _ := residualAndOrth(n, d0, e0, dDirty, qDirty, n)
			if res/(nrm*float64(n)) > 200*lapack.Eps {
				t.Fatalf("residual with reused q: %.3e", res/(nrm*float64(n)))
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

			// Heap: after the retention caps, repeated solves must not grow
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
