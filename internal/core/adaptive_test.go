package core

import (
	"math/rand"
	"testing"
)

func TestAdaptivePanelNBBounds(t *testing.T) {
	for _, tc := range []struct{ nm, workers int }{
		{10, 1}, {100, 1}, {2000, 1}, {2000, 4}, {2000, 8}, {50000, 8}, {64, 16},
	} {
		nb := adaptivePanelNB(tc.nm, tc.workers)
		if nb < 96 || nb > 128 {
			t.Errorf("adaptivePanelNB(%d,%d)=%d outside [96,128]", tc.nm, tc.workers, nb)
		}
	}
}

func TestSecularPanelNBCoversK(t *testing.T) {
	for _, tc := range []struct{ nm, k, workers int }{
		{2000, 2000, 4}, {2000, 1500, 8}, {2000, 37, 4}, {500, 1, 2}, {4096, 4096, 1},
	} {
		subNB := adaptivePanelNB(tc.nm, tc.workers)
		npanels := (tc.nm + subNB - 1) / subNB
		nb := secularPanelNB(tc.k, npanels, tc.workers)
		if nb*npanels < tc.k {
			t.Errorf("nm=%d k=%d W=%d: nbSec=%d × %d panels < k", tc.nm, tc.k, tc.workers, nb, npanels)
		}
	}
	if nb := secularPanelNB(0, 4, 4); nb != 0 {
		t.Errorf("secularPanelNB(0,...)=%d, want 0", nb)
	}
	// Large post-deflation k must trigger the cache cap: a 2000-row panel is
	// capped near 2MiB/(8·2000) = 131 columns even on one worker, where the
	// parallelism target alone would ask for 500-wide panels.
	if nb := secularPanelNB(2000, 16, 1); nb > 160 {
		t.Errorf("secularPanelNB(2000,16,1)=%d, want cache-capped (<=160)", nb)
	}
}

// TestSolveDCAdaptivePanels solves with PanelSize=0 (adaptive) and checks
// accuracy plus that every merge recorded a positive chosen nb.
func TestSolveDCAdaptivePanels(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 400
	d0, e0 := randTridiag(rng, n)
	for _, workers := range []int{1, 4} {
		d := append([]float64(nil), d0...)
		e := append([]float64(nil), e0...)
		q := make([]float64, n*n)
		res, err := SolveDC(n, d, e, q, n, &Options{Workers: workers, MinPartition: 40})
		if err != nil {
			t.Fatal(err)
		}
		rres, orth := residualAndOrth(n, d0, e0, d, q, n)
		if rres > 1e-12 || orth > 1e-13 {
			t.Errorf("W=%d adaptive accuracy: res=%v orth=%v", workers, rres, orth)
		}
		if len(res.Stats.Merges) == 0 {
			t.Fatalf("W=%d: no merges recorded", workers)
		}
		for _, m := range res.Stats.Merges {
			if m.K > 0 && m.NB <= 0 {
				t.Errorf("W=%d merge (lvl=%d n=%d k=%d): adaptive NB=%d not recorded", workers, m.Level, m.N, m.K, m.NB)
			}
		}
	}
}

// TestSolveDCTaskTimes checks that the per-task-kind wall-time observer
// records time for the kernel classes a task-flow solve must execute.
func TestSolveDCTaskTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 300
	d0, e0 := randTridiag(rng, n)
	d := append([]float64(nil), d0...)
	e := append([]float64(nil), e0...)
	q := make([]float64, n*n)
	res, err := SolveDC(n, d, e, q, n, &Options{Workers: 2, MinPartition: 32, PanelSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	times := res.Stats.TaskTimes()
	for _, class := range []string{"STEDC", "ComputeDeflation", "LAED4", "UpdateVect"} {
		if times[class] <= 0 {
			t.Errorf("TaskTimes[%q]=%v, want > 0 (got %v)", class, times[class], times)
		}
	}
}

// TestTaskOpsMatchGraph checks the per-task operation counts a captured
// solve records for the replay simulator: every label is a task of the
// captured graph, and per class the counts add up to Stats.Ops. Solves
// without graph capture record none.
func TestTaskOpsMatchGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 300
	d0, e0 := randTridiag(rng, n)
	for _, vo := range []bool{false, true} {
		d := append([]float64(nil), d0...)
		e := append([]float64(nil), e0...)
		var q []float64
		ldq := 0
		if !vo {
			q, ldq = make([]float64, n*n), n
		}
		res, err := SolveDC(n, d, e, q, ldq, &Options{Workers: 2, MinPartition: 32, CaptureGraph: true, ValuesOnly: vo})
		if err != nil {
			t.Fatal(err)
		}
		classOf := make(map[string]string, len(res.Graph.Tasks))
		for _, ti := range res.Graph.Tasks {
			classOf[ti.Label] = ti.Class
		}
		sum := map[string]int64{}
		for label, ops := range res.Stats.TaskOps {
			c, ok := classOf[label]
			if !ok {
				t.Errorf("values-only=%v: TaskOps label %q is not a task of the graph", vo, label)
			}
			sum[c] += ops
		}
		for _, c := range classOf {
			if sum[c] != res.Stats.Ops[c] {
				t.Errorf("values-only=%v: %s tasks sum to %d ops, Stats.Ops has %d", vo, c, sum[c], res.Stats.Ops[c])
			}
		}
		if sum["LAED4"] == 0 {
			t.Errorf("values-only=%v: no LAED4 task ops recorded", vo)
		}
	}
	d := append([]float64(nil), d0...)
	e := append([]float64(nil), e0...)
	res, err := SolveDC(n, d, e, make([]float64, n*n), n, &Options{Workers: 2, MinPartition: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TaskOps != nil {
		t.Errorf("TaskOps recorded without graph capture: %d entries", len(res.Stats.TaskOps))
	}
}
