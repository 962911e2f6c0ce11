package main

import (
	"math/rand"
	"strings"
	"testing"

	"tridiag/internal/core"
	"tridiag/internal/sched"
	"tridiag/internal/trace"
)

// vectorClasses are the task classes that must never appear in a values-only
// DAG: they exist only to move or accumulate eigenvector columns.
var vectorClasses = []string{
	"LASET", "SortEigenvectors", "PermuteV", "CopyBackDeflated",
	"ComputeVect", "PackV", "UpdateVect",
}

func randomTridiag(n int, seed int64) (d, e []float64) {
	rng := rand.New(rand.NewSource(seed))
	d = make([]float64, n)
	e = make([]float64, n-1)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	for i := range e {
		e[i] = rng.NormFloat64()
	}
	return d, e
}

// TestValuesOnlyTrace is the dctrace regression for the eigenvalue-only
// lane: the captured graph must contain no eigenvector task classes, must
// still carry the eigenvalue pipeline (leaves, deflation, secular solves,
// the carrier UpdateZ and final SortEigenvalues stages), and must replay
// through the schedule simulator and timeline renderer exactly like a full
// graph does.
func TestValuesOnlyTrace(t *testing.T) {
	n := 600
	d, e := randomTridiag(n, 7)
	res, err := core.SolveDC(n, d, e, nil, 0, &core.Options{
		Workers: 1, CaptureGraph: true, ValuesOnly: true,
		PanelSize: max(16, n/16), MinPartition: max(32, n/16),
	})
	if err != nil {
		t.Fatalf("values-only capture solve: %v", err)
	}
	if res.Graph == nil {
		t.Fatal("CaptureGraph produced no graph")
	}

	counts := res.Graph.ClassCounts()
	for _, c := range vectorClasses {
		if counts[c] > 0 {
			t.Errorf("values-only graph contains %d %s tasks; want none", counts[c], c)
		}
	}
	for _, c := range []string{"STEDC", "ComputeDeflation", "LAED4", "UpdateZ", "SortEigenvalues"} {
		if counts[c] == 0 {
			t.Errorf("values-only graph missing task class %s", c)
		}
	}

	// The replay pipeline dctrace runs: simulate on P virtual workers, then
	// render the gantt and breakdown. A graph the simulator rejects or the
	// renderer draws empty would make the tool useless on VO traces.
	r, err := sched.Simulate(res.Graph, sched.Config{Workers: 8, StreamsPerSocket: 4, WorkersPerSocket: 8})
	if err != nil {
		t.Fatalf("simulating values-only graph: %v", err)
	}
	tl := trace.FromSimulation(res.Graph, r, 8)
	gantt := tl.Gantt(100)
	if strings.TrimSpace(gantt) == "" {
		t.Error("empty gantt for values-only graph")
	}
	if rep := tl.BreakdownReport(); strings.TrimSpace(rep) == "" {
		t.Error("empty breakdown report for values-only graph")
	}

	// The secular report has one row per merge level, each with at least
	// one evaluation per root.
	levels := map[int]bool{}
	for _, m := range res.Stats.Merges {
		if m.K > 0 {
			levels[m.Level] = true
		}
		if m.K > 2 {
			if m.Evals < int64(m.K) {
				t.Errorf("merge at level %d: %d secular evaluations for %d roots", m.Level, m.Evals, m.K)
			}
		}
	}
	if rows := strings.Count(secularReport(res.Stats), "\n") - 2; rows != len(levels) {
		t.Errorf("secular report has %d level rows, want %d:\n%s", rows, len(levels), secularReport(res.Stats))
	}

	// The per-class wall-time report must total only eigenvalue-side kernels.
	report, csvLine := taskTimeReport(res.Stats.TaskTimes())
	if report == "" || csvLine == "" {
		t.Fatal("empty task-time report for values-only run")
	}
	for _, c := range vectorClasses {
		if strings.Contains(report, c) || strings.Contains(csvLine, c) {
			t.Errorf("task-time report mentions eigenvector class %s:\n%s", c, report)
		}
	}
}
