package sched

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"tridiag/internal/quark"
)

// buildGraph constructs a synthetic captured graph: durs in seconds, edges as
// pairs. Workers/timings are synthesized as if measured.
func buildGraph(durs []float64, edges [][2]int) *quark.Graph {
	g := &quark.Graph{}
	for i, d := range durs {
		g.Tasks = append(g.Tasks, quark.TaskInfo{
			ID: i, Class: "K", Label: "t", Worker: 0,
			Start: 0, End: time.Duration(d * float64(time.Second)),
		})
	}
	g.Edges = edges
	return g
}

func TestSimulateChain(t *testing.T) {
	// A pure chain cannot be parallelized.
	g := buildGraph([]float64{1, 2, 3}, [][2]int{{0, 1}, {1, 2}})
	for _, p := range []int{1, 4} {
		r, err := Simulate(g, Config{Workers: p})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Makespan-6) > 1e-9 {
			t.Errorf("P=%d chain makespan %v, want 6", p, r.Makespan)
		}
	}
}

func TestSimulateIndependent(t *testing.T) {
	g := buildGraph([]float64{1, 1, 1, 1}, nil)
	r1, _ := Simulate(g, Config{Workers: 1})
	r2, _ := Simulate(g, Config{Workers: 2})
	r4, _ := Simulate(g, Config{Workers: 4})
	if math.Abs(r1.Makespan-4) > 1e-9 || math.Abs(r2.Makespan-2) > 1e-9 || math.Abs(r4.Makespan-1) > 1e-9 {
		t.Errorf("independent: %v %v %v", r1.Makespan, r2.Makespan, r4.Makespan)
	}
	if s := r4.Speedup(); math.Abs(s-4) > 1e-9 {
		t.Errorf("speedup %v", s)
	}
	if r4.IdleFraction > 1e-9 {
		t.Errorf("idle %v", r4.IdleFraction)
	}
}

func TestSimulateForkJoin(t *testing.T) {
	// 0 -> {1,2,3} -> 4
	g := buildGraph([]float64{1, 2, 2, 2, 1},
		[][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 4}, {3, 4}})
	r, err := Simulate(g, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Makespan-4) > 1e-9 {
		t.Errorf("fork-join makespan %v, want 4", r.Makespan)
	}
	r2, _ := Simulate(g, Config{Workers: 2})
	if math.Abs(r2.Makespan-6) > 1e-9 {
		t.Errorf("fork-join P=2 makespan %v, want 6", r2.Makespan)
	}
}

func TestSimulateBandwidthCap(t *testing.T) {
	g := &quark.Graph{}
	for i := 0; i < 8; i++ {
		g.Tasks = append(g.Tasks, quark.TaskInfo{
			ID: i, Class: "PermuteV", Worker: 0, Start: 0, End: time.Second,
		})
	}
	// Without a cap, 8 workers finish in 1s; with 4 streams, aggregate rate
	// is 4 tasks/s -> 8 task-seconds take 2s.
	r, err := Simulate(g, Config{Workers: 8, BandwidthStreams: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Makespan-2) > 1e-6 {
		t.Errorf("bandwidth-capped makespan %v, want 2", r.Makespan)
	}
	rU, _ := Simulate(g, Config{Workers: 8})
	if math.Abs(rU.Makespan-1) > 1e-9 {
		t.Errorf("uncapped makespan %v, want 1", rU.Makespan)
	}
	// Compute-bound classes are unaffected by the cap.
	for i := range g.Tasks {
		g.Tasks[i].Class = "UpdateVect"
	}
	rC, _ := Simulate(g, Config{Workers: 8, BandwidthStreams: 4})
	if math.Abs(rC.Makespan-1) > 1e-9 {
		t.Errorf("compute-bound capped makespan %v, want 1", rC.Makespan)
	}
}

func TestSimulateGrahamBound(t *testing.T) {
	// Greedy list scheduling satisfies makespan <= T1/P + T_inf and
	// makespan >= max(T1/P, T_inf) on arbitrary DAGs.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(80)
		durs := make([]float64, n)
		for i := range durs {
			durs[i] = 0.01 + rng.Float64()
		}
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.08 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		g := buildGraph(durs, edges)
		cp, _ := g.CriticalPath()
		for _, p := range []int{1, 2, 4, 16} {
			r, err := Simulate(g, Config{Workers: p})
			if err != nil {
				t.Fatal(err)
			}
			lower := math.Max(r.TotalWork/float64(p), cp)
			upper := r.TotalWork/float64(p) + cp
			if r.Makespan < lower-1e-9 || r.Makespan > upper+1e-9 {
				t.Fatalf("trial %d P=%d: makespan %v outside [%v, %v]", trial, p, r.Makespan, lower, upper)
			}
			if p == 1 && math.Abs(r.Makespan-r.TotalWork) > 1e-9 {
				t.Fatalf("P=1 must serialize: %v vs %v", r.Makespan, r.TotalWork)
			}
		}
	}
}

func TestSimulateSpansConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 50
	durs := make([]float64, n)
	for i := range durs {
		durs[i] = 0.01 + rng.Float64()
	}
	var edges [][2]int
	for i := 0; i < n-1; i++ {
		if rng.Float64() < 0.5 {
			edges = append(edges, [2]int{i, i + 1 + rng.Intn(n-i-1)})
		}
	}
	g := buildGraph(durs, edges)
	r, err := Simulate(g, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Spans) != n {
		t.Fatalf("%d spans for %d tasks", len(r.Spans), n)
	}
	// No worker overlap; all edges respected.
	end := map[int]float64{}
	byWorker := map[int][]Span{}
	for _, s := range r.Spans {
		end[s.Task] = s.End
		byWorker[s.Worker] = append(byWorker[s.Worker], s)
	}
	start := map[int]float64{}
	for _, s := range r.Spans {
		start[s.Task] = s.Start
	}
	for _, e := range edges {
		if start[e[1]] < end[e[0]]-1e-9 {
			t.Fatalf("edge %v violated in simulation", e)
		}
	}
	for w, spans := range byWorker {
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				if a.Start < b.End-1e-9 && b.Start < a.End-1e-9 {
					t.Fatalf("worker %d runs tasks %d and %d simultaneously", w, a.Task, b.Task)
				}
			}
		}
	}
}

func TestSimulatePriorityOrder(t *testing.T) {
	// Four independent unit tasks on one worker: the high-priority ones must
	// run first regardless of submission order, with FIFO tie-break within a
	// priority level.
	g := buildGraph([]float64{1, 1, 1, 1}, nil)
	g.Tasks[1].Priority = 5
	g.Tasks[3].Priority = 5
	r, err := Simulate(g, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, 0, 4)
	for _, s := range r.Spans {
		order = append(order, s.Task)
	}
	want := []int{1, 3, 0, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

func TestSimulatePriorityShortensCriticalPath(t *testing.T) {
	// Task 0 heads a long chain (0->2->3) competing with a short independent
	// task 1 for a single free slot at t=0 on 2 workers, alongside filler
	// task 4. Prioritizing the chain head gives makespan 3; running it late
	// gives 4. The simulator must honour the captured priorities.
	durs := []float64{1, 1, 1, 1, 2}
	edges := [][2]int{{0, 2}, {2, 3}}
	hi := buildGraph(durs, edges)
	hi.Tasks[0].Priority = 10
	r, err := Simulate(hi, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Makespan-3) > 1e-9 {
		t.Errorf("prioritized chain makespan %v, want 3", r.Makespan)
	}
	lo := buildGraph(durs, edges)
	lo.Tasks[1].Priority = 10
	lo.Tasks[4].Priority = 10
	r2, err := Simulate(lo, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r2.Makespan-4) > 1e-9 {
		t.Errorf("deprioritized chain makespan %v, want 4", r2.Makespan)
	}
}

func TestSimulateWorkConserving(t *testing.T) {
	// One root fans out to 8 equal children. A scheduler that let a free
	// worker idle while tasks were ready would serialize some of them; on 4
	// workers the children must spread out: 1 + 2 = 3.
	durs := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}
	var edges [][2]int
	for c := 1; c < 9; c++ {
		edges = append(edges, [2]int{0, c})
	}
	g := buildGraph(durs, edges)
	r, err := Simulate(g, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Makespan-3) > 1e-9 {
		t.Errorf("fan-out makespan %v, want 3 (a free worker idled?)", r.Makespan)
	}
	workers := map[int]bool{}
	for _, s := range r.Spans {
		if s.Task != 0 {
			workers[s.Worker] = true
		}
	}
	if len(workers) != 4 {
		t.Errorf("children ran on %d workers, want all 4", len(workers))
	}
}

func TestSimulateGlobalPriorityAcrossWorkers(t *testing.T) {
	// Two workers finish t0 and t1 together at t=1. Task a (priority 0)
	// follows t0; b (8) and the chain head c (5) follow t1; d (5) follows c.
	// From one heap the free workers take b and c, so the chain finishes at
	// 4. Queuing successors on their completer's worker would run a there
	// ahead of c, which waits behind b until t=2: makespan 5.
	durs := []float64{1, 1, 1, 2, 1, 2}
	const a, b, c, d = 2, 3, 4, 5
	g := buildGraph(durs, [][2]int{{0, a}, {1, b}, {1, c}, {c, d}})
	for id, p := range map[int]int{0: 9, 1: 9, b: 8, c: 5, d: 5} {
		g.Tasks[id].Priority = p
	}
	r, err := Simulate(g, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	start := map[int]float64{}
	for _, s := range r.Spans {
		start[s.Task] = s.Start
	}
	if start[c] != 1 || start[d] != 2 || start[a] != 3 {
		t.Errorf("starts a=%v c=%v d=%v, want 3, 1, 2", start[a], start[c], start[d])
	}
	if math.Abs(r.Makespan-4) > 1e-9 {
		t.Errorf("makespan %v, want 4", r.Makespan)
	}
}

func TestSimulateErrors(t *testing.T) {
	g := buildGraph([]float64{1}, nil)
	if _, err := Simulate(g, Config{Workers: 0}); err == nil {
		t.Error("workers=0 must error")
	}
	g.Tasks[0].Worker = -1
	if _, err := Simulate(g, Config{Workers: 1}); err == nil {
		t.Error("unexecuted task must error")
	}
}

func TestSpeedupCurveMonotoneWork(t *testing.T) {
	g := buildGraph([]float64{1, 1, 1, 1, 1, 1, 1, 1}, nil)
	curve, err := SpeedupCurve(g, []int{1, 2, 4, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 4, 8}
	for i := range curve {
		if math.Abs(curve[i]-want[i]) > 1e-9 {
			t.Errorf("curve[%d]=%v want %v", i, curve[i], want[i])
		}
	}
}

func TestForkJoinGraphSerializesChain(t *testing.T) {
	// three serial tasks with two parallel tasks between them
	g := &quark.Graph{}
	add := func(id int, class string, dur float64) {
		g.Tasks = append(g.Tasks, quark.TaskInfo{
			ID: id, Class: class, Worker: 0,
			End: time.Duration(dur * float64(time.Second)),
		})
	}
	add(0, "S", 1)
	add(1, "GEMM", 2)
	add(2, "GEMM", 2)
	add(3, "S", 1)
	fj := ForkJoinGraph(g, map[string]bool{"GEMM": true})
	r, err := Simulate(fj, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// serial(1) -> parallel(2,2 overlap) -> serial(1) = 4s
	if math.Abs(r.Makespan-4) > 1e-9 {
		t.Errorf("fork/join makespan %v, want 4", r.Makespan)
	}
	// without the transform everything is independent: 2s on 4 workers
	r0, _ := Simulate(g, Config{Workers: 4})
	if math.Abs(r0.Makespan-2) > 1e-9 {
		t.Errorf("untransformed makespan %v, want 2", r0.Makespan)
	}
	// original edges must be retained
	g.Edges = [][2]int{{1, 2}}
	fj2 := ForkJoinGraph(g, map[string]bool{"GEMM": true})
	found := false
	for _, e := range fj2.Edges {
		if e == [2]int{1, 2} {
			found = true
		}
	}
	if !found {
		t.Error("original edge dropped by transform")
	}
}
