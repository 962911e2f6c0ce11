package bench

import (
	"fmt"
	"math"

	"tridiag/internal/core"
	"tridiag/internal/quark"
	"tridiag/internal/sched"
	"tridiag/internal/testmat"
	"tridiag/internal/trace"
)

// ---------------------------------------------------------------- Table I

// Table1Row reports, for one matrix size, the measured per-kernel-class busy
// time of a full task-flow solve.
type Table1Row struct {
	N         int
	ClassTime map[string]float64 // seconds per kernel class
}

// Table1 verifies the merge cost model of the paper's Table I: per-kernel
// wall time is measured across a size sweep and log-log slopes are fitted.
// Expected orders: UpdateVect ≈ n³ (slope 3), the secular/stabilization
// kernels ≈ n² (slope 2), Compute deflation ≈ n (slope ≈1).
func Table1(cfg *Config) ([]Table1Row, map[string]float64, error) {
	sizes := cfg.sizes([]int{250, 500, 1000, 2000})
	w := cfg.out()
	var rows []Table1Row
	for _, n := range sizes {
		m := rampMatrix(n)
		panel, minpart := dcOptions(n)
		g, _, _, err := capture(m, core.ModeTaskFlow, panel, minpart, measuredRuns)
		if err != nil {
			return nil, nil, err
		}
		ct := map[string]float64{}
		for _, t := range g.Tasks {
			ct[t.Class] += t.Duration().Seconds()
		}
		rows = append(rows, Table1Row{N: n, ClassTime: ct})
	}
	classes := []string{"ComputeDeflation", "PermuteV", "LAED4", "ComputeLocalW", "CopyBackDeflated", "ComputeVect", "UpdateVect"}
	fmt.Fprintf(w, "Table I: measured kernel time (ms) per size, low-deflation matrix\n")
	fmt.Fprintf(w, "%-18s", "kernel \\ n")
	for _, r := range rows {
		fmt.Fprintf(w, " %10d", r.N)
	}
	fmt.Fprintf(w, " %8s %s\n", "slope", "(paper's order)")
	model := map[string]string{
		"ComputeDeflation": "Θ(n)", "PermuteV": "Θ(n²)", "LAED4": "Θ(k²)",
		"ComputeLocalW": "Θ(k²)", "CopyBackDeflated": "Θ(n(n-k))",
		"ComputeVect": "Θ(k²)", "UpdateVect": "Θ(nk²)",
	}
	slopes := map[string]float64{}
	for _, c := range classes {
		fmt.Fprintf(w, "%-18s", c)
		for _, r := range rows {
			fmt.Fprintf(w, " %10.3f", 1000*r.ClassTime[c])
		}
		s := fitSlope(rows, c)
		slopes[c] = s
		fmt.Fprintf(w, " %8.2f %s\n", s, model[c])
	}
	return rows, slopes, nil
}

// rampMatrix is the low-deflation workhorse: (1,2,1) plus a diagonal ramp
// (dense z vectors, no degenerate symmetry).
func rampMatrix(n int) testmat.Matrix {
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2 + 0.001*float64(i)
	}
	for i := range e {
		e[i] = 1
	}
	return testmat.Matrix{Name: "ramp121", D: d, E: e}
}

// fitSlope least-squares fits log(time) against log(n) for one class.
func fitSlope(rows []Table1Row, class string) float64 {
	var xs, ys []float64
	for _, r := range rows {
		t := r.ClassTime[class]
		if t <= 0 {
			continue
		}
		xs = append(xs, math.Log(float64(r.N)))
		ys = append(ys, math.Log(t))
	}
	if len(xs) < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	nf := float64(len(xs))
	return (nf*sxy - sx*sy) / (nf*sxx - sx*sx)
}

// ---------------------------------------------------------------- Table III

// Table3Row characterizes one Table III matrix type.
type Table3Row struct {
	Type           int
	Name           string
	N              int
	DeflationRatio float64
	TimeDCms       float64
	TimeMRms       float64
}

// Table3 generates all fifteen Table III types, solves each with D&C and
// MRRR, and reports deflation ratios and solve times — the workload
// characterization behind the paper's experiments.
func Table3(cfg *Config) ([]Table3Row, error) {
	n := 500
	if s := cfg.sizes(nil); len(s) > 0 {
		n = s[0]
	} else if cfg.Quick {
		n = 250
	}
	w := cfg.out()
	fmt.Fprintf(w, "Table III matrix suite at n=%d (k=%.0e)\n", n, testmat.CondK)
	fmt.Fprintf(w, "%-5s %-22s %10s %12s %12s\n", "type", "name", "deflation", "t_DC (ms)", "t_MRRR (ms)")
	var rows []Table3Row
	for _, typ := range cfg.types([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}) {
		m, err := matrix(typ, n, cfg.seed())
		if err != nil {
			return nil, err
		}
		tDC, st, err := timeDC(m, 0)
		if err != nil {
			return nil, fmt.Errorf("type %d: DC: %w", typ, err)
		}
		tMR, err := timeMRRR(m, 0)
		if err != nil {
			return nil, fmt.Errorf("type %d: MRRR: %w", typ, err)
		}
		row := Table3Row{
			Type: typ, Name: m.Name, N: m.N(),
			DeflationRatio: st.TreeDeflationRatio(),
			TimeDCms:       tDC.Seconds() * 1000,
			TimeMRms:       tMR.Seconds() * 1000,
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-5d %-22s %9.1f%% %12.1f %12.1f\n",
			typ, m.Name, 100*row.DeflationRatio, row.TimeDCms, row.TimeMRms)
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig 3 & 4

// TraceResult is one simulated execution trace.
type TraceResult struct {
	Label     string
	Makespan  float64
	Idle      float64
	Speedup   float64 // vs the same graph on one worker
	Gantt     string
	Breakdown string
}

// Fig3 reproduces the optimization-level traces of Figure 3 on a
// low-deflation (type-4-like) matrix: (a) parallel GEMM only, (b) parallel
// merge kernels with a sequential algorithm skeleton, (c) the full task
// flow. P virtual workers (default 16) replay the measured task graph.
func Fig3(cfg *Config) ([]TraceResult, error) {
	n := 1500
	if s := cfg.sizes(nil); len(s) > 0 {
		n = s[0]
	} else if cfg.Quick {
		n = 600
	}
	workers := 16
	if len(cfg.Workers) > 0 {
		workers = cfg.Workers[len(cfg.Workers)-1]
	}
	typ := 4
	if ts := cfg.types(nil); len(ts) > 0 {
		typ = ts[0]
	}
	m, err := matrix(typ, n, cfg.seed())
	if err != nil {
		return nil, err
	}
	panel, minpart := dcOptions(n)
	g, _, _, err := capture(m, core.ModeTaskFlow, panel, minpart, measuredRuns)
	if err != nil {
		return nil, err
	}
	out := []TraceResult{}
	bw := cfg.bandwidth()
	for _, v := range []traceVariant{
		{"(a) parallel GEMM only (fork/join BLAS model)", sched.ForkJoinGraph(g, sched.ParallelBLASClasses)},
		{"(b) + parallel merge kernels", sched.ForkJoinGraph(g, sched.ParallelMergeClasses)},
		{"(c) + independent subproblems (full task flow)", g},
	} {
		r, err := simulate(v.graph, workers, bw)
		if err != nil {
			return nil, err
		}
		r1, err := simulate(v.graph, 1, bw)
		if err != nil {
			return nil, err
		}
		tl := trace.FromSimulation(v.graph, r, workers)
		tr := TraceResult{
			Label:     v.label,
			Makespan:  r.Makespan,
			Idle:      r.IdleFraction,
			Speedup:   r1.Makespan / r.Makespan,
			Gantt:     tl.Gantt(100),
			Breakdown: tl.BreakdownReport(),
		}
		out = append(out, tr)
		fmt.Fprintf(cfg.out(), "\n%s  [type %d, n=%d, P=%d simulated]\nmakespan %.4fs  speedup %.1fx  idle %.1f%%\n%s",
			v.label, typ, n, workers, tr.Makespan, tr.Speedup, 100*tr.Idle, tr.Gantt)
	}
	return out, nil
}

type traceVariant struct {
	label string
	graph *quark.Graph
}

// Fig4 is the Figure 4 trace: a near-total-deflation (type-5-like in the
// trace section: the paper uses its type 5 there) matrix under the full task
// flow, where permutation copies dominate and the bandwidth cap limits
// speedup.
func Fig4(cfg *Config) (*TraceResult, error) {
	n := 1500
	if s := cfg.sizes(nil); len(s) > 0 {
		n = s[0]
	} else if cfg.Quick {
		n = 600
	}
	workers := 16
	if len(cfg.Workers) > 0 {
		workers = cfg.Workers[len(cfg.Workers)-1]
	}
	typ := 1 // near-total deflation
	if ts := cfg.types(nil); len(ts) > 0 {
		typ = ts[0]
	}
	m, err := matrix(typ, n, cfg.seed())
	if err != nil {
		return nil, err
	}
	panel, minpart := dcOptions(n)
	g, _, _, err := capture(m, core.ModeTaskFlow, panel, minpart, measuredRuns)
	if err != nil {
		return nil, err
	}
	bw := cfg.bandwidth()
	r, err := simulate(g, workers, bw)
	if err != nil {
		return nil, err
	}
	r1, err := simulate(g, 1, bw)
	if err != nil {
		return nil, err
	}
	tl := trace.FromSimulation(g, r, workers)
	tr := &TraceResult{
		Label:     "full task flow, ~100% deflation",
		Makespan:  r.Makespan,
		Idle:      r.IdleFraction,
		Speedup:   r1.Makespan / r.Makespan,
		Gantt:     tl.Gantt(100),
		Breakdown: tl.BreakdownReport(),
	}
	fmt.Fprintf(cfg.out(), "\nFigure 4 [type %d, n=%d, P=%d simulated]\nmakespan %.4fs  speedup %.1fx  idle %.1f%%\n%s%s",
		typ, n, workers, tr.Makespan, tr.Speedup, 100*tr.Idle, tr.Gantt, tr.Breakdown)
	return tr, nil
}
