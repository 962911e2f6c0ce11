package bench

import (
	"fmt"
	"math/rand"

	"tridiag/internal/core"
	"tridiag/internal/quark"
	"tridiag/internal/sched"
	"tridiag/internal/testmat"
)

// ---------------------------------------------------------------- Fig 5

// SpeedupRow is the simulated scalability curve for one matrix type.
type SpeedupRow struct {
	Type      int
	Deflation float64
	Workers   []int
	Speedup   []float64
}

// Fig5 reproduces the scalability study of Figure 5: speedup of the
// task-flow solver from 1 to 16 workers for the three deflation regimes
// (paper types 2 ≈100%, 3 ≈50%, 4 ≈20% deflation). Speedups come from the
// replay simulator with the bandwidth cap on memory-bound kernels, which
// produces the paper's plateau for the high-deflation (memory-bound) case.
// The replayed task costs are the tasks' operation counts (opCosts), not
// their measured times, so the curves do not move with host load.
func Fig5(cfg *Config) ([]SpeedupRow, error) {
	n := 1500
	if s := cfg.sizes(nil); len(s) > 0 {
		n = s[0]
	} else if cfg.Quick {
		n = 600
	}
	workers := cfg.Workers
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8, 12, 16}
	}
	w := cfg.out()
	var rows []SpeedupRow
	fmt.Fprintf(w, "Figure 5: simulated speedup vs workers (n=%d, op-count task costs, bandwidth cap %.0f streams)\n", n, cfg.bandwidth())
	fmt.Fprintf(w, "%-6s %10s", "type", "deflation")
	for _, p := range workers {
		fmt.Fprintf(w, " %7s", fmt.Sprintf("P=%d", p))
	}
	fmt.Fprintln(w)
	for _, typ := range cfg.types([]int{2, 3, 4}) {
		m, err := matrix(typ, n, cfg.seed())
		if err != nil {
			return nil, err
		}
		panel, minpart := dcOptions(n)
		g, st, _, err := capture(m, core.ModeTaskFlow, panel, minpart, 1)
		if err != nil {
			return nil, err
		}
		opCosts(g, st)
		curve, err := sched.SpeedupCurve(g, workers, cfg.bandwidth())
		if err != nil {
			return nil, err
		}
		row := SpeedupRow{Type: typ, Deflation: st.TreeDeflationRatio(), Workers: workers, Speedup: curve}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-6d %9.1f%%", typ, 100*row.Deflation)
		for _, s := range curve {
			fmt.Fprintf(w, " %7.2f", s)
		}
		fmt.Fprintln(w)
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig 6 & 7

// RatioRow is one speedup-over-baseline measurement.
type RatioRow struct {
	Type      int
	N         int
	Deflation float64
	Ratio     float64 // t_baseline / t_taskflow (>1: task flow wins)
}

// Fig6 reproduces Figure 6: speedup of the task-flow solver over the
// fork/join model of LAPACK DSTEDC on a multithreaded BLAS. Both run the
// same measured task graph on P simulated workers; only the dependency
// structure differs.
func Fig6(cfg *Config) ([]RatioRow, error) {
	return figRatio(cfg, "Figure 6: t_MKL-LAPACK-model / t_task-flow (P=%d simulated)",
		func(g *quark.Graph) *quark.Graph { return sched.ForkJoinGraph(g, sched.ParallelBLASClasses) })
}

// Fig7 reproduces Figure 7: speedup over the level-synchronous execution of
// ScaLAPACK's PDSTEDC (parallel subproblems and parallel merge kernels, but
// a barrier between tree levels).
func Fig7(cfg *Config) ([]RatioRow, error) {
	return figRatioModes(cfg, "Figure 7: t_ScaLAPACK-model / t_task-flow (P=%d simulated)")
}

func figRatio(cfg *Config, header string, transform func(*quark.Graph) *quark.Graph) ([]RatioRow, error) {
	sizes := cfg.sizes([]int{500, 1000, 1500, 2000})
	workers := 16
	if len(cfg.Workers) > 0 {
		workers = cfg.Workers[len(cfg.Workers)-1]
	}
	w := cfg.out()
	fmt.Fprintf(w, header+"\n", workers)
	fmt.Fprintf(w, "%-6s %8s %10s %10s\n", "type", "n", "deflation", "ratio")
	var rows []RatioRow
	for _, typ := range cfg.types([]int{2, 3, 4}) {
		for _, n := range sizes {
			m, err := matrix(typ, n, cfg.seed())
			if err != nil {
				return nil, err
			}
			panel, minpart := dcOptions(n)
			g, st, _, err := capture(m, core.ModeTaskFlow, panel, minpart, measuredRuns)
			if err != nil {
				return nil, err
			}
			base, err := simulate(transform(g), workers, cfg.bandwidth())
			if err != nil {
				return nil, err
			}
			tf, err := simulate(g, workers, cfg.bandwidth())
			if err != nil {
				return nil, err
			}
			row := RatioRow{Type: typ, N: n, Deflation: st.TreeDeflationRatio(), Ratio: base.Makespan / tf.Makespan}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-6d %8d %9.1f%% %10.2f\n", typ, n, 100*row.Deflation, row.Ratio)
		}
	}
	return rows, nil
}

// figRatioModes compares the task-flow capture against a level-synchronous
// capture of the same problem (real barrier tasks in the graph).
func figRatioModes(cfg *Config, header string) ([]RatioRow, error) {
	sizes := cfg.sizes([]int{500, 1000, 1500, 2000})
	workers := 16
	if len(cfg.Workers) > 0 {
		workers = cfg.Workers[len(cfg.Workers)-1]
	}
	w := cfg.out()
	fmt.Fprintf(w, header+"\n", workers)
	fmt.Fprintf(w, "%-6s %8s %10s %10s\n", "type", "n", "deflation", "ratio")
	var rows []RatioRow
	for _, typ := range cfg.types([]int{2, 3, 4}) {
		for _, n := range sizes {
			m, err := matrix(typ, n, cfg.seed())
			if err != nil {
				return nil, err
			}
			panel, minpart := dcOptions(n)
			gTF, st, _, err := capture(m, core.ModeTaskFlow, panel, minpart, measuredRuns)
			if err != nil {
				return nil, err
			}
			gLS, _, _, err := capture(m, core.ModeScaLAPACK, panel, minpart, measuredRuns)
			if err != nil {
				return nil, err
			}
			// Both schedules must replay the SAME measured durations; the
			// level-sync capture is a separate (cache-warm) run, so copy the
			// task-flow run's timings onto it by task identity.
			alignDurations(gLS, gTF)
			base, err := simulate(gLS, workers, cfg.bandwidth())
			if err != nil {
				return nil, err
			}
			tf, err := simulate(gTF, workers, cfg.bandwidth())
			if err != nil {
				return nil, err
			}
			row := RatioRow{Type: typ, N: n, Deflation: st.TreeDeflationRatio(), Ratio: base.Makespan / tf.Makespan}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-6d %8d %9.1f%% %10.2f\n", typ, n, 100*row.Deflation, row.Ratio)
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig 8

// Fig8Row compares the MRRR and D&C wall times for one matrix.
type Fig8Row struct {
	Type    int
	N       int
	TimeDC  float64 // seconds, measured
	TimeMR  float64
	RatioMR float64 // t_MRRR / t_DC (>1: D&C faster)
}

// Fig8 reproduces Figure 8: time(MR³)/time(D&C) across all fifteen Table III
// types and a size sweep. Wall times are measured on this host (both solvers
// with the same worker budget); the matrix-dependent crossover is the shape
// under test.
func Fig8(cfg *Config) ([]Fig8Row, error) {
	sizes := cfg.sizes([]int{400, 800})
	w := cfg.out()
	fmt.Fprintf(w, "Figure 8: t_MRRR / t_DC, measured wall time\n")
	fmt.Fprintf(w, "%-6s %8s %12s %12s %10s\n", "type", "n", "t_DC (ms)", "t_MRRR (ms)", "ratio")
	var rows []Fig8Row
	for _, typ := range cfg.types([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}) {
		for _, n := range sizes {
			m, err := matrix(typ, n, cfg.seed())
			if err != nil {
				return nil, err
			}
			tDC, _, err := timeDC(m, 0)
			if err != nil {
				return nil, fmt.Errorf("type %d n %d DC: %w", typ, n, err)
			}
			tMR, err := timeMRRR(m, 0)
			if err != nil {
				return nil, fmt.Errorf("type %d n %d MRRR: %w", typ, n, err)
			}
			row := Fig8Row{Type: typ, N: n, TimeDC: tDC.Seconds(), TimeMR: tMR.Seconds(),
				RatioMR: tMR.Seconds() / tDC.Seconds()}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-6d %8d %12.1f %12.1f %10.2f\n",
				typ, n, 1000*row.TimeDC, 1000*row.TimeMR, row.RatioMR)
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig 9

// AccRow holds the Figure 9 accuracy metrics for one matrix.
type AccRow struct {
	Type             int
	N                int
	OrthDC, OrthMR   float64
	ResidDC, ResidMR float64
}

// Fig9 reproduces Figure 9: eigenvector orthogonality ‖I-VVᵀ‖/n (9a) and
// decomposition residual ‖T-VΛVᵀ‖/(‖T‖n) (9b) for D&C and MRRR across the
// matrix suite. The expected shape: D&C one to two digits more accurate.
func Fig9(cfg *Config) ([]AccRow, error) {
	sizes := cfg.sizes([]int{250, 500, 750})
	w := cfg.out()
	fmt.Fprintf(w, "Figure 9: accuracy (orthogonality and residual)\n")
	fmt.Fprintf(w, "%-6s %7s %12s %12s %12s %12s\n", "type", "n", "orth DC", "orth MRRR", "resid DC", "resid MRRR")
	var rows []AccRow
	for _, typ := range cfg.types([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}) {
		for _, n := range sizes {
			m, err := matrix(typ, n, cfg.seed())
			if err != nil {
				return nil, err
			}
			oDC, rDC, err := solveAccuracy(m, false)
			if err != nil {
				return nil, fmt.Errorf("type %d n %d DC: %w", typ, n, err)
			}
			oMR, rMR, err := solveAccuracy(m, true)
			if err != nil {
				return nil, fmt.Errorf("type %d n %d MRRR: %w", typ, n, err)
			}
			row := AccRow{Type: typ, N: n, OrthDC: oDC, OrthMR: oMR, ResidDC: rDC, ResidMR: rMR}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-6d %7d %12.2e %12.2e %12.2e %12.2e\n", typ, n, oDC, oMR, rDC, rMR)
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig 10

// Fig10Row is one application-set measurement.
type Fig10Row struct {
	Name           string
	N              int
	TimeDC, TimeMR float64
	OrthDC, OrthMR float64
}

// Fig10 reproduces Figure 10 on the application-like matrix set that stands
// in for the LAPACK stetester application files (DESIGN.md §2): wall time of
// D&C vs MRRR with accuracy alongside.
func Fig10(cfg *Config) ([]Fig10Row, error) {
	n := 500
	if s := cfg.sizes(nil); len(s) > 0 {
		n = s[0]
	} else if cfg.Quick {
		n = 250
	}
	w := cfg.out()
	set := testmat.AppSet(n, rand.New(rand.NewSource(cfg.seed())))
	fmt.Fprintf(w, "Figure 10: application matrix set (n≈%d)\n", n)
	fmt.Fprintf(w, "%-18s %6s %12s %12s %12s %12s\n", "matrix", "n", "t_DC (ms)", "t_MRRR (ms)", "orth DC", "orth MRRR")
	var rows []Fig10Row
	for _, m := range set {
		tDC, _, err := timeDC(m, 0)
		if err != nil {
			return nil, fmt.Errorf("%s DC: %w", m.Name, err)
		}
		tMR, err := timeMRRR(m, 0)
		if err != nil {
			return nil, fmt.Errorf("%s MRRR: %w", m.Name, err)
		}
		oDC, _, err := solveAccuracy(m, false)
		if err != nil {
			return nil, err
		}
		oMR, _, err := solveAccuracy(m, true)
		if err != nil {
			return nil, err
		}
		row := Fig10Row{Name: m.Name, N: m.N(), TimeDC: tDC.Seconds(), TimeMR: tMR.Seconds(), OrthDC: oDC, OrthMR: oMR}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-18s %6d %12.1f %12.1f %12.2e %12.2e\n",
			m.Name, m.N(), 1000*row.TimeDC, 1000*row.TimeMR, row.OrthDC, row.OrthMR)
	}
	return rows, nil
}
