package bench

import (
	"fmt"
	"time"

	"tridiag/internal/core"
	"tridiag/internal/quark"
)

// AblationRow is one configuration's outcome.
type AblationRow struct {
	Param    string
	Value    int
	Tasks    int
	Edges    int
	Makespan float64 // simulated at P workers
	Speedup  float64 // vs one worker on the same graph
	WallTime float64 // shortest measured single-worker seconds over the captures
	CritPath float64
}

func ablateRow(param string, value int, g *quark.Graph, wall time.Duration, workers int, bw float64) (AblationRow, error) {
	rp, err := simulate(g, workers, bw)
	if err != nil {
		return AblationRow{}, err
	}
	r1, err := simulate(g, 1, bw)
	if err != nil {
		return AblationRow{}, err
	}
	cp, _ := g.CriticalPath()
	return AblationRow{
		Param: param, Value: value,
		Tasks: len(g.Tasks), Edges: len(g.Edges),
		Makespan: rp.Makespan, Speedup: r1.Makespan / rp.Makespan,
		WallTime: wall.Seconds(), CritPath: cp,
	}, nil
}

// AblatePanelSize sweeps the task panel width nb (the paper's granularity
// knob: "nb has to be tuned to take advantage of ... the number of cores ...
// and the efficiency of the kernel itself").
func AblatePanelSize(cfg *Config) ([]AblationRow, error) {
	n := 1000
	if s := cfg.sizes(nil); len(s) > 0 {
		n = s[0]
	} else if cfg.Quick {
		n = 500
	}
	workers := 16
	if len(cfg.Workers) > 0 {
		workers = cfg.Workers[len(cfg.Workers)-1]
	}
	m := rampMatrix(n)
	w := cfg.out()
	fmt.Fprintf(w, "Ablation: panel size nb (n=%d, P=%d simulated, minpart=%d)\n", n, workers, n/8)
	fmt.Fprintf(w, "%8s %8s %8s %12s %8s %12s\n", "nb", "tasks", "edges", "makespan", "speedup", "crit.path")
	var rows []AblationRow
	for _, nb := range []int{16, 32, 64, 128, 256, n} {
		g, _, wall, err := capture(m, core.ModeTaskFlow, nb, n/8, measuredRuns)
		if err != nil {
			return nil, err
		}
		row, err := ablateRow("nb", nb, g, wall, workers, cfg.bandwidth())
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%8d %8d %8d %12.4f %8.2f %12.4f\n",
			nb, row.Tasks, row.Edges, row.Makespan, row.Speedup, row.CritPath)
	}
	return rows, nil
}

// AblateMinPartition sweeps the leaf cutoff: small leaves deepen the tree
// (more merge overhead), large leaves grow the cubic Dsteqr leaf cost.
func AblateMinPartition(cfg *Config) ([]AblationRow, error) {
	n := 1000
	if s := cfg.sizes(nil); len(s) > 0 {
		n = s[0]
	} else if cfg.Quick {
		n = 500
	}
	workers := 16
	if len(cfg.Workers) > 0 {
		workers = cfg.Workers[len(cfg.Workers)-1]
	}
	m := rampMatrix(n)
	w := cfg.out()
	fmt.Fprintf(w, "Ablation: minimal partition size (n=%d, P=%d simulated, nb=%d)\n", n, workers, max(16, n/8))
	fmt.Fprintf(w, "%8s %8s %8s %12s %8s %12s %12s\n", "minpart", "tasks", "edges", "makespan", "speedup", "wall(1w)", "crit.path")
	var rows []AblationRow
	for _, mp := range []int{25, 50, 100, 200, 400} {
		if mp >= n {
			continue
		}
		g, _, wall, err := capture(m, core.ModeTaskFlow, max(16, n/8), mp, measuredRuns)
		if err != nil {
			return nil, err
		}
		row, err := ablateRow("minpart", mp, g, wall, workers, cfg.bandwidth())
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%8d %8d %8d %12.4f %8.2f %12.4f %12.4f\n",
			mp, row.Tasks, row.Edges, row.Makespan, row.Speedup, row.WallTime, row.CritPath)
	}
	return rows, nil
}

// AblateGatherv reports the dependency-count statistics that motivate the
// GATHERV mode: per-task declared dependencies stay constant while join
// tasks absorb the group in-degree.
func AblateGatherv(cfg *Config) error {
	n := 1000
	if s := cfg.sizes(nil); len(s) > 0 {
		n = s[0]
	} else if cfg.Quick {
		n = 500
	}
	m := rampMatrix(n)
	g, _, _, err := capture(m, core.ModeTaskFlow, max(16, n/16), n/8, measuredRuns)
	if err != nil {
		return err
	}
	indeg := map[int]int{}
	for _, e := range g.Edges {
		indeg[e[1]]++
	}
	maxIn := map[string]int{}
	sumIn := map[string]int{}
	cnt := map[string]int{}
	for _, t := range g.Tasks {
		if indeg[t.ID] > maxIn[t.Class] {
			maxIn[t.Class] = indeg[t.ID]
		}
		sumIn[t.Class] += indeg[t.ID]
		cnt[t.Class]++
	}
	w := cfg.out()
	fmt.Fprintf(w, "Gatherv dependency profile (n=%d, %d tasks, %d edges)\n", n, len(g.Tasks), len(g.Edges))
	fmt.Fprintf(w, "%-20s %8s %10s %8s\n", "class", "tasks", "avg indeg", "max")
	for _, c := range []string{"PermuteV", "LAED4", "ComputeLocalW", "ComputeVect", "UpdateVect", "CopyBackDeflated", "ComputeDeflation", "ReduceW", "Dlamrg"} {
		if cnt[c] == 0 {
			continue
		}
		fmt.Fprintf(w, "%-20s %8d %10.1f %8d\n", c, cnt[c], float64(sumIn[c])/float64(cnt[c]), maxIn[c])
	}
	fmt.Fprintf(w, "panel tasks keep O(1) average in-degree; the joins (ComputeDeflation,\nReduceW, Dlamrg) absorb the Gatherv group edges, as in the paper.\n")
	return nil
}

// Ablate runs all ablation studies.
func Ablate(cfg *Config) error {
	if _, err := AblatePanelSize(cfg); err != nil {
		return err
	}
	fmt.Fprintln(cfg.out())
	if _, err := AblateMinPartition(cfg); err != nil {
		return err
	}
	fmt.Fprintln(cfg.out())
	return AblateGatherv(cfg)
}
