// dctrace renders execution traces of the task-flow solver: the textual
// analogue of the paper's Figures 3 and 4. The solver runs once on one
// worker with graph capture, then the schedule is replayed on P virtual
// workers (see DESIGN.md §2) under the selected execution model.
//
//	dctrace -type 4 -n 1500 -p 16 -model taskflow
//	dctrace -type 1 -n 1500 -p 16 -csv trace.csv
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"tridiag/internal/core"
	"tridiag/internal/sched"
	"tridiag/internal/testmat"
	"tridiag/internal/trace"
)

// taskTimeReport formats the measured per-task-kind wall-time totals of the
// capture run (secular-vs-GEMM balance), sorted by descending share. The
// returned csvLine is a single `#`-comment line for the CSV output.
func taskTimeReport(times map[string]time.Duration) (report, csvLine string) {
	if len(times) == 0 {
		return "", ""
	}
	classes := make([]string, 0, len(times))
	var total time.Duration
	for c, t := range times {
		classes = append(classes, c)
		total += t
	}
	sort.Slice(classes, func(i, j int) bool { return times[classes[i]] > times[classes[j]] })
	var b, csv strings.Builder
	b.WriteString("measured kernel time per task kind:\n")
	csv.WriteString("# task_times_us:")
	for _, c := range classes {
		t := times[c]
		fmt.Fprintf(&b, "  %-18s %10s  %5.1f%%\n", c, t.Round(time.Microsecond), 100*float64(t)/float64(total))
		fmt.Fprintf(&csv, " %s=%d", c, t.Microseconds())
	}
	csv.WriteString("\n")
	return b.String(), csv.String()
}

// abftReport formats the solve's silent-corruption defense ledger: the
// check/detection totals and a per-merge table of the trace-preservation
// defect each Dlamrg join measured (DESIGN.md §18). A clean run shows
// defects around the rounding floor; a corrupted-and-healed run shows
// nonzero detection counters with the defects still at the floor.
func abftReport(st *core.Stats) string {
	ab := st.ABFT()
	var b strings.Builder
	fmt.Fprintf(&b, "ABFT: checksums=%d invariants=%d detected=%d healed-by-retry=%d\n",
		ab.Checksums, ab.Invariants, ab.ChecksumFailures+ab.InvariantFailures, ab.Retries)
	if len(st.Merges) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-6s %6s %6s %6s %13s\n", "level", "n", "k", "nb", "trace-defect")
	for _, m := range st.Merges {
		fmt.Fprintf(&b, "%-6d %6d %6d %6d %13.3e\n", m.Level, m.N, m.K, m.NB, m.TraceDefect)
	}
	return b.String()
}

// secularReport formats the secular-function evaluations per root of each
// tree level (core.MergeStat.Evals over the merges' K): Dlaed4's iteration
// count, each evaluation one pass over the merge's K poles.
func secularReport(st *core.Stats) string {
	var roots, evals []int64 // indexed by level
	for _, m := range st.Merges {
		for len(roots) <= m.Level {
			roots, evals = append(roots, 0), append(evals, 0)
		}
		roots[m.Level] += int64(m.K)
		evals[m.Level] += m.Evals
	}
	var b strings.Builder
	b.WriteString("secular evaluations per root:\n")
	fmt.Fprintf(&b, "%-6s %7s %8s %9s\n", "level", "roots", "evals", "per-root")
	for l := range roots {
		if roots[l] > 0 {
			fmt.Fprintf(&b, "%-6d %7d %8d %9.3f\n", l, roots[l], evals[l], float64(evals[l])/float64(roots[l]))
		}
	}
	return b.String()
}

func main() {
	typ := flag.Int("type", 4, "Table III matrix type")
	n := flag.Int("n", 1000, "matrix size")
	p := flag.Int("p", 16, "simulated workers")
	model := flag.String("model", "taskflow", "execution model: taskflow | levelsync | forkjoin | mergepar")
	bw := flag.Float64("bw", 4, "memory streams per socket (0: bandwidth model off)")
	width := flag.Int("width", 120, "gantt width in characters")
	csv := flag.String("csv", "", "write the timeline as CSV to this file")
	seed := flag.Int64("seed", 1, "random seed")
	real := flag.Bool("real", false, "show the real measured trace of a concurrent run instead of a simulation")
	valuesOnly := flag.Bool("values-only", false, "trace the eigenvalue-only lane (no eigenvector task classes, no n×n block)")
	flag.Parse()

	m, err := testmat.Type(*typ, *n, rand.New(rand.NewSource(*seed)))
	fail(err)

	mode := core.ModeTaskFlow
	if *model == "levelsync" {
		mode = core.ModeLevelSync
	}
	if *valuesOnly && *model == "levelsync" {
		fail(fmt.Errorf("the values-only lane runs as a task flow; the levelsync model does not apply"))
	}

	workers := 1
	if *real {
		workers = *p
	}
	d := append([]float64(nil), m.D...)
	e := append([]float64(nil), m.E...)
	var q []float64
	ldq := 0
	if !*valuesOnly {
		q = make([]float64, *n**n)
		ldq = *n
	}
	res, err := core.SolveDC(*n, d, e, q, ldq, &core.Options{
		Workers: workers, CaptureGraph: true, Mode: mode, ValuesOnly: *valuesOnly,
		PanelSize: max(16, *n/16), MinPartition: max(32, *n/16),
	})
	fail(err)
	g := res.Graph
	statsLines := fmt.Sprintf("matrix %s n=%d, deflation %.1f%% over the task flow's merges, %.1f%% over every merge\n",
		m.Name, *n, 100*res.Stats.DeflationRatio(), 100*res.Stats.TreeDeflationRatio())
	if *valuesOnly {
		statsLines += "values-only lane: no eigenvector tasks, no n×n block\n"
	} else {
		hits, misses, bytes, rate := res.Stats.PackReuse()
		statsLines += fmt.Sprintf("UpdateVect pack: hits=%d misses=%d packed_bytes=%d reuse_rate=%.3f\n", hits, misses, bytes, rate)
	}
	statsLines += abftReport(res.Stats)
	statsLines += secularReport(res.Stats)

	var tl *trace.Timeline
	if *real {
		tl = trace.FromGraph(g)
		fmt.Printf("real concurrent run, %d workers\n", workers)
	} else {
		switch *model {
		case "forkjoin":
			g = sched.ForkJoinGraph(g, sched.ParallelBLASClasses)
		case "mergepar":
			g = sched.ForkJoinGraph(g, sched.ParallelMergeClasses)
		case "taskflow", "levelsync":
		default:
			fail(fmt.Errorf("unknown model %q", *model))
		}
		r, err := sched.Simulate(g, sched.Config{Workers: *p, StreamsPerSocket: *bw, WorkersPerSocket: 8})
		fail(err)
		tl = trace.FromSimulation(g, r, *p)
		fmt.Printf("model %s, P=%d simulated (bandwidth cap %.0f)\n", *model, *p, *bw)
	}
	fmt.Print(statsLines)
	fmt.Println()
	fmt.Print(tl.Gantt(*width))
	fmt.Println()
	fmt.Print(tl.BreakdownReport())
	timeReport, timeCSV := taskTimeReport(res.Stats.TaskTimes())
	fmt.Print(timeReport)

	if *csv != "" {
		var header strings.Builder
		for _, line := range strings.Split(strings.TrimRight(statsLines, "\n"), "\n") {
			header.WriteString("# " + line + "\n")
		}
		header.WriteString(timeCSV)
		fail(os.WriteFile(*csv, []byte(header.String()+tl.CSV()), 0o644))
		fmt.Printf("wrote %s\n", *csv)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dctrace:", err)
		os.Exit(1)
	}
}
