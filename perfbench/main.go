// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the tridiag stack and prints the run's end-to-end
// metrics, or with -trace 1 a per-layer breakdown:
//
//   - lib-lowdefl: in-process eigen.SolveContext on perturbed Legendre
//     matrices (almost no deflation, UpdateVect GEMM-bound);
//   - lib-highdefl: the same call path on glued Wilkinson W21 matrices
//     (about 80% deflation, leaf- and data-movement-bound);
//   - svc-mix: open-loop HTTP traffic through an eigserve coordinator and
//     worker, 80% small full solves with vectors and 20% large values-only
//     solves.
//
// Run it through run.py, which builds it and eigserve from source:
//
//	python3 perfbench/run.py --workload lib-lowdefl --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the run's JSON result. A record of
// the run (host, code fingerprint, metrics) and, for traced runs, the spans
// are written under the -out directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many times a run sets its system up; setup_s is the
// median.
const setupRuns = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 30, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1: per-layer traced run instead of the end-to-end metrics")
	out := flag.String("out", ".bench_build", "directory for run records and traces")
	bin := flag.String("bin", "", "directory holding the eigserve binary (default <out>/bin)")
	probe := flag.Int("setup-probe", -1, "internal: run set-up probe number N of a lib workload and exit")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *out, *bin, *probe); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(name string, seed int64, seconds int, trace bool, out, bin string, probe int) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if probe >= 0 {
		return setupProbe(w, seed, probe)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if bin == "" {
		bin = filepath.Join(out, "bin")
	}
	eigserve, err := filepath.Abs(filepath.Join(bin, "eigserve"))
	if err != nil {
		return err
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	for _, dir := range []string{"runs", "traces"} {
		if err := os.MkdirAll(filepath.Join(out, dir), 0o755); err != nil {
			return err
		}
	}
	host := newHostRecord(root)
	steal := startSteal()
	dur := time.Duration(seconds) * time.Second
	traceFlag := 0
	if trace {
		traceFlag = 1
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", name, seed, traceFlag)

	var m metrics
	var tl *tally
	if trace {
		header := map[string]any{"workload": name, "seed": seed, "seconds": seconds, "host": host}
		m, tl, err = runTraced(w, eigserve, seed, dur, filepath.Join(out, "traces", tag+".jsonl"), header)
	} else {
		m, tl, err = runEndToEnd(w, eigserve, seed, dur)
	}
	if err != nil {
		return err
	}
	host.StealPct = steal.pct()
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, v.Value)
		}
	}
	res := result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: m}
	rec, err := json.MarshalIndent(map[string]any{"workload": name, "seed": seed, "seconds": seconds,
		"trace": trace, "host": host, "result": res}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "runs", tag+".json"), rec, 0o644); err != nil {
		return err
	}
	hb, _ := json.Marshal(host)
	fmt.Fprintf(os.Stderr, "perfbench: host %s\n", hb)
	for _, k := range sortedNames(m) {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func sortedNames(m metrics) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// runEndToEnd measures a workload's end-to-end metrics: set-up setupRuns
// times, then dur of requests. Latency percentiles are reported only where
// at least minBeyond samples lie beyond them; a run too short for its p90
// fails instead of reporting one.
func runEndToEnd(w workload, eigserve string, seed int64, dur time.Duration) (metrics, *tally, error) {
	var st *runStats
	var setups []float64
	var rss float64
	var err error
	if w.svc {
		st, setups, rss, err = runSvc(w, eigserve, seed, dur, setupRuns, nil)
	} else {
		for i := 0; i < setupRuns && err == nil; i++ {
			var d time.Duration
			d, err = libSetup(w, seed, i)
			setups = append(setups, d.Seconds())
		}
		if err == nil {
			st, err = runLib(w, seed, dur, nil)
		}
		if err == nil {
			rss, err = peakRSS(os.Getpid())
		}
	}
	if err != nil {
		return nil, nil, err
	}
	for cls, xs := range map[string][]float64{"full": st.full, "values": st.values} {
		if !tailSupported(len(xs), 0.9) {
			return nil, nil, fmt.Errorf("%d verified %s-class samples cannot support a p90 (highest supported: p%g)",
				len(xs), cls, 100*highestTail(len(xs)))
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d full-class and %d values-class samples\n", len(st.full), len(st.values))
	m := metrics{}
	m.set("latency_p50_ms", median(st.full), "ms")
	m.set("latency_p90_ms", quantile(st.full, 0.9), "ms")
	m.set("values_p50_ms", median(st.values), "ms")
	m.set("values_p90_ms", quantile(st.values, 0.9), "ms")
	m.set("success_rate", st.tally.successRate(), "ratio")
	m.set("cpu_ms_per_req", ms(st.cpu)/float64(max(st.tally.attempted, 1)), "ms")
	m.set("peak_rss_mb", rss, "MiB")
	m.set("setup_s", median(setups), "s")
	return m, &st.tally, nil
}
