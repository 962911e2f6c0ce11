package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tridiag/internal/lapack"
)

// taskClasses is every kernel class the solver submits. Pre-seeding the
// per-class wall-time counters for all of them keeps the hot-path observer
// (one atomic add per executed task) free of map writes and locks.
var taskClasses = []string{
	"LASET", "Scale", "STEDC", "Barrier", "SortEigenvectors",
	"ComputeDeflation", "Redistribute", "PermuteV", "LAED4", "ComputeLocalW",
	"ReduceW", "CopyBackDeflated", "ComputeVect", "PackV", "UpdateVect",
	"Dlamrg", "UpdateZ", "SortEigenvalues",
}

// Stats aggregates per-kernel operation counts, wall times and per-merge
// deflation data, feeding the paper's cost-model experiments (Table I, Eq. 8).
type Stats struct {
	mu     sync.Mutex
	Ops    map[string]int64 // approximate element operations per kernel class
	Tasks  map[string]int64 // executed task count per kernel class
	Merges []MergeStat
	// TaskOps is each task's operation count keyed by task label (the same
	// count Ops sums per class), recorded only on solves with
	// Options.CaptureGraph: the clock-free task costs the replay simulator
	// can use in place of measured durations. Tasks that found no work
	// (empty panels) have no entry.
	TaskOps map[string]int64

	taskNanos   map[string]*atomic.Int64 // summed kernel wall time per class
	otherNano   atomic.Int64             // classes not in taskClasses (defensive)
	abftRetries atomic.Int64             // kernels re-executed to heal detected SDC
}

// MergeStat describes one merge: its tree level, size, secular size
// (n - k eigenpairs were deflated), the secular panel width nb the
// scheduler used for it (the adaptive choice when Options.PanelSize == 0),
// the secular-function evaluations its K roots took (Dlaed4's iterations
// plus any bisection rescue, summed over the LAED4 panels; Evals/K is the
// evaluations per root, each one pass over the K poles), and the measured
// trace defect of the merged spectrum — how far Σd drifted from the
// trace-preservation invariant (measured by the merge's Dlamrg step;
// ~1e-16·‖d‖ on a clean merge, and the quantity whose tolerance breach
// classifies the merge as silently corrupted). InLeaf marks a merge that ran
// inside a leaf task's sequential divide and conquer rather than as the task
// flow's panel tasks. Both come from the merge's lapack.MergeRecord.
type MergeStat struct {
	Level       int
	N           int
	K           int
	NB          int
	Evals       int64
	TraceDefect float64
	InLeaf      bool
}

func newStats() *Stats {
	s := &Stats{Ops: make(map[string]int64), Tasks: make(map[string]int64)}
	s.taskNanos = make(map[string]*atomic.Int64, len(taskClasses))
	for _, c := range taskClasses {
		s.taskNanos[c] = new(atomic.Int64)
	}
	return s
}

// count tallies ops that are not one task's kernel work (check and rescue
// counters such as ABFTInvariant or LAED4Bisect).
func (s *Stats) count(class string, ops int64) { s.countTask(class, "", ops) }

// countTask tallies the kernel work of the task labelled label: per class in
// Ops, and per label in TaskOps when the graph is captured.
func (s *Stats) countTask(class, label string, ops int64) {
	s.mu.Lock()
	s.Ops[class] += ops
	s.Tasks[class]++
	if s.TaskOps != nil && label != "" {
		s.TaskOps[label] += ops
	}
	s.mu.Unlock()
}

// addTaskTime is the quark.WithTaskTimer observer: one atomic add per
// executed task, no locks (the map is read-only after newStats).
func (s *Stats) addTaskTime(class string, d time.Duration) {
	if c, ok := s.taskNanos[class]; ok {
		c.Add(int64(d))
		return
	}
	s.otherNano.Add(int64(d))
}

// TaskTimes returns the summed kernel wall time per task class (only classes
// that actually ran). Times sum across workers, so the total can exceed the
// solve's wall time on multi-worker runs. Empty for solves that did not go
// through the task runtime.
func (s *Stats) TaskTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for c, n := range s.taskNanos {
		if v := n.Load(); v > 0 {
			out[c] = time.Duration(v)
		}
	}
	if v := s.otherNano.Load(); v > 0 {
		out["other"] = time.Duration(v)
	}
	return out
}

// addMerge files one merge's record (lapack.MergeRecord), in the task flow
// or inside a leaf task (inLeaf): a MergeStat, and its checks, detections
// and bisection rescues in the ABFT and fallback counters.
func (s *Stats) addMerge(r lapack.MergeRecord, inLeaf bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Merges = append(s.Merges, MergeStat{Level: r.Level, N: r.N, K: r.K, NB: r.NB, Evals: r.Evals, TraceDefect: r.TraceDefect, InLeaf: inLeaf})
	s.Ops["ABFTInvariant"] += r.Invariants
	s.Ops["ABFTChecksum"] += r.Checksums
	s.Ops["LAED4Bisect"] += r.Bisections
	if r.InvariantFails > 0 {
		s.Ops["ABFTInvariantFail"] += r.InvariantFails
	}
	if r.ChecksumFails > 0 {
		s.Ops["ABFTChecksumFail"] += r.ChecksumFails
	}
}

// setABFTRetries records how many kernels the runtime re-executed in place
// under the corruption-retry policy (harvested once, after the runtime stops).
func (s *Stats) setABFTRetries(n int64) { s.abftRetries.Store(n) }

// ABFTStats summarizes a solve's silent-corruption defenses: how many checks
// ran, how many detections they produced, and how many kernels were healed by
// in-place re-execution. On a clean solve only Checksums and Invariants are
// nonzero.
type ABFTStats struct {
	// Checksums is the number of packed-GEMM outputs verified against their
	// operand checksum rows (UpdateVect panels through PackV operands).
	Checksums int64
	// Invariants is the number of merge-invariant checks that ran: one trace
	// check per merge plus one interlacing sweep per secular panel (one per
	// merge inside a leaf task).
	Invariants int64
	// ChecksumFailures and InvariantFailures count detections (each one either
	// healed by a task retry or escalated as a corruption error).
	ChecksumFailures  int64
	InvariantFailures int64
	// Retries is how many kernels were re-executed in place to heal a
	// detected corruption.
	Retries int64
	// MaxTraceDefect is the largest per-merge trace defect observed (see
	// MergeStat.TraceDefect).
	MaxTraceDefect float64
}

// ABFT returns the solve's silent-corruption defense counters. The defenses
// are always on in the task-flow modes, inside the leaf tasks too; the
// counters are all zeros for the sequential and fork-join modes.
func (s *Stats) ABFT() ABFTStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := ABFTStats{
		Checksums:         s.Ops["ABFTChecksum"],
		Invariants:        s.Ops["ABFTInvariant"],
		ChecksumFailures:  s.Ops["ABFTChecksumFail"],
		InvariantFailures: s.Ops["ABFTInvariantFail"],
		Retries:           s.abftRetries.Load(),
	}
	for _, m := range s.Merges {
		if m.TraceDefect > a.MaxTraceDefect {
			a.MaxTraceDefect = m.TraceDefect
		}
	}
	return a
}

// Fallbacks returns how many numerical-fallback rescues the solve recorded:
// secular roots recomputed by the bisection safeguard ("LAED4Bisect" ops)
// plus leaf QR solves retried via Dsterf + inverse iteration
// ("STEDCFallback" ops). Zero on the clean fast path.
func (s *Stats) Fallbacks() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Ops["LAED4Bisect"] + s.Ops["STEDCFallback"]
}

// PackReuse reports the UpdateVect packed-operand reuse of the solve: how
// many panel GEMMs went through a pre-packed operand (hits) versus the plain
// per-call path (misses), and the total bytes of packed panels built by the
// PackV tasks. The reuse rate is hits/(hits+misses), 0 when no GEMMs ran.
func (s *Stats) PackReuse() (hits, misses, packedBytes int64, rate float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hits = s.Ops["UpdateVectPackHit"]
	misses = s.Ops["UpdateVectPackMiss"]
	packedBytes = s.Ops["PackV"]
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	return hits, misses, packedBytes, rate
}

// DeflationRatio returns the fraction of eigenvalues deflated across the
// task flow's merges, the ones above the leaf tasks (0 = nothing deflated,
// 1 = everything deflated): the deflation that shrinks the merges' panel
// tasks. TreeDeflationRatio counts the merges inside the leaves too.
func (s *Stats) DeflationRatio() float64 { return s.deflation(false) }

// TreeDeflationRatio returns the fraction of eigenvalues deflated across
// every merge of the tree, the ones inside the leaf tasks included, where
// the small merges near the QR leaves usually deflate less.
func (s *Stats) TreeDeflationRatio() float64 { return s.deflation(true) }

func (s *Stats) deflation(inLeaf bool) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var tot, defl int
	for _, m := range s.Merges {
		if m.InLeaf && !inLeaf {
			continue
		}
		tot += m.N
		defl += m.N - m.K
	}
	if tot == 0 {
		return 0
	}
	return float64(defl) / float64(tot)
}

// String formats the statistics as a small report.
func (s *Stats) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	classes := make([]string, 0, len(s.Ops))
	for c := range s.Ops {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	times := s.TaskTimes()
	fmt.Fprintf(&b, "%-20s %10s %14s %12s\n", "kernel", "tasks", "ops", "time")
	for _, c := range classes {
		tm := "-"
		if t, ok := times[c]; ok {
			tm = t.Round(time.Microsecond).String()
		}
		fmt.Fprintf(&b, "%-20s %10d %14d %12s\n", c, s.Tasks[c], s.Ops[c], tm)
	}
	return b.String()
}
