// Package core implements the paper's contribution: a symmetric tridiagonal
// divide & conquer eigensolver expressed as a sequential task flow and
// executed out of order by the quark runtime.
//
// Each merge of the D&C tree is decomposed into the paper's task kinds
// (Algorithm 1): Compute deflation, PermuteV, LAED4, ComputeLocalW, ReduceW,
// CopyBackDeflated, ComputeVect and UpdateVect, panelized over nb eigenvector
// columns. Tasks touching a panel carry one panel handle plus one Gatherv
// access on a merge-wide handle, so every task has a constant number of
// declared dependencies; the join tasks (Compute deflation, ReduceW, Dlamrg)
// take a single InOut on the merge-wide handle. The DAG is matrix
// independent: all panel tasks are submitted regardless of how much deflation
// occurs, and tasks that end up without work return immediately.
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"tridiag/internal/blas"
	"tridiag/internal/faultinject"
	"tridiag/internal/lapack"
	"tridiag/internal/pool"
	"tridiag/internal/quark"
)

// Mode selects the execution model, used for the paper's baselines.
type Mode int

const (
	// ModeTaskFlow is the full task-flow algorithm (the paper's solver):
	// independent subproblems, panelized merges, no level barriers.
	ModeTaskFlow Mode = iota
	// ModeLevelSync keeps the panelized merge tasks but synchronizes
	// between tree levels (barriers only).
	ModeLevelSync
	// ModeScaLAPACK is the execution model of ScaLAPACK's PDSTEDC
	// (Figure 7 baseline): level synchronization plus per-merge data
	// redistribution — each merge physically copies its eigenvector block
	// in and out of a scratch area (the distributed-memory exchanges the
	// paper attributes ScaLAPACK's overhead to), measured for real.
	ModeScaLAPACK
	// ModeForkJoin runs the sequential LAPACK algorithm with only the
	// merge GEMMs multithreaded, the execution model of a sequential
	// DSTEDC on top of a multithreaded BLAS (Figure 6 baseline).
	ModeForkJoin
	// ModeSequential runs everything on one thread (LAPACK reference).
	ModeSequential
)

func (m Mode) String() string {
	switch m {
	case ModeTaskFlow:
		return "task-flow"
	case ModeLevelSync:
		return "level-sync"
	case ModeScaLAPACK:
		return "scalapack-model"
	case ModeForkJoin:
		return "fork-join"
	case ModeSequential:
		return "sequential"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Options tunes the solver. The zero value picks reasonable defaults.
type Options struct {
	// Workers is the number of worker goroutines (<=0: GOMAXPROCS).
	Workers int
	// PanelSize is nb, the number of eigenvector columns per panel task.
	// When <= 0 the scheduler picks nb adaptively per merge: panel counts
	// are sized from the merge width and worker count at submit time, and
	// the secular panel width is re-derived from the post-deflation k once
	// the deflation task has run (large panels for small k to avoid task
	// overhead, smaller panels for big k to feed all workers). The chosen
	// width per merge is recorded in Result.Stats (MergeStat.NB).
	PanelSize int
	// MinPartition is the leaf cutoff of the task flow: the tree's leaves
	// are at most this size (LeafSizes: a matrix of at most this size is
	// split once if its halves exceed a QR leaf), and each is one STEDC
	// task that solves its block with the sequential divide and conquer
	// (lapack.Dstedc). Inside a leaf the QR leaves are min(MinPartition,
	// 25) rows, LAPACK's SMLSIZ, in every mode. A merge inside a leaf runs
	// inline and pays no task overhead, so small QR leaves pay off there;
	// in the task flow, where every merge is 10–16 panel tasks, leaf
	// cutoffs from 16 to 64 measured the same. The default
	// (DefaultMinPartition, 128) halves the task count of the 48-row cutoff
	// on the high-deflation workload.
	MinPartition int
	// CaptureGraph records the task DAG with per-task timings.
	CaptureGraph bool
	// Mode selects the execution model (default ModeTaskFlow).
	Mode Mode
	// Progress, when non-nil, is called after every executed task of a
	// task-flow solve (the quark WithProgress heartbeat), and after every
	// leaf and merge of the sequential divide and conquer: inside each
	// task-flow leaf, and in a ModeSequential or ModeForkJoin solve. External
	// watchdogs use it to detect stalled solves. It runs on worker
	// goroutines, so it must be concurrency-safe and cheap.
	Progress func()
	// ValuesOnly computes eigenvalues only: q is never touched (it may be
	// nil, and ldq is ignored) and the task flow submits none of the
	// eigenvector task classes — each tree node carries just the first and
	// last rows of its notional eigenvector block, dropping workspace from
	// O(n²) to O(n·depth) (DESIGN.md §17). Supported for ModeTaskFlow;
	// ModeSequential and ModeForkJoin degrade to the root-free Dsterf
	// reference, and the level-synchronized baselines are rejected.
	ValuesOnly bool
}

// DefaultMinPartition is Options.MinPartition's default leaf cutoff.
const DefaultMinPartition = 128

// qrLeaf is the QR leaf size of the sequential divide and conquer, inside a
// task-flow leaf and in the sequential and fork-join modes.
func (o *Options) qrLeaf() int { return qrLeafRows(o.MinPartition) }

func qrLeafRows(minPartition int) int { return min(minPartition, lapack.DefaultSmallSize) }

// LeafSizes is the task flow's leaf partition of an order-n matrix at leaf
// cutoff minPartition: blocks of at most minPartition rows
// (lapack.PartitionSizes), except that a matrix of at most minPartition
// rows whose halves are still larger than a QR leaf is split once. As one
// leaf task it would run its whole divide and conquer on one worker; as
// two, two workers share everything below the root merge. The partition
// depends on n and minPartition only, never on the worker count.
func LeafSizes(n, minPartition int) []int {
	sizes := lapack.PartitionSizes(n, minPartition)
	if len(sizes) == 1 && n/2 > qrLeafRows(minPartition) {
		return []int{n / 2, (n + 1) / 2}
	}
	return sizes
}

// dcConfig is the sequential drivers' configuration: QR leaves of
// qrLeaf rows, and Progress after every leaf and merge.
func (o *Options) dcConfig(gemm lapack.GemmFunc) *lapack.DCConfig {
	return &lapack.DCConfig{SmallSize: o.qrLeaf(), Gemm: gemm, Progress: o.Progress}
}

func (o *Options) withDefaults() Options {
	var v Options
	if o != nil {
		v = *o
	}
	if v.PanelSize < 0 {
		v.PanelSize = 0 // adaptive
	}
	if v.MinPartition < 2 {
		v.MinPartition = DefaultMinPartition
	}
	return v
}

// Result reports solver metadata: the captured task graph (if requested) and
// operation statistics for the cost-model experiments.
type Result struct {
	Graph *quark.Graph
	Stats *Stats
	// Q holds the eigenvectors (n×n, leading dimension n) when the caller
	// passed a nil q to a full solve and the solve allocated them; nil
	// otherwise. A failed solve may return a Q with partial contents.
	Q []float64
}

// SolveDC computes all eigenpairs of the symmetric tridiagonal matrix
// (d, e): on exit d holds the ascending eigenvalues and q (n×n, column
// leading dimension ldq) the corresponding orthonormal eigenvectors; e is
// destroyed. The entry contents of q are ignored — callers may hand the
// solver a dirty, reused workspace: the solve tracks each column's valid
// row span (lapack.Span), no kernel reads a row outside it, and the closing
// sort writes every entry of q. With q == nil a full solve allocates the
// eigenvectors itself (ldq is then ignored) and returns them in Result.Q;
// the task flow allocates them while the leaves run, and its closing sort
// writes only span rows, since the rest of a fresh allocation is already +0
// (DESIGN.md §12).
func SolveDC(n int, d, e []float64, q []float64, ldq int, opts *Options) (*Result, error) {
	return SolveDCContext(context.Background(), n, d, e, q, ldq, opts)
}

// SolveDCContext is SolveDC bounded by a context: an already-cancelled
// context returns ctx.Err() before any task runs, and a cancellation (or
// deadline expiry) during a task-flow solve aborts within one task
// granularity — the kernels currently executing finish, every remaining
// task is skipped, and ctx.Err() is returned. The sequential and fork-join
// modes check the context only between coarse phases. On a non-nil error
// the contents of d, e and q are unspecified.
func SolveDCContext(ctx context.Context, n int, d, e []float64, q []float64, ldq int, opts *Options) (*Result, error) {
	o := opts.withDefaults()
	if n < 0 {
		return nil, fmt.Errorf("core: negative n")
	}
	res := &Result{Stats: newStats()}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if n == 0 {
		return res, nil
	}
	if !o.ValuesOnly && q != nil && ldq < n {
		return nil, fmt.Errorf("core: ldq=%d < n=%d", ldq, n)
	}
	if o.ValuesOnly {
		switch o.Mode {
		case ModeSequential, ModeForkJoin:
			// The values-only LAPACK reference: root-free QR iteration.
			return res, lapack.Dsterf(n, d, e)
		case ModeLevelSync, ModeScaLAPACK:
			return nil, fmt.Errorf("core: ValuesOnly supports the %s and sequential modes only (got %s)", ModeTaskFlow, o.Mode)
		}
	}

	// The baselines write q from their first step on, so they allocate it
	// up front; the task flow allocates it beside the leaves (flow.submit).
	allocate := func() {
		if q == nil && !o.ValuesOnly {
			q, ldq = make([]float64, n*n), n
			res.Q = q
		}
	}
	switch o.Mode {
	case ModeSequential:
		allocate()
		return res, lapack.Dstedc(n, d, e, q, ldq, o.dcConfig(nil))
	case ModeForkJoin:
		allocate()
		workers := o.Workers
		gemm := func(ta, tb bool, m, nn, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
			blas.DgemmParallel(workers, ta, tb, m, nn, k, alpha, a, lda, b, ldb, beta, c, ldc)
		}
		return res, lapack.Dstedc(n, d, e, q, ldq, o.dcConfig(gemm))
	}

	rtOpts := []quark.Option{quark.WithContext(ctx), quark.WithTaskTimer(res.Stats.addTaskTime),
		quark.WithTaskRetry(corruptionRetryPred)}
	if o.CaptureGraph {
		rtOpts = append(rtOpts, quark.WithGraphCapture())
		res.Stats.TaskOps = make(map[string]int64)
	}
	if o.Progress != nil {
		rtOpts = append(rtOpts, quark.WithProgress(o.Progress))
	}
	rt := quark.New(o.Workers, rtOpts...)

	f := &flow{ctx: ctx, rt: rt, n: n, d: d, e: e, o: &o, st: res.Stats}
	var vl *vectorLane
	if o.ValuesOnly {
		// The 2×n eigenvector-row carrier, the lane's only O(n) shared
		// buffer; released once the runtime has stopped.
		f.lane = &valuesLane{flow: f, fl: pool.Get(2 * n)}
	} else {
		vl = &vectorLane{flow: f, q: q, ldq: ldq, sp: make([]lapack.Span, n)}
		f.lane = vl
	}
	err := f.submit()
	if vl != nil && vl.owned {
		res.Q = vl.q
	}
	werr := rt.Wait()
	res.Stats.setABFTRetries(rt.Retries())
	if o.CaptureGraph {
		res.Graph = rt.Graph()
	}
	// Shutdown joins the workers, so after it no task can touch a merge:
	// file every merge that ran its deflation, and return the workspace of
	// every merge whose release a failed or cancelled task skipped.
	rt.Shutdown()
	for _, ms := range f.merges {
		if ms.m.Deflated() {
			res.Stats.addMerge(ms.m.Record(), false)
		}
		ms.m.Release()
	}
	f.lane.release()
	if err != nil {
		return res, err
	}
	return res, werr
}

// corruptionRetryPred is the WithTaskRetry policy of the ABFT layer: a kernel
// whose inline check detected silent corruption (a failed GEMM checksum or a
// secular root outside its interlacing bracket) is re-executed once in place.
// Only idempotent classes qualify — LAED4 reads read-only poles and fully
// overwrites its output panel, UpdateVect is a beta=0 full-overwrite GEMM —
// so the recompute replaces the corrupted output without double-applying
// anything. Classes that transform state in place (ComputeVect) or whose
// corruption is detected downstream of the writer (trace defects surface in
// Dlamrg) heal at the solve level instead, through the eigen retry ladder.
func corruptionRetryPred(class string, err error) bool {
	switch class {
	case "LAED4", "UpdateVect":
		return faultinject.Corruption(err)
	}
	return false
}

// corruptHook lets an armed KindCorrupt chaos probe flip a bit in a kernel's
// output buffer; one atomic load and a no-op unless probes are enabled.
func corruptHook(class string, data []float64) {
	if faultinject.Active() {
		faultinject.Corrupt(class, data)
	}
}

// node is one subtree of the D&C partition.
type node struct {
	start, size int
	hV, hD      *quark.Handle
	// blk is a vector-lane leaf's eigenvector block (size×size, pooled)
	// until the parent merge places it into V; nil otherwise.
	blk []float64
}

// lane is what differs between the full eigenvector solve (vectorLane) and
// the values-only solve (valuesLane, dc_vo.go). Both lanes share one tree
// (flow.submit) and one set of merge joins (flow.submitMerge, submitLAED4,
// submitReduceW); a lane builds its kind of lapack.Merge and submits its
// steps between a merge's deflation and Dlamrg joins.
type lane interface {
	// output makes sure the lane's result storage exists; the vector lane
	// allocates V here when the caller passed none. It runs on the
	// submitting goroutine once the leaves are submitted, and returns
	// ctx.Err() instead if the solve is already cancelled.
	output() error
	// zero handles the zero matrix, which needs no tree.
	zero()
	// leaf solves leaf nd's block of (d, e) in place with the sequential
	// divide and conquer, whose merges are checked and recorded in run:
	// ascending eigenvalues, and the lane's vectors in the same order.
	leaf(nd *node, run *lapack.DCRun) error
	// merge builds merge ms's lapack.Merge over d and indxq, the merge's
	// slices of the solve's.
	merge(ms *mergeState, d []float64, indxq []int, cfg lapack.MergeConfig) *lapack.Merge
	// deflate runs merge ms's Deflate step with coupling rho, once the
	// vector lane has placed the merge's leaf children.
	deflate(ms *mergeState, rho float64) (int64, error)
	// panels submits the lane's panel steps of merge ms.
	panels(ms *mergeState)
	// sort submits the root sort: it moves the eigenvalues (and vectors)
	// through the root permutation into ascending order and scales the
	// eigenvalues back by orgnrm.
	sort(root *node, orgnrm float64)
	// release returns the lane's pooled solve-wide scratch; it runs after
	// the runtime has stopped, whether the solve succeeded or not.
	release()
}

// flow is one task-flow solve being submitted: the tree shared by both lanes
// plus the lane that fills in its kernels.
type flow struct {
	ctx   context.Context
	rt    *quark.Runtime
	n     int
	d, e  []float64
	indxq []int
	lane  lane
	o     *Options
	st    *Stats
	// leafLevels is the merge depth inside the deepest leaf: the task
	// flow's merges sit that many levels above the QR leaves.
	leafLevels int
	// leaves and merges collect the tree's nodes and merge states so the
	// caller can sweep abandoned scratch after the runtime stops.
	leaves []*node
	merges []*mergeState
}

// submit submits the whole task graph in sequential program order: Scale,
// one STEDC task per leaf (LeafSizes), the merge levels bottom-up and the
// root sort. Every solve runs through the runtime, a matrix of one leaf
// too. Between the leaves and the merges it lets the lane allocate its
// output, so that the allocation's zeroing runs on this goroutine while
// the workers solve the leaves (the paper's LASET tasks overlap them the
// same way). The level-synchronized modes (ModeLevelSync,
// ModeScaLAPACK) barrier on rt.Wait between tree levels.
func (f *flow) submit() error {
	rt, n, d, e, st := f.rt, f.n, f.d, f.e, f.st
	sizes := LeafSizes(n, f.o.MinPartition)
	starts := make([]int, len(sizes)+1)
	for i, s := range sizes {
		starts[i+1] = starts[i] + s
	}
	f.leafLevels = bits.Len(uint(len(lapack.PartitionSizes(sizes[len(sizes)-1], f.o.qrLeaf())) - 1))

	// The matrix may need scaling to the safe range; orgnrm is computed up
	// front on the master (O(n)), the scaling itself is the Scale task.
	orgnrm := lapack.Dlanst('M', n, d, e)
	if orgnrm == 0 {
		if err := f.lane.output(); err != nil {
			return err
		}
		f.lane.zero()
		return nil
	}
	if len(sizes) == 1 {
		orgnrm = 1 // a single leaf's driver scales its block itself
	}

	hScale := rt.Handle("scale")
	rt.Submit("Scale", "scale+partition", func() {
		if orgnrm != 1 {
			lapack.Dlascl(n, 1, orgnrm, 1, d, n)
			lapack.Dlascl(n-1, 1, orgnrm, 1, e, n-1)
		}
		// Rank-one tear at every internal boundary.
		for _, b := range starts[1 : len(starts)-1] {
			ae := math.Abs(e[b-1])
			d[b-1] -= ae
			d[b] -= ae
		}
		st.countTask("Scale", "scale+partition", int64(n))
		corruptHook("Scale", d[:n])
	}, quark.Write(hScale))

	f.indxq = make([]int, n)

	// Leaf solves (the paper's STEDC leaf tasks).
	level := make([]*node, len(sizes))
	for i := range sizes {
		st0, sz := starts[i], sizes[i]
		nd := &node{start: st0, size: sz,
			hV: rt.Handle(fmt.Sprintf("V[%d:%d]", st0, st0+sz)),
			hD: rt.Handle(fmt.Sprintf("d[%d:%d]", st0, st0+sz))}
		level[i] = nd
		label := fmt.Sprintf("leaf[%d:%d]", st0, st0+sz)
		rt.Submit("STEDC", label, func() {
			run := &lapack.DCRun{Corrupt: leafHook}
			err := f.lane.leaf(nd, run)
			for _, r := range run.Merges {
				st.addMerge(r, true)
			}
			if run.FellBack > 0 {
				st.count("STEDCFallback", int64(run.FellBack))
			}
			st.countTask("STEDC", label, run.Ops)
			if err != nil {
				panic(err)
			}
			for j := 0; j < sz; j++ {
				f.indxq[st0+j] = j
			}
			corruptHook("STEDC", d[st0:st0+sz])
		}, quark.Read(hScale), quark.Write(nd.hV), quark.Write(nd.hD))
	}
	f.leaves = level
	if err := f.lane.output(); err != nil {
		return err
	}

	// Merge levels, bottom-up.
	lvl := 0
	for len(level) > 1 {
		lvl++
		var next []*node
		for i := 0; i+1 < len(level); i += 2 {
			left, right := level[i], level[i+1]
			parent := &node{start: left.start, size: left.size + right.size,
				hV: rt.Handle(fmt.Sprintf("V[%d:%d]", left.start, left.start+left.size+right.size)),
				hD: rt.Handle(fmt.Sprintf("d[%d:%d]", left.start, left.start+left.size+right.size))}
			f.submitMerge(parent, left, right, f.leafLevels+lvl)
			next = append(next, parent)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
		if f.o.Mode == ModeLevelSync || f.o.Mode == ModeScaLAPACK {
			// A real barrier between tree levels (the ScaLAPACK execution
			// model). The no-op barrier task also materializes the barrier
			// as graph edges so the replay simulator reproduces it.
			acc := make([]quark.Access, 0, 2*len(level))
			for _, nd := range level {
				acc = append(acc, quark.ReadWrite(nd.hV), quark.ReadWrite(nd.hD))
			}
			rt.Submit("Barrier", fmt.Sprintf("level%d", lvl), func() {}, acc...)
			if err := rt.Wait(); err != nil {
				return err
			}
		}
	}

	f.lane.sort(level[0], orgnrm)
	return nil
}

// leafHook is the fault hook of the merges inside a leaf task: under the
// leaf's class, at the two points before a check, a merge's secular roots
// and its merged eigenvalues.
func leafHook(class string, data []float64) {
	if class == "LAED4" || class == "Dlamrg" {
		corruptHook("STEDC", data)
	}
}

// adaptivePanelNB picks the submit-time panel width for a merge of width nm:
// the DAG is matrix independent (submitted before deflation is known), so the
// panel count is sized to give each worker a few panels to run while
// keeping panels wide enough to amortize per-task overhead. The clamp is
// deliberately tight (96–128): the submit-time width only fixes the panel
// COUNT, and too few panels would force the runtime secular width above its
// cache budget (see secularPanelNB), while panels narrower than ~96 columns
// measurably lose to task overhead on small merges.
func adaptivePanelNB(nm, workers int) int {
	nb := (nm + 4*workers - 1) / (4 * workers)
	return min(max(nb, 96), 128)
}

// secularPanelNB re-derives the secular panel width once the post-deflation k
// is known: small k gets a few wide panels (the surplus submitted panels
// no-op immediately), large k gets panels sized to feed every worker AND to
// keep an nb-wide, k-row eigenvector panel — the unit the UpdateVect packed
// GEMM streams — within a ~2 MiB cache footprint. The width never drops
// below ceil(k/npanels), so the panels submitted for the worst case (no
// deflation) always cover all k secular columns.
func secularPanelNB(k, npanels, workers int) int {
	if k == 0 {
		return 0
	}
	nb := (k + 4*workers - 1) / (4 * workers)
	nb = max(nb, 48)
	if cacheNB := max(2<<20/(8*k), 64); nb > cacheNB {
		nb = cacheNB
	}
	return max(nb, (k+npanels-1)/npanels)
}

// mergeState is one merge node of the task flow: its geometry and handles,
// fixed at submit time, and its lapack.Merge, whose steps the tasks run.
type mergeState struct {
	parent, left, right *node
	// start and nm place the merge: columns [start, start+nm), the left
	// child n1 wide. nb and npanels are the submit-time panel width and
	// count; root marks the merge of width n.
	start, nm, n1, nb, npanels int
	root                       bool
	prio                       int
	span                       string          // "[start:start+nm]", the merge's label suffix
	hS                         *quark.Handle   // merge-wide workspace handle
	hSec                       []*quark.Handle // secular panel handles
	m                          *lapack.Merge
	// pending counts the merge's not-yet-finished workspace consumers
	// (UpdateVect and CopyBackDeflated panels plus PackV on the full path,
	// the UpdateZ panels on the values-only path); when the last one
	// finishes, the merge's pooled workspace is recycled.
	pending atomic.Int32
}

// name labels panel p's task of the given kind.
func (ms *mergeState) name(kind string, p int) string {
	return fmt.Sprintf("%s%sp%d", kind, ms.span, p)
}

// done marks one workspace consumer finished; the last one returns the
// merge scratch to the pool. Skipped tasks (cancelled merges, successors of
// a failed task) never reach done: while the solve runs, other tasks of the
// merge may still read its workspace, so the solve releases such a merge
// only after the runtime has shut down.
func (ms *mergeState) done() {
	if ms.pending.Add(-1) == 0 {
		ms.m.Release()
	}
}

// Merge task priorities, as the paper does in QUARK: merges nearer the root
// of the D&C tree outrank lower levels (the root merge is the critical path),
// and within a merge the join tasks (ComputeDeflation, ReduceW, Dlamrg) and
// the secular chain (LAED4 → ComputeLocalW → ComputeVect) outrank the
// off-critical-path copies (CopyBackDeflated, Redistribute). The stride of 8
// leaves room for the per-kind offsets below.
const (
	prioStride    = 8
	prioJoin      = 6
	prioDlamrg    = 5
	prioSecular   = 4
	prioPermute   = 3
	prioUpdate    = 2
	prioCopy      = 1
	prioRedistrib = 1
)

// submitMerge submits the paper's Algorithm 1 for one merge node: the
// Compute-deflation join, the lane's panel tasks, and the Dlamrg join, each
// one step of the merge's lapack.Merge, which the task flow always checks.
func (f *flow) submitMerge(parent, left, right *node, lvl int) {
	rt, o, st := f.rt, f.o, f.st
	start, nm := parent.start, parent.size
	nb := o.PanelSize
	if nb <= 0 {
		nb = adaptivePanelNB(nm, rt.Workers())
	}
	npanels := (nm + nb - 1) / nb
	ms := &mergeState{parent: parent, left: left, right: right, start: start, nm: nm, n1: left.size, nb: nb, npanels: npanels,
		root: nm == f.n, prio: lvl * prioStride, span: fmt.Sprintf("[%d:%d]", start, start+nm),
		hS: rt.Handle(fmt.Sprintf("ws[%d:%d]", start, start+nm)), hSec: make([]*quark.Handle, npanels)}
	for p := range ms.hSec {
		ms.hSec[p] = rt.Handle(fmt.Sprintf("sec[%d]@%d", p, start))
	}
	m := f.lane.merge(ms, f.d[start:start+nm], f.indxq[start:start+nm],
		lapack.MergeConfig{Level: lvl, Panels: npanels, Checked: true, Corrupt: corruptHook})
	ms.m = m
	f.merges = append(f.merges, ms)
	rhoAddr := start + left.size - 1 // e index of the coupling element

	// Compute deflation: the first join, which also fixes the secular panel
	// width. The vector lane places leaf children into V first, hence the
	// ReadWrite on the children's handles. In adaptive mode the width comes
	// from the post-deflation k, before any secular task runs: every one of
	// them depends on this join through hS or the parent handles.
	deflLabel := "deflate" + ms.span
	rt.SubmitPrio("ComputeDeflation", deflLabel, ms.prio+prioJoin, func() {
		ops, err := f.lane.deflate(ms, f.e[rhoAddr])
		if err != nil {
			panic(err)
		}
		m.NB = nb
		if o.PanelSize <= 0 {
			m.NB = secularPanelNB(m.K(), npanels, rt.Workers())
		}
		st.countTask("ComputeDeflation", deflLabel, ops)
	}, quark.ReadWrite(parent.hV), quark.ReadWrite(parent.hD),
		quark.ReadWrite(left.hV), quark.ReadWrite(right.hV),
		quark.Read(left.hD), quark.Read(right.hD),
		quark.Write(ms.hS))

	f.lane.panels(ms)

	// Dlamrg: check the merged spectrum's trace and build the sorting
	// permutation, reading the deflated eigenvalues where the lane placed
	// them (Deflation.Slot). Its ReadWrite on the parent d-handle orders it
	// after every eigenvalue writer of the merge. A merge that deflated
	// everything counts no work here.
	mrgLabel := "Dlamrg" + ms.span
	rt.SubmitPrio("Dlamrg", mrgLabel, ms.prio+prioDlamrg, func() {
		ops, err := m.Order()
		if m.K() == 0 {
			ops = 0
		}
		f.file("Dlamrg", mrgLabel, ops, err)
	}, quark.ReadWrite(parent.hD))
}

// file counts a merge step's Table I operations under its task's label,
// when the step did work, then fails the task with the step's error: a
// detected corruption in LAED4 or UpdateVect is re-run in place
// (corruptionRetryPred).
func (f *flow) file(class, label string, ops int64, err error) {
	if ops > 0 {
		f.st.countTask(class, label, ops)
	}
	if err != nil {
		panic(err)
	}
}

// submitLAED4 submits secular panel p of merge ms, the Secular step over
// the panel's columns (lapack.Merge.Panel): the width is read at run time,
// after the deflation join has fixed it. extra are the lane's accesses
// between the merge-wide and panel handles.
func (f *flow) submitLAED4(ms *mergeState, p int, extra ...quark.Access) {
	acc := append([]quark.Access{quark.Gather(ms.hS), quark.Gather(ms.parent.hD)}, extra...)
	label := ms.name("LAED4", p)
	f.rt.SubmitPrio("LAED4", label, ms.prio+prioSecular, func() {
		ops, err := ms.m.Secular(ms.m.Panel(p))
		f.file("LAED4", label, ops, err)
	}, append(acc, quark.ReadWrite(ms.hSec[p]))...)
}

// submitReduceW submits the second join, combining the panel products into ẑ.
func (f *flow) submitReduceW(ms *mergeState) {
	label := "ReduceW" + ms.span
	f.rt.SubmitPrio("ReduceW", label, ms.prio+prioJoin, func() {
		f.st.countTask("ReduceW", label, ms.m.ReduceW())
	}, quark.ReadWrite(ms.hS))
}

// vectorLane is the full eigenvector solve: each node's eigenvectors live in
// its diagonal block of q, and every merge rebuilds its block with the
// PermuteV, ComputeLocalW, CopyBackDeflated, ComputeVect, PackV and
// UpdateVect panels around the shared joins. Column j of q is valid on rows
// sp[j] only (DESIGN.md §12): the leaves' placement sets the spans, the
// merge kernels keep them, and the root sort writes every entry of q that
// is not already +0.
type vectorLane struct {
	*flow
	q   []float64 // nil until output allocates it, when the caller passed none
	ldq int
	// owned marks a q this solve allocated. It stays +0 outside every
	// column's span, so the root sort writes span rows only.
	owned bool
	sp    []lapack.Span
	fs    *lapack.FinalSort // the root sort's plan, set by its plan task
}

// output allocates q when the caller passed none. The merges are submitted
// after it returns, and the leaves do not touch q, so no task can see q
// before it exists.
func (l *vectorLane) output() error {
	if l.q != nil {
		return nil
	}
	if err := l.ctx.Err(); err != nil {
		return err // no merge would run: skip the n² allocation
	}
	l.q, l.ldq, l.owned = make([]float64, l.n*l.n), l.n, true
	return nil
}

// window returns merge ms's block of q.
func (l *vectorLane) window(ms *mergeState) lapack.Window {
	return lapack.NewWindow(l.q, l.ldq, l.sp, ms.start, ms.nm)
}

func (l *vectorLane) zero() {
	n, q, ldq := l.n, l.q, l.ldq
	l.rt.Submit("LASET", "identity", func() {
		for j := 0; j < n; j++ {
			col := q[j*ldq : j*ldq+n]
			for i := range col {
				col[i] = 0
			}
			col[j] = 1
		}
	})
}

// leaf solves the block with lapack.DstedcChecked into a pooled sz×sz
// buffer, not into q, which the submitting goroutine may still be
// allocating; the parent merge places it (place), or the root sort when the
// leaf is the whole matrix. The arithmetic is the same as in q, at leading
// dimension sz, and the driver writes every entry of the buffer. The buffer
// is published before the solve, so a failed leaf's buffer is returned by
// release.
func (l *vectorLane) leaf(nd *node, run *lapack.DCRun) error {
	st0, sz := nd.start, nd.size
	nd.blk = pool.Get(sz * sz)
	return lapack.DstedcChecked(sz, l.d[st0:st0+sz], l.e[st0:st0+max(sz-1, 0)], nd.blk, sz, l.o.dcConfig(nil), run)
}

// place copies leaf nd's block into its diagonal block of q and marks its
// columns valid on the block's rows: the rest of each column is a
// structural zero, never written here. It does nothing for a node that is
// not a leaf, or whose block was already placed.
func (l *vectorLane) place(nd *node) {
	if nd.blk == nil {
		return
	}
	st0, sz := nd.start, nd.size
	for j := range sz {
		c := st0 + j
		copy(l.q[st0+c*l.ldq:st0+c*l.ldq+sz], nd.blk[j*sz:j*sz+sz])
		l.sp[c] = lapack.Span{Lo: st0, Hi: st0 + sz}
	}
	pool.Put(nd.blk)
	nd.blk = nil
}

func (l *vectorLane) merge(ms *mergeState, d []float64, indxq []int, cfg lapack.MergeConfig) *lapack.Merge {
	return lapack.NewVectorMerge(l.window(ms), ms.n1, d, indxq, cfg)
}

func (l *vectorLane) deflate(ms *mergeState, rho float64) (int64, error) {
	l.place(ms.left)
	l.place(ms.right)
	return ms.m.Deflate(rho)
}

func (l *vectorLane) panels(ms *mergeState) {
	rt, o, st, m := l.rt, l.o, l.st, ms.m
	ldq, nm, nb, npanels, prio := l.ldq, ms.nm, ms.nb, ms.npanels, ms.prio
	qq := l.window(ms).Q
	hV := ms.parent.hV
	// Workspace consumers: every UpdateVect and CopyBackDeflated panel plus
	// the PackV task; the last to finish recycles the merge scratch.
	ms.pending.Store(int32(2*npanels + 1))
	hPack := rt.Handle("pack" + ms.span)
	hPerm := make([]*quark.Handle, npanels)
	for p := range hPerm {
		hPerm[p] = rt.Handle(fmt.Sprintf("perm[%d]@%d", p, ms.start))
	}

	// Redistribution (ScaLAPACK model only): the distributed solver must
	// gather the block-cyclic eigenvector data before the merge; the copies
	// are performed for real so their cost is measured, not modelled. The
	// scratch target is not consumed — the overhead is the point.
	var redist []float64
	if o.Mode == ModeScaLAPACK {
		redist = make([]float64, nm*nm)
		for p := 0; p < npanels; p++ {
			g0, g1 := p*nb, min((p+1)*nb, nm)
			label := ms.name("RedistIn", p)
			rt.SubmitPrio("Redistribute", label, prio+prioRedistrib, func() {
				for g := g0; g < g1; g++ {
					copy(redist[g*nm:g*nm+nm], qq[g*ldq:g*ldq+nm])
				}
				st.countTask("Redistribute", label, int64(g1-g0)*int64(nm))
			}, quark.Read(hV), quark.ReadWrite(hPerm[p]))
		}
	}

	// PermuteV: copy the non-deflated half-columns of grouped columns
	// [p·nb, (p+1)·nb) into the compressed workspace; deflated columns stay
	// in q.
	for p := 0; p < npanels; p++ {
		g0, g1 := p*nb, min((p+1)*nb, nm)
		label := ms.name("PermuteV", p)
		rt.SubmitPrio("PermuteV", label, prio+prioPermute, func() {
			l.file("PermuteV", label, m.Permute(g0, g1), nil)
		}, quark.Read(hV), quark.Gather(ms.hS), quark.ReadWrite(hPerm[p]))
	}

	// LAED4: solve the secular equation per panel of eigenvalues, recording
	// each root as (org, tau). Reading perm[p] orders LAED4 p after PermuteV
	// p. The two share no storage (deflated vectors stay in q, and a root is
	// two doubles), so the edge is a scheduling order. Dropping it and
	// ComputeVect's (the paper's extra-workspace overlap) replayed no faster
	// at n=1000: 0.0170 → 0.0188 s at P=4 and 0.0076 → 0.0082 s at P=16 in
	// the last recorded ablation, and 0.0093 → 0.0103 s at P=16 (P=4 mixed)
	// in the medians of six more (EXPERIMENTS.md, ablations).
	for p := 0; p < npanels; p++ {
		l.submitLAED4(ms, p, quark.Read(hPerm[p]))
	}

	// ComputeLocalW: panel-local factors of Gu's stabilization product, from
	// the panel's (org, tau) roots.
	for p := 0; p < npanels; p++ {
		label := ms.name("ComputeLocalW", p)
		rt.SubmitPrio("ComputeLocalW", label, prio+prioSecular, func() {
			l.file("ComputeLocalW", label, m.LocalW(m.Panel(p)), nil)
		}, quark.Gather(ms.hS), quark.ReadWrite(ms.hSec[p]))
	}

	l.submitReduceW(ms)

	// CopyBackDeflated: empty the columns UpdateVect panel p is about to
	// write — the same runtime partition, m.Panel(p) — by moving each
	// deflated vector there, with its eigenvalue, into a column >= K that a
	// non-deflated vector vacated. Deflated vectors at or beyond K never
	// move. Runs concurrently with ReduceW/ComputeLocalW (Figure 2): the
	// Gatherv-vs-readers rule on hV orders it after every PermuteV read of
	// the columns it fills, and UpdateVect p reads hPerm[p] to run after it.
	for p := 0; p < npanels; p++ {
		label := ms.name("CopyBack", p)
		rt.SubmitPrio("CopyBackDeflated", label, prio+prioCopy, func() {
			defer ms.done()
			l.file("CopyBackDeflated", label, m.CopyBack(m.Panel(p)), nil)
		}, quark.Gather(hV), quark.Gather(ms.parent.hD), quark.ReadWrite(hPerm[p]))
	}

	// ComputeVect: form the panel's secular eigenvectors from ẑ and the
	// (org, tau) roots, writing each column of S once. Reading perm[p] orders
	// it after CopyBackDeflated p: a scheduling order like LAED4's, not a
	// storage guard.
	for p := 0; p < npanels; p++ {
		label := ms.name("ComputeVect", p)
		rt.SubmitPrio("ComputeVect", label, prio+prioSecular, func() {
			l.file("ComputeVect", label, m.Vectors(m.Panel(p)), nil)
		}, quark.Read(ms.hS), quark.Read(hPerm[p]), quark.ReadWrite(ms.hSec[p]))
	}

	// PackV: repack the compressed GEMM operands Q2Top/Q2Bot into blocked
	// form once per merge; every UpdateVect panel then reuses the packed
	// operands instead of re-streaming (and re-packing) Q2 per panel. The
	// Gatherv on the parent V orders it after every PermuteV reader (which
	// fill Q2Top/Q2Bot) while leaving it concurrent with the UpdateVect
	// gather group; the hPack write→read edge orders it before each use.
	packLabel := "PackV" + ms.span
	rt.SubmitPrio("PackV", packLabel, prio+prioSecular, func() {
		defer ms.done()
		l.file("PackV", packLabel, m.Pack(), nil)
	}, quark.Gather(hV), quark.Write(hPack))

	// UpdateVect: V = Ṽ × X, two compressed GEMMs per panel (through the
	// shared packed operands where PackV judged the shape worthwhile), once
	// CopyBackDeflated p has moved the deflated vectors out of the panel's
	// columns (the hPerm[p] read). The merge-done bookkeeping runs through a
	// sync.Once on the success path — not a defer — so a panel failing its
	// ABFT checksum does not release the shared workspace its in-place
	// re-execution is about to read, and the retry's own completion still
	// releases it exactly once.
	for p := 0; p < npanels; p++ {
		var once sync.Once
		label := ms.name("UpdateVect", p)
		rt.SubmitPrio("UpdateVect", label, prio+prioUpdate, func() {
			ops, hits, misses, err := m.Update(m.Panel(p))
			if hits > 0 {
				st.count("UpdateVectPackHit", int64(hits))
			}
			if misses > 0 {
				st.count("UpdateVectPackMiss", int64(misses))
			}
			l.file("UpdateVect", label, ops, err)
			once.Do(ms.done)
		}, quark.Gather(hV), quark.Read(hPack), quark.Read(hPerm[p]), quark.Read(ms.hSec[p]))
	}

	// Redistribution back to block-cyclic layout (ScaLAPACK model only).
	if o.Mode == ModeScaLAPACK {
		for p := 0; p < npanels; p++ {
			g0, g1 := p*nb, min((p+1)*nb, nm)
			label := ms.name("RedistOut", p)
			rt.SubmitPrio("Redistribute", label, prio+prioRedistrib, func() {
				for g := g0; g < g1; g++ {
					copy(redist[g*nm:g*nm+nm], qq[g*ldq:g*ldq+nm])
				}
				st.countTask("Redistribute", label, int64(g1-g0)*int64(nm))
			}, quark.Read(hV), quark.ReadWrite(hPerm[p]), quark.Read(ms.hSec[p]))
		}
	}
}

// sort submits the root sort as one plan task and 2W panel tasks, all of
// class SortEigenvectors. The plan orders d (lapack.SortOrder), scales it
// back and splits the column permutation's cycles into the panels'
// segments (lapack.NewFinalSort); each panel then writes its destination
// columns. On a caller's q every entry is written by the end; on an owned
// q, which is +0 outside the spans, only the source span rows and the
// destination's old span rows are.
func (l *vectorLane) sort(root *node, orgnrm float64) {
	const class = "SortEigenvectors"
	rt, n, st := l.rt, l.n, l.st
	segs := 2 * rt.Workers()
	rt.Submit(class, "sort", func() {
		l.place(root) // a single leaf has no merge to place it
		lapack.SortOrder(n, l.d, l.indxq, orgnrm)
		l.fs = lapack.NewFinalSort(n, l.indxq, l.q, l.ldq, l.sp, segs, l.owned)
		st.countTask(class, "sort", int64(n))
		corruptHook(class, l.d[:n])
	}, quark.ReadWrite(root.hV), quark.ReadWrite(root.hD))
	for s := range segs {
		label := fmt.Sprintf("sort[%d]", s)
		rt.Submit(class, label, func() {
			if words := l.fs.Segment(s); words > 0 {
				st.countTask(class, label, words)
			}
		}, quark.Gather(root.hV))
	}
}

// release returns the leaf blocks no merge placed and the root sort's saved
// vectors to the pool: a failed or cancelled solve may have skipped the
// placing merge, or run the sort's plan but not its panels.
func (l *vectorLane) release() {
	for _, nd := range l.leaves {
		pool.Put(nd.blk)
		nd.blk = nil
	}
	if l.fs != nil {
		l.fs.Release()
	}
}
