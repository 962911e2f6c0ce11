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
	// MinPartition is the leaf cutoff of the D&C tree (leaves at most this
	// size are solved by Dsteqr). The default (DefaultMinPartition, 48)
	// keeps the O(m³) QR iteration on the leaves from dominating
	// heavily-deflating solves — with 128-wide leaves the leaf solves are
	// over half the n=2000 wall time, while the extra merge level costs only
	// a few small GEMMs. LAPACK's DSTEDC uses SMLSIZ=25 for the same reason.
	MinPartition int
	// CaptureGraph records the task DAG with per-task timings.
	CaptureGraph bool
	// Mode selects the execution model (default ModeTaskFlow).
	Mode Mode
	// Progress, when non-nil, is called after every executed task of a
	// task-flow solve (the quark WithProgress heartbeat), and after every
	// leaf and merge of a ModeSequential or ModeForkJoin solve. External
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
const DefaultMinPartition = 48

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
		if n <= o.MinPartition {
			return res, lapack.Dsterf(n, d, e)
		}
	}

	// The baselines and the single leaf write q from their first step on,
	// so they allocate it up front; the task flow allocates it beside the
	// leaves (flow.submit).
	allocate := func() {
		if q == nil && !o.ValuesOnly {
			q, ldq = make([]float64, n*n), n
			res.Q = q
		}
	}
	switch o.Mode {
	case ModeSequential:
		allocate()
		err := lapack.Dstedc(n, d, e, q, ldq, &lapack.DCConfig{SmallSize: o.MinPartition, Progress: o.Progress})
		return res, err
	case ModeForkJoin:
		allocate()
		workers := o.Workers
		gemm := func(ta, tb bool, m, nn, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
			blas.DgemmParallel(workers, ta, tb, m, nn, k, alpha, a, lda, b, ldb, beta, c, ldc)
		}
		err := lapack.Dstedc(n, d, e, q, ldq, &lapack.DCConfig{SmallSize: o.MinPartition, Gemm: gemm, Progress: o.Progress})
		return res, err
	}

	if n <= o.MinPartition {
		// Single leaf: no tree, solve directly (with the QR retry net).
		allocate()
		fellBack, err := lapack.DsteqrRobust(n, d, e, q, ldq)
		if fellBack {
			res.Stats.count("STEDCFallback", 1)
		}
		return res, err
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
	// Shutdown joins the workers, so after it no task can touch a merge
	// state: return the workspace of every merge whose release a failed or
	// cancelled task skipped.
	rt.Shutdown()
	for _, ms := range f.merges {
		ms.release()
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

// kahanSum returns the compensated sum, the absolute-value sum, and the
// absolute maximum of v: the trace invariant compares Σd across a merge
// against a ~256·eps tolerance, which naive n-term summation noise
// (O(n·eps·Σ|d|)) would exceed for large one-signed spectra; compensation
// makes the summation error O(eps·Σ|d|) independent of n.
func kahanSum(v []float64) (sum, absSum, maxAbs float64) {
	var c float64
	for _, x := range v {
		a := math.Abs(x)
		absSum += a
		if a > maxAbs {
			maxAbs = a
		}
		y := x - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum, absSum, maxAbs
}

// node is one subtree of the D&C partition.
type node struct {
	start, size int
	hV, hD      *quark.Handle
	// blk is a vector-lane leaf's eigenvector block (size×size, pooled)
	// until the parent merge places it into V; nil otherwise.
	blk []float64
}

// lane is the set of kernels that differ between the full eigenvector solve
// (vectorLane) and the values-only solve (valuesLane, dc_vo.go). Both lanes
// share one tree (flow.submit) and one set of merge joins (flow.submitMerge,
// submitLAED4, submitReduceW); a lane adds only the panel tasks between a
// merge's deflation and Dlamrg joins, and the kernels inside the shared
// tasks.
type lane interface {
	// output makes sure the lane's result storage exists; the vector lane
	// allocates V here when the caller passed none. It runs on the
	// submitting goroutine once the leaves are submitted, and returns
	// ctx.Err() instead if the solve is already cancelled.
	output() error
	// zero handles the zero matrix, which needs no tree.
	zero()
	// leaf solves leaf nd's block of (d, e) in place.
	leaf(nd *node) (fellBack bool, err error)
	// deflate forms merge ms's z-vector, runs the deflation scan and
	// allocates the lane's merge workspace.
	deflate(ms *mergeState, rho float64, z []float64) (*lapack.Deflation, error)
	// panels submits the lane's panel tasks of merge ms.
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
	// leaves and merges collect the tree's nodes and merge states so the
	// caller can sweep abandoned scratch after the runtime stops.
	leaves []*node
	merges []*mergeState
}

// submit submits the whole task graph in sequential program order: Scale,
// one STEDC task per leaf, the merge levels bottom-up and the root sort.
// Between the leaves and the merges it lets the lane allocate its output,
// so that the allocation's zeroing runs on this goroutine while the workers
// solve the leaves (the paper's LASET tasks overlap them the same way). The
// level-synchronized modes (ModeLevelSync, ModeScaLAPACK) barrier on
// rt.Wait between tree levels.
func (f *flow) submit() error {
	rt, n, d, e, st := f.rt, f.n, f.d, f.e, f.st
	sizes := lapack.PartitionSizes(n, f.o.MinPartition)
	starts := make([]int, len(sizes)+1)
	for i, s := range sizes {
		starts[i+1] = starts[i] + s
	}

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
			fellBack, err := f.lane.leaf(nd)
			if err != nil {
				panic(err)
			}
			if fellBack {
				st.count("STEDCFallback", 1)
			}
			for j := 0; j < sz; j++ {
				f.indxq[st0+j] = j
			}
			st.countTask("STEDC", label, int64(sz)*int64(sz)*int64(sz))
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
			f.submitMerge(parent, left, right, lvl)
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

// mergeState is one merge node: its geometry and handles, fixed at submit
// time, and the runtime-shared state filled by the Compute-deflation task and
// consumed by the panel tasks.
type mergeState struct {
	parent *node
	// start, nm and n1 place the merge: columns [start, start+nm), the left
	// child n1 wide. nb and npanels are the submit-time panel width and
	// count; root marks the merge of width n.
	start, nm, n1, nb, npanels int
	left, right                *node
	root                       bool
	prio                       int
	span                       string // "[start:start+nm]", the merge's label suffix
	dd                         []float64
	ixq                        []int
	hS                         *quark.Handle   // merge-wide workspace handle
	hSec                       []*quark.Handle // secular panel handles

	df *lapack.Deflation
	ws *lapack.MergeWorkspace
	// The secular phase's per-merge state, in both lanes: each root as the
	// two doubles λ_j = porg[j] + ptau[j] its LAED4 panel recorded (no delta
	// column exists), the per-panel Gu partial products, and ReduceW's
	// stabilized ẑ and poles in grouped order (lapack.Deflation.FinishW).
	porg, ptau  []float64
	wlocs       [][]float64
	what, poles []float64
	// nbSec is the panel width of the secular tasks (LAED4, ComputeLocalW,
	// ComputeVect, UpdateVect, PackV). With a fixed Options.PanelSize it
	// equals the submit-time nb; in adaptive mode the deflation task
	// recomputes it from the post-deflation k before any secular task runs
	// (every secular task depends on the deflation join through hS or the
	// parent handles, so the write is ordered before all reads).
	nbSec int
	// Values-only merge state (nil on the full path, and at the root of a
	// values-only solve, whose carrier has no consumer): the children's
	// rotated outer carrier rows in grouped order, zero-padded to length K
	// (vgtop: row 0, nonzero on the C12 top-block columns; vgbot: row nm-1,
	// nonzero on the C23 bottom-block columns).
	vgtop, vgbot []float64
	// ABFT trace invariant (DESIGN.md §18), filled by the deflation join:
	// the merged spectrum must sum to traceWant within traceTol (checked by
	// the Dlamrg join, which is ordered after every eigenvalue writer of the
	// merge). statIdx is the merge's MergeStat index so the measured defect
	// lands in the stats.
	traceWant, traceTol float64
	statIdx             int
	// pending counts the merge's not-yet-finished workspace consumers
	// (UpdateVect and CopyBackDeflated panels plus PackV on the full path,
	// the UpdateZ panels on the values-only path); when the last one
	// finishes, the pooled workspace and packed operands are recycled.
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
		ms.release()
	}
}

// takeSecular takes the secular phase's per-merge buffers for a secular
// problem of order k from the pool (the deflation join calls it).
func (ms *mergeState) takeSecular(k int) {
	ms.porg, ms.ptau = pool.Get(k), pool.Get(k)
	ms.what, ms.poles = pool.Get(k), pool.Get(k)
}

// release returns every pooled buffer the merge still holds and sets it to
// nil, so a second call is a no-op.
func (ms *mergeState) release() {
	if ms.ws != nil {
		ms.ws.Release()
		ms.ws = nil
	}
	for _, b := range []*[]float64{&ms.what, &ms.poles, &ms.porg, &ms.ptau, &ms.vgtop, &ms.vgbot} {
		pool.Put(*b)
		*b = nil
	}
	for p, wl := range ms.wlocs {
		pool.Put(wl)
		ms.wlocs[p] = nil
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
// Compute-deflation join, the lane's panel tasks, and the Dlamrg join.
func (f *flow) submitMerge(parent, left, right *node, lvl int) {
	rt, o, st := f.rt, f.o, f.st
	start, nm := parent.start, parent.size
	nb := o.PanelSize
	if nb <= 0 {
		nb = adaptivePanelNB(nm, rt.Workers())
	}
	npanels := (nm + nb - 1) / nb
	ms := &mergeState{parent: parent, start: start, nm: nm, n1: left.size, nb: nb, npanels: npanels,
		left: left, right: right, root: nm == f.n, prio: lvl * prioStride, span: fmt.Sprintf("[%d:%d]", start, start+nm),
		dd: f.d[start : start+nm], ixq: f.indxq[start : start+nm],
		hS: rt.Handle(fmt.Sprintf("ws[%d:%d]", start, start+nm)), hSec: make([]*quark.Handle, npanels),
		wlocs: make([][]float64, npanels), nbSec: nb}
	for p := range ms.hSec {
		ms.hSec[p] = rt.Handle(fmt.Sprintf("sec[%d]@%d", p, start))
	}
	f.merges = append(f.merges, ms)
	rhoAddr := start + left.size - 1 // e index of the coupling element

	// Compute deflation: the first join. The lane places leaf children into
	// V, forms z and scans for deflation; the join around it records the
	// merge. The placement writes the children's blocks, hence the
	// ReadWrite on their handles.
	deflLabel := "deflate" + ms.span
	rt.SubmitPrio("ComputeDeflation", deflLabel, ms.prio+prioJoin, func() {
		// Trace invariant: capture Σd over the block at merge entry; the
		// deflation rotations preserve it exactly and the rank-one update
		// adds df.Rho, so the merged spectrum must sum to traceIn + Rho
		// (checked by the Dlamrg join).
		traceIn, absIn, dmaxIn := kahanSum(ms.dd)
		z := pool.Get(nm)
		defer pool.Put(z)
		df, err := f.lane.deflate(ms, f.e[rhoAddr], z)
		if err != nil {
			panic(err)
		}
		ms.df = df
		if o.PanelSize <= 0 {
			ms.nbSec = secularPanelNB(df.K, npanels, rt.Workers())
		}
		ms.traceWant, ms.traceTol = lapack.TraceBudget(traceIn, absIn, dmaxIn, df.Rho, nm)
		st.countTask("ComputeDeflation", deflLabel, int64(nm))
		ms.statIdx = st.recordMerge(lvl, nm, df.K, ms.nbSec)
		// A corrupted pole propagates into every secular root of the merge
		// and breaks the trace invariant; Dlamda is the join's output that
		// every later task reads.
		corruptHook("ComputeDeflation", df.Dlamda)
	}, quark.ReadWrite(parent.hV), quark.ReadWrite(parent.hD),
		quark.ReadWrite(left.hV), quark.ReadWrite(right.hV),
		quark.Read(left.hD), quark.Read(right.hD),
		quark.Write(ms.hS))

	f.lane.panels(ms)

	// Dlamrg: build the sorting permutation for the merged spectrum, reading
	// the deflated eigenvalues where the lane placed them (Deflation.Slot).
	// Its ReadWrite on the parent d-handle orders it after every eigenvalue
	// writer of the merge, so this is where the trace invariant is checked.
	mrgLabel := "Dlamrg" + ms.span
	rt.SubmitPrio("Dlamrg", mrgLabel, ms.prio+prioDlamrg, func() {
		k := ms.df.K
		corruptHook("Dlamrg", ms.dd)
		st.count("ABFTInvariant", 1)
		defect, terr := lapack.CheckTrace(ms.dd, nm, ms.traceWant, ms.traceTol)
		st.setMergeTraceDefect(ms.statIdx, defect)
		if terr != nil {
			st.count("ABFTInvariantFail", 1)
			panic(terr)
		}
		ms.df.MergeOrder(ms.dd, ms.ixq)
		if k > 0 {
			st.countTask("Dlamrg", mrgLabel, int64(nm))
		}
	}, quark.ReadWrite(parent.hD))
}

// submitLAED4 submits secular panel p of merge ms: the lane's secular kernel
// over the panel's columns, then the interlacing invariant. The panel range
// comes from ms.nbSec at run time, not from the submit-time nb: in adaptive
// mode the deflation task re-derives the width from the post-deflation k. An
// interlacing violation is panicked as a corruption error, which re-executes
// the panel in place (both lanes' kernels fully overwrite their outputs).
// The kernel returns its secular-function evaluations and bisection rescues
// (lapack.Deflation.SecularPanel); the evaluations of a panel that passed
// the check go into the merge's MergeStat. extra are the lane's accesses
// between the merge-wide and panel handles.
func (f *flow) submitLAED4(ms *mergeState, p int, kernel func(j0, j1 int) (evals, fallbacks int, err error), extra ...quark.Access) {
	st := f.st
	acc := append([]quark.Access{quark.Gather(ms.hS), quark.Gather(ms.parent.hD)}, extra...)
	label := ms.name("LAED4", p)
	f.rt.SubmitPrio("LAED4", label, ms.prio+prioSecular, func() {
		k := ms.df.K
		j0 := p * ms.nbSec
		j1 := min(j0+ms.nbSec, k)
		if j0 >= j1 {
			return
		}
		evals, nfb, err := kernel(j0, j1)
		if err != nil {
			panic(err)
		}
		if nfb > 0 {
			st.count("LAED4Bisect", int64(nfb))
		}
		st.countTask("LAED4", label, int64(j1-j0)*int64(k))
		corruptHook("LAED4", ms.dd[j0:j1])
		st.count("ABFTInvariant", 1)
		if ierr := ms.df.CheckInterlacing(ms.dd, j0, j1); ierr != nil {
			st.count("ABFTInvariantFail", 1)
			panic(ierr)
		}
		st.addMergeEvals(ms.statIdx, evals)
	}, append(acc, quark.ReadWrite(ms.hSec[p]))...)
}

// submitReduceW submits the second join, combining the panel products into ẑ.
func (f *flow) submitReduceW(ms *mergeState) {
	label := "ReduceW" + ms.span
	f.rt.SubmitPrio("ReduceW", label, ms.prio+prioJoin, func() {
		ms.df.FinishW(ms.what, ms.poles, ms.wlocs...)
		for p, wl := range ms.wlocs {
			pool.Put(wl)
			ms.wlocs[p] = nil
		}
		f.st.countTask("ReduceW", label, int64(ms.df.K))
		corruptHook("ReduceW", ms.what)
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

// leaf solves the block into a pooled sz×sz buffer, not into q, which the
// submitting goroutine may still be allocating; the parent merge places it
// (place). The arithmetic is the same as in q, at leading dimension sz.
// The buffer is published before the solve, so a failed leaf's buffer is
// returned by release.
func (l *vectorLane) leaf(nd *node) (bool, error) {
	st0, sz := nd.start, nd.size
	nd.blk = pool.Get(sz * sz)
	return lapack.DsteqrRobust(sz, l.d[st0:st0+sz], l.e[st0:st0+max(sz-1, 0)], nd.blk, sz)
}

// place copies leaf nd's block into its diagonal block of q and marks its
// columns valid on the block's rows: the rest of each column is a
// structural zero, never written here. It does nothing for a node that is
// not a leaf.
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

func (l *vectorLane) deflate(ms *mergeState, rho float64, z []float64) (*lapack.Deflation, error) {
	l.place(ms.left)
	l.place(ms.right)
	w := l.window(ms)
	w.FormZ(ms.n1, z)
	df, err := lapack.Dlaed2Deflate(w, ms.n1, ms.dd, ms.ixq, rho, z)
	if err != nil {
		return nil, err
	}
	ms.ws = lapack.NewMergeWorkspace(df)
	ms.takeSecular(df.K)
	return df, nil
}

func (l *vectorLane) panels(ms *mergeState) {
	rt, o, st := l.rt, l.o, l.st
	ldq, nm, nb, npanels, prio, dd := l.ldq, ms.nm, ms.nb, ms.npanels, ms.prio, ms.dd
	w := l.window(ms)
	qq := w.Q
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
			words := ms.df.PermutePanel(w, ms.ws, g0, g1)
			if words == 0 {
				return
			}
			st.countTask("PermuteV", label, int64(words))
			// Corrupt only the first column this panel wrote — the other
			// panels' regions are being written concurrently.
			corruptHook("PermuteV", ms.df.PermutedColumn(ms.ws, g0))
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
		l.submitLAED4(ms, p, func(j0, j1 int) (int, int, error) {
			return ms.df.SecularPanel(dd, ms.porg, ms.ptau, j0, j1)
		}, quark.Read(hPerm[p]))
	}

	// ComputeLocalW: panel-local factors of Gu's stabilization product, from
	// the panel's (org, tau) roots.
	for p := 0; p < npanels; p++ {
		label := ms.name("ComputeLocalW", p)
		rt.SubmitPrio("ComputeLocalW", label, prio+prioSecular, func() {
			k := ms.df.K
			j0 := p * ms.nbSec
			j1 := min(j0+ms.nbSec, k)
			if j0 >= j1 {
				return
			}
			wl := pool.Get(k)
			// Publish the buffer before running the kernel: if LocalWPanel
			// panics, the post-shutdown release must see wl to return it.
			ms.wlocs[p] = wl
			for i := range wl {
				wl[i] = 1
			}
			ms.df.LocalWPanel(ms.porg, ms.ptau, wl, j0, j1)
			st.countTask("ComputeLocalW", label, int64(j1-j0)*int64(k))
			corruptHook("ComputeLocalW", wl)
		}, quark.Gather(ms.hS), quark.ReadWrite(ms.hSec[p]))
	}

	l.submitReduceW(ms)

	// CopyBackDeflated: empty the columns UpdateVect panel p is about to
	// write — the same runtime partition, [p·nbSec, (p+1)·nbSec) ∩ [0, K) —
	// by moving each deflated vector there, with its eigenvalue, into a
	// column >= K that a non-deflated vector vacated. Deflated vectors at or
	// beyond K never move. Runs concurrently with ReduceW/ComputeLocalW
	// (Figure 2): the Gatherv-vs-readers rule on hV orders it after every
	// PermuteV read of the columns it fills, and UpdateVect p reads hPerm[p]
	// to run after it.
	for p := 0; p < npanels; p++ {
		label := ms.name("CopyBack", p)
		rt.SubmitPrio("CopyBackDeflated", label, prio+prioCopy, func() {
			defer ms.done()
			c0 := p * ms.nbSec
			words := ms.df.CopyBackPanel(w, dd, c0, c0+ms.nbSec)
			if words == 0 {
				return
			}
			st.countTask("CopyBackDeflated", label, int64(words))
			if faultinject.Active() {
				// Corrupt the first eigenvalue this panel moved: the trace
				// check in Dlamrg catches any drift in the merged spectrum.
				for c := c0; ; c++ {
					if j := ms.df.Move[c]; j >= 0 {
						s := ms.df.Slot[j]
						corruptHook("CopyBackDeflated", dd[s:s+1])
						break
					}
				}
			}
		}, quark.Gather(hV), quark.Gather(ms.parent.hD), quark.ReadWrite(hPerm[p]))
	}

	// ComputeVect: form the panel's secular eigenvectors from ẑ and the
	// (org, tau) roots, writing each column of S once. Reading perm[p] orders
	// it after CopyBackDeflated p: a scheduling order like LAED4's, not a
	// storage guard.
	for p := 0; p < npanels; p++ {
		label := ms.name("ComputeVect", p)
		rt.SubmitPrio("ComputeVect", label, prio+prioSecular, func() {
			k := ms.df.K
			j0 := p * ms.nbSec
			j1 := min(j0+ms.nbSec, k)
			if j0 >= j1 {
				return
			}
			ms.df.VectorsPanel(ms.ws.S, ms.what, ms.poles, ms.porg, ms.ptau, j0, j1)
			st.countTask("ComputeVect", label, int64(j1-j0)*int64(k))
			corruptHook("ComputeVect", ms.ws.S[j0*k:j1*k])
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
		k := ms.df.K
		if k == 0 {
			return
		}
		if bytes := ms.df.PackV(ms.ws, min(ms.nbSec, k)); bytes > 0 {
			st.countTask("PackV", packLabel, int64(bytes))
		}
		// Corrupt the packed operand itself, after its checksum rows were
		// computed from the clean data: every UpdateVect GEMM through it must
		// then fail verification.
		if faultinject.Active() {
			if ms.ws.PackTop != nil {
				faultinject.Corrupt("PackV", ms.ws.PackTop.PackedData())
			} else if ms.ws.PackBot != nil {
				faultinject.Corrupt("PackV", ms.ws.PackBot.PackedData())
			}
		}
	}, quark.Gather(hV), quark.Write(hPack))

	// UpdateVect: V = Ṽ × X, two compressed GEMMs per panel (through the
	// shared packed operands where PackV judged the shape worthwhile), once
	// CopyBackDeflated p has moved the deflated vectors out of the panel's
	// columns (the hPerm[p] read). The merge-done bookkeeping runs through a
	// sync.Once on the success path — not a defer — so a panel panicking on
	// a failed ABFT checksum does not release the shared workspace its
	// in-place re-execution is about to read, and the retry's own completion
	// still releases it exactly once.
	for p := 0; p < npanels; p++ {
		var once sync.Once
		label := ms.name("UpdateVect", p)
		rt.SubmitPrio("UpdateVect", label, prio+prioUpdate, func() {
			k := ms.df.K
			j0 := p * ms.nbSec
			j1 := min(j0+ms.nbSec, k)
			if j0 >= j1 {
				once.Do(ms.done)
				return
			}
			hits, misses := ms.df.UpdatePanel(w, ms.ws, j0, j1, nil)
			if hits > 0 {
				st.count("UpdateVectPackHit", int64(hits))
			}
			if misses > 0 {
				st.count("UpdateVectPackMiss", int64(misses))
			}
			st.countTask("UpdateVect", label, 2*int64(j1-j0)*int64(nm)*int64(k))
			corruptHook("UpdateVect", qq[j0*ldq:j0*ldq+nm])
			checked, cerr := ms.df.VerifyUpdatePanel(qq, ldq, ms.ws, j0, j1)
			if checked > 0 {
				st.count("ABFTChecksum", int64(checked))
			}
			if cerr != nil {
				st.count("ABFTChecksumFail", 1)
				panic(cerr)
			}
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
