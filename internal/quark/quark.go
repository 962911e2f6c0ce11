// Package quark implements a QUARK-style dynamic task runtime: a master
// goroutine submits tasks in sequential program order, declaring how each
// task accesses shared data through typed handles (In / Out / InOut /
// Gatherv); the runtime infers dependencies from those declarations and
// executes tasks out of order on a pool of worker goroutines as their
// dependencies resolve.
//
// The Gatherv mode reproduces the extension the paper adds to QUARK: a group
// of tasks that all write disjoint parts of one large object (e.g. panels of
// the eigenvector matrix) may run concurrently with each other, while any
// ordinary reader or writer submitted afterwards waits for the whole group.
// This keeps the number of declared dependencies per task constant instead
// of Θ(n/nb).
//
// Scheduling policy (see DESIGN.md §7): every ready task waits in one binary
// heap ordered by (priority descending, submission order ascending), held
// under the runtime mutex that every Submit and every completion already
// takes. A worker that finds the heap empty sleeps on a condition variable
// on that mutex, signalled once per enqueued task. The replay simulator
// (internal/sched) schedules from the same heap type, so a replayed schedule
// follows the runtime's order.
//
// Failure-aware cancellation: when a task panics, every transitive successor
// is skipped instead of executed (their kernels would run against
// half-initialized state); Wait reports the root-cause error only.
//
// External cancellation: a runtime created with WithContext aborts when the
// context is cancelled or its deadline expires. The kernel currently running
// on each worker finishes (tasks are never interrupted mid-kernel), every
// not-yet-started task is skipped and marked Canceled, and Wait returns
// ctx.Err() promptly instead of draining the DAG first. Workers check the
// context before every kernel, so no task starts after the cancellation.
//
// Fault injection: when the faultinject registry is armed (chaos tests
// only), each task consults it before running its kernel; the disabled cost
// is a single atomic load per task.
package quark

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tridiag/internal/faultinject"
)

// AccessMode declares how a task uses a handle.
type AccessMode int

const (
	// In marks read-only access.
	In AccessMode = iota
	// Out marks write-only access.
	Out
	// InOut marks read-write access.
	InOut
	// Gatherv marks concurrent-group write access: Gatherv tasks on the
	// same handle are unordered among themselves (the submitter guarantees
	// they touch disjoint parts) but act as writers towards everyone else.
	Gatherv
)

// Handle identifies a unit of data tracked for dependency analysis. Handles
// must be created by Runtime.Handle and used only from the submitting
// goroutine.
type Handle struct {
	name       string
	lastWriter *task
	readers    []*task
	gatherers  []*task
}

// TaskError is the failure of one task: the kernel class and label of the
// task whose kernel failed (or panicked), wrapping the underlying cause.
// Watchdogs and circuit breakers key retry policy on the class
// (faultinject.ClassOf reads it through the TaskClass method).
type TaskError struct {
	Class string
	Label string
	Err   error
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("task %q (%s): %v", e.Label, e.Class, e.Err)
}

// Unwrap exposes the underlying cause (e.g. a faultinject.ErrInjected).
func (e *TaskError) Unwrap() error { return e.Err }

// TaskClass returns the kernel class of the failed task.
func (e *TaskError) TaskClass() string { return e.Class }

// Access pairs a handle with the mode a task uses it in.
type Access struct {
	H    *Handle
	Mode AccessMode
}

// Read, Write, ReadWrite and Gather are convenience constructors for Access.
func Read(h *Handle) Access      { return Access{h, In} }
func Write(h *Handle) Access     { return Access{h, Out} }
func ReadWrite(h *Handle) Access { return Access{h, InOut} }
func Gather(h *Handle) Access    { return Access{h, Gatherv} }

type task struct {
	id       int // submission order; FIFO tie-break within a priority level
	class    string
	label    string
	priority int
	fn       func()
	pending  int
	succs    []*task
	done     bool
	canceled bool // a transitive predecessor failed; skip fn
}

// TaskInfo describes one executed task in a captured graph.
type TaskInfo struct {
	ID       int
	Class    string // kernel class (e.g. "LAED4"), used for trace coloring
	Label    string
	Priority int
	Worker   int           // worker that executed the task (-1 if never executed)
	Canceled bool          // skipped because a transitive predecessor failed
	Start    time.Duration // relative to runtime creation
	End      time.Duration
}

// Duration returns the task's measured execution time.
func (ti TaskInfo) Duration() time.Duration { return ti.End - ti.Start }

// Graph is the captured task DAG of a run: every submitted task plus every
// inferred dependency edge, with measured execution times. It feeds the
// trace renderers and the schedule replay simulator.
type Graph struct {
	Tasks []TaskInfo
	Edges [][2]int // (from, to) task IDs; from must complete before to starts
}

// ReadyHeap is the ready-task queue: a binary heap that pops by priority
// (higher first), then by submission id (lower first), so the tasks of one
// priority level keep their sequential task-flow order. The runtime and the
// replay simulator (internal/sched) both schedule from it, so a replayed
// schedule follows the runtime's order. The zero value is an empty heap.
type ReadyHeap[T any] struct{ items []readyItem[T] }

type readyItem[T any] struct {
	priority, id int
	v            T
}

// before is the heap order: priority descending, submission id ascending.
func (a readyItem[T]) before(b readyItem[T]) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.id < b.id
}

// Len returns the number of queued items.
func (h *ReadyHeap[T]) Len() int { return len(h.items) }

// Push queues v under its priority and submission id.
func (h *ReadyHeap[T]) Push(priority, id int, v T) {
	h.items = append(h.items, readyItem[T]{priority, id, v})
	it := h.items
	for i := len(it) - 1; i > 0; {
		p := (i - 1) / 2
		if !it[i].before(it[p]) {
			break
		}
		it[i], it[p] = it[p], it[i]
		i = p
	}
}

// Pop removes and returns the first item in heap order; ok is false when
// the heap is empty.
func (h *ReadyHeap[T]) Pop() (v T, ok bool) {
	it := h.items
	n := len(it) - 1
	if n < 0 {
		return v, false
	}
	v = it[0].v
	it[0] = it[n]
	it[n] = readyItem[T]{}
	it = it[:n]
	h.items = it
	for i := 0; ; {
		best, l, r := i, 2*i+1, 2*i+2
		if l < n && it[l].before(it[best]) {
			best = l
		}
		if r < n && it[r].before(it[best]) {
			best = r
		}
		if best == i {
			break
		}
		it[i], it[best] = it[best], it[i]
		i = best
	}
	return v, true
}

// Runtime schedules tasks over a fixed pool of worker goroutines.
type Runtime struct {
	mu        sync.Mutex // dependency graph, ready heap, counters, capture, error state
	ready     ReadyHeap[*task]
	work      *sync.Cond // on mu; signalled once per enqueue, broadcast on abort and Shutdown
	done      *sync.Cond // on mu; broadcast when completed == submitted
	workers   int
	submitted int
	completed int
	skipped   int64
	firstErr  error
	closed    bool
	capture   bool
	graph     *Graph
	start     time.Time
	wg        sync.WaitGroup

	ctx     context.Context // nil unless WithContext
	ctxDone <-chan struct{} // ctx.Done(); nil without a cancellable context
	ctxErr  error           // on mu; set once when ctx is cancelled
	stop    chan struct{}   // closed by Shutdown; ends the context watcher

	taskTimer func(class string, d time.Duration) // WithTaskTimer observer, may be nil
	progress  func()                              // WithProgress observer, may be nil

	retryPred func(class string, err error) bool // WithTaskRetry predicate, may be nil
	retries   atomic.Int64                       // kernels re-executed after a retryable failure
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithGraphCapture records the task DAG and per-task timings, retrievable
// via Graph after Wait.
func WithGraphCapture() Option {
	return func(rt *Runtime) { rt.capture = true }
}

// WithContext binds the runtime to ctx: when ctx is cancelled (or its
// deadline expires), in-flight kernels finish, all remaining tasks are
// skipped and marked Canceled, and Wait returns ctx.Err().
func WithContext(ctx context.Context) Option {
	return func(rt *Runtime) { rt.ctx, rt.ctxDone = ctx, ctx.Done() }
}

// WithTaskTimer registers an observer called once per executed task with the
// task's class and measured kernel wall time (skipped tasks are not
// reported). The observer runs on worker goroutines outside the runtime
// locks, so it must be concurrency-safe and cheap — one atomic add per task
// is the intended shape.
func WithTaskTimer(obs func(class string, d time.Duration)) Option {
	return func(rt *Runtime) { rt.taskTimer = obs }
}

// WithProgress registers an observer called once after every executed task's
// kernel finishes (skipped tasks are not reported): the heartbeat external
// watchdogs use to distinguish a solve that is making progress from one that
// is stalled. The observer runs on worker goroutines outside the runtime
// locks, so it must be concurrency-safe and cheap — storing a timestamp into
// an atomic is the intended shape.
func WithProgress(fn func()) Option {
	return func(rt *Runtime) { rt.progress = fn }
}

// WithTaskRetry registers a task re-execution predicate: when a task's
// kernel fails (error or panic) and pred(class, err) is true, the kernel is
// invoked once more in place — same worker, same closure — before the
// failure is declared. This is the task-granular self-healing path for
// detected silent data corruption (an ABFT checksum mismatch or violated
// merge invariant): the corrupted panel alone is recomputed instead of
// failing the whole solve. The submitter must only approve classes whose
// kernels are idempotent (they fully overwrite their outputs and do not
// transform state in place); the predicate runs on worker goroutines and
// must be concurrency-safe. Retries are counted in Retries.
func WithTaskRetry(pred func(class string, err error) bool) Option {
	return func(rt *Runtime) { rt.retryPred = pred }
}

// New creates a runtime with the given number of workers (<=0 selects
// GOMAXPROCS). Call Shutdown when done.
func New(workers int, opts ...Option) *Runtime {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rt := &Runtime{workers: workers, start: time.Now()}
	rt.work = sync.NewCond(&rt.mu)
	rt.done = sync.NewCond(&rt.mu)
	for _, o := range opts {
		o(rt)
	}
	if rt.capture {
		rt.graph = &Graph{}
	}
	if rt.ctx != nil {
		if err := rt.ctx.Err(); err != nil {
			// Already cancelled: guarantee synchronously that no task will
			// ever run, rather than racing the watcher against Submit.
			rt.ctxErr = err
		} else {
			rt.stop = make(chan struct{})
			rt.wg.Add(1)
			go rt.watchContext()
		}
	}
	rt.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go rt.worker(w)
	}
	return rt
}

// watchContext aborts the runtime when its context is cancelled; Shutdown
// closes stop so the watcher never outlives the runtime (no goroutine leak).
func (rt *Runtime) watchContext() {
	defer rt.wg.Done()
	select {
	case <-rt.ctx.Done():
		rt.mu.Lock()
		rt.abortLocked(rt.ctx.Err())
		rt.mu.Unlock()
	case <-rt.stop:
	}
}

// abortLocked records the cancellation cause, wakes Wait, and wakes every
// worker so queued tasks drain (each is skipped, not run).
func (rt *Runtime) abortLocked(cause error) {
	if rt.ctxErr == nil {
		rt.ctxErr = cause
		rt.done.Broadcast()
		rt.work.Broadcast()
	}
}

// cancelled reports whether the runtime's context is done, without waiting
// for the watcher goroutine to notice.
func (rt *Runtime) cancelled() bool {
	select {
	case <-rt.ctxDone:
		return true
	default:
		return false
	}
}

// Workers returns the size of the worker pool.
func (rt *Runtime) Workers() int { return rt.workers }

// Handle creates a named data handle for dependency tracking.
func (rt *Runtime) Handle(name string) *Handle {
	return &Handle{name: name}
}

// Submit registers a task in sequential program order. class groups tasks of
// the same kernel for tracing; label distinguishes instances. The task may
// start running before Submit returns. Priority 0 is normal; tasks are
// scheduled by numeric priority (higher first), submission order within a
// priority level.
func (rt *Runtime) Submit(class, label string, fn func(), accesses ...Access) {
	rt.SubmitPrio(class, label, 0, fn, accesses...)
}

// SubmitPrio is Submit with an explicit priority.
func (rt *Runtime) SubmitPrio(class, label string, priority int, fn func(), accesses ...Access) {
	t := &task{class: class, label: label, priority: priority, fn: fn}

	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		panic("quark: Submit after Shutdown")
	}
	t.id = rt.submitted
	rt.submitted++

	// deps are the unfinished predecessors (for scheduling); allDeps also
	// keeps already-finished ones so the captured graph carries every true
	// dependency edge, even when a predecessor completed before this Submit.
	deps := make(map[*task]struct{})
	allDeps := make(map[*task]struct{})
	addDep := func(d *task) {
		if d == nil {
			return
		}
		allDeps[d] = struct{}{}
		if !d.done {
			deps[d] = struct{}{}
		}
	}
	for _, ac := range accesses {
		h := ac.H
		switch ac.Mode {
		case In:
			addDep(h.lastWriter)
			for _, g := range h.gatherers {
				addDep(g)
			}
			h.readers = append(h.readers, t)
		case Gatherv:
			addDep(h.lastWriter)
			for _, r := range h.readers {
				addDep(r)
			}
			h.gatherers = append(h.gatherers, t)
		case Out, InOut:
			addDep(h.lastWriter)
			for _, r := range h.readers {
				addDep(r)
			}
			for _, g := range h.gatherers {
				addDep(g)
			}
			h.lastWriter = t
			h.readers = h.readers[:0:0]
			h.gatherers = h.gatherers[:0:0]
		default:
			panic(fmt.Sprintf("quark: unknown access mode %d", ac.Mode))
		}
	}
	t.pending = len(deps)
	for d := range deps {
		d.succs = append(d.succs, t)
	}
	// A dependency that already failed or was skipped cannot reach us through
	// succs (they were consumed at its completion); a still-pending one will
	// cancel us via finishLocked. Either way, propagate eagerly so tasks
	// submitted after a failure are skipped too.
	for d := range allDeps {
		if d.canceled {
			t.canceled = true
		}
	}
	if rt.ctxErr != nil {
		// Cancelled runtime: never start new work. Tasks with unfinished
		// predecessors are cancelled through the skip cascade instead.
		t.canceled = true
	}

	if rt.capture {
		rt.graph.Tasks = append(rt.graph.Tasks, TaskInfo{
			ID: t.id, Class: class, Label: label, Priority: priority,
			Worker: -1,
		})
		for d := range allDeps {
			rt.graph.Edges = append(rt.graph.Edges, [2]int{d.id, t.id})
		}
	}

	if t.pending == 0 {
		if t.canceled {
			rt.skipLocked(t)
		} else {
			rt.enqueueLocked(t)
		}
	}
}

// enqueueLocked queues a ready task and wakes one sleeping worker.
func (rt *Runtime) enqueueLocked(t *task) {
	rt.ready.Push(t.priority, t.id, t)
	rt.work.Signal()
}

// worker runs ready tasks in heap order, sleeping while the heap is empty,
// until Shutdown finds the heap empty.
func (rt *Runtime) worker(id int) {
	defer rt.wg.Done()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for {
		if t, ok := rt.ready.Pop(); ok {
			rt.run(id, t)
		} else if rt.closed {
			return
		} else {
			rt.work.Wait()
		}
	}
}

// run executes t on worker id. mu is held on entry and on return; the kernel
// runs without it.
func (rt *Runtime) run(id int, t *task) {
	if rt.ctxErr == nil && rt.cancelled() {
		// Check the context itself, not only the watcher's abort: a worker
		// that just finished a kernel must not start the next task before
		// the watcher goroutine gets to run.
		rt.abortLocked(rt.ctx.Err())
	}
	if rt.ctxErr != nil {
		// The context was cancelled after this task became ready: skip its
		// kernel and cascade the cancellation to its successors.
		rt.skipLocked(t)
		return
	}
	rt.mu.Unlock()
	start := time.Since(rt.start)
	runKernel := func() error {
		if faultinject.Active() {
			// Probes are bounded by the runtime's context (when it has one) so
			// an injected delay can never outlive a cancelled solve.
			fctx := rt.ctx
			if fctx == nil {
				fctx = context.Background()
			}
			return safeCall(func() {
				if ferr := faultinject.FireCtx(fctx, t.class); ferr != nil {
					panic(ferr)
				}
				t.fn()
			})
		}
		return safeCall(t.fn)
	}
	err := runKernel()
	if err != nil && rt.retryPred != nil && !rt.cancelled() && rt.retryPred(t.class, err) {
		// Task-granular self-healing: re-execute the kernel once in place.
		// The predicate gates this to idempotent classes failing with
		// detected-corruption errors, so the recompute overwrites the
		// corrupted output instead of cascading the failure.
		rt.retries.Add(1)
		err = runKernel()
	}
	end := time.Since(rt.start)
	if rt.taskTimer != nil {
		rt.taskTimer(t.class, end-start)
	}
	if rt.progress != nil {
		rt.progress()
	}

	rt.mu.Lock()
	t.done = true
	if err != nil {
		// Reusing canceled as "failed": both mean "successors must be
		// skipped", including ones submitted after this completion.
		t.canceled = true
		if rt.firstErr == nil {
			rt.firstErr = &TaskError{Class: t.class, Label: t.label, Err: err}
		}
	}
	if rt.capture {
		ti := &rt.graph.Tasks[t.id]
		ti.Worker, ti.Start, ti.End = id, start, end
	}
	rt.completed++
	rt.finishLocked(t, err != nil)
}

// skipLocked completes a canceled task without running it and cascades the
// cancellation to its successors.
func (rt *Runtime) skipLocked(t *task) {
	t.done = true
	rt.completed++
	rt.skipped++
	if rt.capture {
		rt.graph.Tasks[t.id].Canceled = true
	}
	rt.finishLocked(t, true)
}

// finishLocked propagates a completion to the task's successors: failed (or
// skipped) tasks mark their successors canceled; successors whose last
// dependency resolved are either enqueued or skipped in turn. Skipping is
// iterative so a long canceled chain cannot overflow the stack. Wait wakes
// once every submitted task is complete.
func (rt *Runtime) finishLocked(t *task, failed bool) {
	type item struct {
		t      *task
		failed bool
	}
	stack := []item{{t, failed}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range it.t.succs {
			if it.failed {
				s.canceled = true
			}
			s.pending--
			if s.pending == 0 {
				if s.canceled {
					s.done = true
					rt.completed++
					rt.skipped++
					if rt.capture {
						rt.graph.Tasks[s.id].Canceled = true
					}
					stack = append(stack, item{s, true})
				} else {
					rt.enqueueLocked(s)
				}
			}
		}
		it.t.succs = nil
	}
	if rt.completed == rt.submitted {
		rt.done.Broadcast()
	}
}

func safeCall(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = e
			} else {
				err = fmt.Errorf("panic: %v", r)
			}
		}
	}()
	fn()
	return nil
}

// Wait blocks until every submitted task has completed or been skipped and
// returns the root-cause error, if any: transitive successors of a failed
// task are skipped rather than run, so secondary failures (kernels operating
// on half-initialized state) never occur and never mask the first error.
//
// If the runtime's context is cancelled, Wait returns promptly with
// ctx.Err() without waiting for the DAG to drain (a task failure observed
// before the cancellation still takes precedence as the root cause); the
// remaining tasks are skipped asynchronously and reclaimed by Shutdown.
func (rt *Runtime) Wait() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for rt.completed < rt.submitted && rt.ctxErr == nil {
		rt.done.Wait()
	}
	if rt.firstErr != nil {
		return rt.firstErr
	}
	return rt.ctxErr
}

// Skipped returns how many tasks were skipped because a transitive
// predecessor failed.
func (rt *Runtime) Skipped() int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.skipped
}

// Retries returns how many kernels were re-executed in place by the
// WithTaskRetry self-healing policy.
func (rt *Runtime) Retries() int64 { return rt.retries.Load() }

// Graph returns the captured DAG. Call after Wait; requires
// WithGraphCapture.
func (rt *Runtime) Graph() *Graph {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.graph
}

// Shutdown drains remaining tasks and stops the workers.
func (rt *Runtime) Shutdown() {
	rt.mu.Lock()
	already := rt.closed
	rt.closed = true
	rt.work.Broadcast()
	rt.mu.Unlock()
	if !already && rt.stop != nil {
		close(rt.stop)
	}
	rt.wg.Wait()
}
