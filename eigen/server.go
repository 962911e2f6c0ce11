package eigen

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tridiag/internal/core"
	"tridiag/internal/faultinject"
	"tridiag/internal/lapack"
	"tridiag/internal/pool"
	"tridiag/internal/resilience"
)

// Server is a multi-tenant solve service: many goroutines call Solve
// concurrently against one process-wide pool of workers and workspace.
// It wraps the task-flow solver with the arbitration a long-running service
// needs and a single library solve does not:
//
//   - Admission control: a bounded queue plus an explicit workspace budget.
//     A job whose queue slot, memory reservation, or deadline cannot be
//     honored is rejected immediately with ErrOverloaded instead of degrading
//     every other tenant.
//   - Watchdog: a per-solve goroutine observes task-completion heartbeats
//     (Options.Progress → quark.WithProgress) and aborts a solve that makes
//     no progress within the stall window through the normal context
//     cancellation path.
//   - Retries: transient failures (injected faults, stalls — classified by
//     faultinject.Transient) are retried on the primary tier with exponential
//     backoff and jitter; persistent numerical failures fall through to the
//     fallback route, the sequential tiers of the method's ladder (DSTEDC →
//     QR, or Dsterf for values-only jobs), verified as degraded tiers.
//   - Circuit breaker: a kernel class that keeps failing stops being retried;
//     new jobs route straight to the fallback route until a half-open probe
//     succeeds.
//   - Graceful drain: Shutdown stops admission, lets in-flight solves finish
//     (or cancels them at the drain deadline) and reports every job's
//     disposition.
//
// Breakers, backoff and drain follow the resilience policy cluster
// coordinators share (DESIGN.md §11).
type Server struct {
	cfg ServerConfig

	mu           sync.Mutex
	closed       bool
	queued       int   // admitted, waiting for a worker slot
	running      int   // holding a worker slot
	reserved     int64 // admitted-but-unfinished workspace reservations
	peakReserved int64
	avgNanos     float64 // EWMA of completed full-solve service time
	avgNanosVO   float64 // EWMA of completed values-only service time
	jobs         map[uint64]*serverJob
	idleTimer    *time.Timer // pending idle pool trim, nil when disarmed
	idleGen      uint64      // invalidates stale idle-trim timer firings

	nextID      atomic.Uint64
	slots       chan struct{}
	drainCtx    context.Context
	drainCancel context.CancelFunc

	bmu          sync.Mutex
	breakers     map[string]*resilience.Breaker // per failure class, on bmu
	breakerOpens atomic.Int64

	counts   [dispositionCount]atomic.Int64
	retries  atomic.Int64
	stalls   atomic.Int64
	admitted atomic.Int64

	corrDetected atomic.Int64 // silent-corruption detections across served jobs
	corrHealed   atomic.Int64 // detections healed by recompute, retry or fallback

	voAdmitted  atomic.Int64 // values_only jobs past admission
	voCompleted atomic.Int64 // values_only jobs served (completed/retried/degraded)
}

// ServerConfig tunes a Server; zero values select the documented defaults.
type ServerConfig struct {
	// MaxConcurrent is the number of solves executing at once
	// (default GOMAXPROCS). Each admitted job beyond it waits in the queue.
	MaxConcurrent int
	// MaxQueue bounds how many admitted jobs may wait for a slot
	// (default 4×MaxConcurrent). Beyond it, Solve returns ErrOverloaded.
	MaxQueue int
	// MemoryBudget caps the summed workspace reservations of admitted jobs,
	// in bytes (estimated per job by EstimateSolveBytes from its n and
	// worker count, and tracked for real by the pool accountant). 0 means
	// unlimited. A job whose reservation would exceed the budget is
	// rejected with ErrOverloaded.
	MemoryBudget int64
	// StallWindow is the watchdog's no-progress abort threshold per attempt
	// (default 10s; negative disables the watchdog). It must cover the
	// longest phase between two heartbeats: the task-flow tier beats after
	// every task, the dstedc tier after every leaf and merge, and the
	// result verification after every column it checks, while the other
	// sequential tiers (mrrr, qr, dsterf) send none.
	StallWindow time.Duration
	// MaxRetries is how many same-tier retries a transient failure earns
	// before the job degrades to the fallback tier (default 2; negative
	// means none).
	MaxRetries int
	// RetryBase is the first backoff delay; retry k waits
	// RetryBase·2^(k-1), capped at 16×RetryBase and jittered down by up to
	// half (default 10ms).
	RetryBase time.Duration
	// BreakerThreshold opens a failure class's circuit after this many
	// consecutive failures (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit routes jobs straight to
	// the fallback tier before one half-open probe may try the primary
	// tier again (default 2s). A failure while open restarts it.
	BreakerCooldown time.Duration
	// PoolIdleTrimDelay is how long the server must be completely idle
	// (no queued or running jobs) before it releases ALL idle pooled
	// scratch back to the GC (default 2s; negative disables idle
	// trimming). Busy periods never trigger it: any admission re-arms the
	// timer.
	PoolIdleTrimDelay time.Duration
	// Deprecated: BatchWindow has no effect. The server no longer coalesces
	// small solves into shared batches; every job is served on its own.
	BatchWindow time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.StallWindow == 0 {
		c.StallWindow = 10 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.PoolIdleTrimDelay == 0 {
		c.PoolIdleTrimDelay = 2 * time.Second
	}
	return c
}

// Sentinel errors of the admission layer. ErrOverloaded is always wrapped
// with the specific reason (queue full, budget exceeded, deadline
// unserviceable); match with errors.Is.
var (
	ErrOverloaded   = errors.New("eigen: server overloaded")
	ErrServerClosed = errors.New("eigen: server closed")
)

// errDrained is the cause of a job cancelled by a drain deadline.
var errDrained = fmt.Errorf("%w: drained", ErrServerClosed)

// errCircuitOpen is why a job the breakers routed straight to the fallback
// route never ran on its primary tier.
var errCircuitOpen = errors.New("eigen: server: primary tier skipped: circuit open")

// StallError is a watchdog abort: the solve made no task progress within
// the stall window. It is transient — the stall may have been an injected
// delay, a descheduled worker, or scheduler pathology — so the retry policy
// treats it like an injected fault.
type StallError struct {
	Window time.Duration
}

func (e *StallError) Error() string {
	return fmt.Sprintf("eigen: watchdog: no task progress within %v", e.Window)
}

// Transient marks stalls retryable (read by faultinject.Transient).
func (e *StallError) Transient() bool { return true }

// TaskClass attributes stalls to their own breaker class: a stall carries no
// kernel identity, but repeated stalls should trip a circuit all the same.
func (e *StallError) TaskClass() string { return "stall" }

// Disposition classifies how a serving tier finished with a job: an
// eigen.Server, or a cluster coordinator routing jobs across servers. Every
// job ends in exactly one disposition, reported with its result and
// aggregated in the tier's stats.
type Disposition int

const (
	// DispositionCompleted: served by the primary tier on the first attempt.
	DispositionCompleted Disposition = iota
	// DispositionRetried: served by the primary tier after at least one
	// transient-failure retry (on a coordinator: on the same worker).
	DispositionRetried
	// DispositionFailedOver: served by a different worker than the first
	// attempt after that attempt died (coordinators only).
	DispositionFailedOver
	// DispositionDegraded: served by the fallback tier — the validated
	// sequential chain on a server, the in-process local tier on a
	// coordinator.
	DispositionDegraded
	// DispositionRejected: refused at admission (malformed input, overload
	// or a closed tier).
	DispositionRejected
	// DispositionCancelled: the job's context was cancelled, its deadline
	// expired, or the drain cancelled it.
	DispositionCancelled
	// DispositionFailed: every tier failed, or a definitive failure made
	// another attempt pointless.
	DispositionFailed

	dispositionCount = int(DispositionFailed) + 1
)

func (d Disposition) String() string {
	switch d {
	case DispositionCompleted:
		return "completed"
	case DispositionRetried:
		return "retried-then-completed"
	case DispositionFailedOver:
		return "failed-over"
	case DispositionDegraded:
		return "degraded"
	case DispositionRejected:
		return "rejected"
	case DispositionCancelled:
		return "cancelled"
	case DispositionFailed:
		return "failed"
	}
	return fmt.Sprintf("Disposition(%d)", int(d))
}

// ServeResult is what the server reports for one job: the decomposition (nil
// when the job did not produce one) plus how it was served. It is non-nil
// even when Solve returns an error, so callers always get a classified
// disposition.
type ServeResult struct {
	*Result
	// Disposition classifies the outcome.
	Disposition Disposition
	// Attempts counts solve attempts (0 for rejected jobs).
	Attempts int
	// Stalls counts watchdog aborts this job suffered.
	Stalls int
}

// ServerStats is a snapshot of the service counters.
type ServerStats struct {
	// Admitted counts jobs that passed admission control.
	Admitted int64
	// Per-disposition totals. Completed+Retried+Degraded+Cancelled+Failed
	// equals the number of finished admitted jobs; Rejected counts
	// admission refusals.
	Completed, Retried, Degraded, Rejected, Cancelled, Failed int64
	// Retries is the total number of same-tier retry attempts.
	Retries int64
	// WatchdogAborts counts solves aborted for lack of progress.
	WatchdogAborts int64
	// BreakerOpens counts circuit-breaker open transitions.
	BreakerOpens int64
	// OpenBreakers lists the failure classes currently routed to fallback.
	OpenBreakers []string
	// Queued and Running are the current queue depth and in-flight count.
	Queued, Running int
	// ReservedBytes and PeakReservedBytes track the admission-control
	// workspace reservations (the pool accountant, pool.InUseBytes, tracks
	// actual checked-out bytes).
	ReservedBytes, PeakReservedBytes int64
	// PoolInUseBytes is the scratch currently checked out of the pool;
	// PoolRetainedBytes is the idle scratch kept warm for the next solve
	// (bounded by the pool's retain limit and dropped after idle trimming).
	PoolInUseBytes, PoolRetainedBytes int64
	// Deprecated: CoalescedJobs is always 0. The server no longer coalesces
	// small solves into shared batches.
	CoalescedJobs int64
	// ValuesOnlyAdmitted and ValuesOnlyCompleted are the values_only request
	// class's share of Admitted and of the served dispositions
	// (completed + retried + degraded). The class has its own admission
	// estimate (EstimateValuesOnlySolveBytes) and service-time EWMA, so
	// these counters are what capacity planning needs to see the two classes
	// separately.
	ValuesOnlyAdmitted, ValuesOnlyCompleted int64
	// CorruptionsDetected counts silent-corruption detections across all
	// jobs: ABFT checksum mismatches, violated merge invariants, failed
	// result audits, and corruption-classified attempt failures.
	// CorruptionsHealed is how many of them were contained — the job was
	// still served a verified result (task recompute, same-tier retry, or
	// tier fallback). Detected > Healed means corrupted jobs failed outright;
	// detections NEVER ship: a result that failed its audit is not returned.
	CorruptionsDetected, CorruptionsHealed int64
	// AvgServiceNanos and ValuesOnlyAvgServiceNanos are the per-class
	// service-time EWMAs feeding the deadline-aware admission check
	// (0 until a job of that class completes).
	AvgServiceNanos, ValuesOnlyAvgServiceNanos int64
}

// JobReport is one job's final disposition in a drain report.
type JobReport struct {
	ID uint64
	N  int
	// Worker is where the job last ran: "local" for a job a Server solved
	// in-process (a coordinator's local tier included), a worker's base URL
	// for a coordinator job routed there, "" for one not yet routed.
	Worker      string
	Disposition Disposition
}

// DrainReport lists the dispositions of the jobs that were in flight when
// Shutdown was called, in admission order.
type DrainReport struct {
	Jobs []JobReport
}

// serverJob tracks one admitted job; its report's Disposition is written
// before close(done) and read only after it.
type serverJob struct {
	JobReport
	done chan struct{}
}

// NewServer starts a solve service. Call Shutdown to drain it.
func NewServer(cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	drainCtx, drainCancel := context.WithCancel(context.Background())
	return &Server{
		cfg:         cfg,
		jobs:        make(map[uint64]*serverJob),
		slots:       make(chan struct{}, cfg.MaxConcurrent),
		drainCtx:    drainCtx,
		drainCancel: drainCancel,
		breakers:    make(map[string]*resilience.Breaker),
	}
}

// EstimateSolveBytes is the admission-control estimate of the pooled
// workspace one task-flow solve of order n with the given worker count can
// have checked out at once, in pool size-class bytes (pool.ClassBytes): the
// root merge's secular matrix, compressed operands and packed GEMM panels
// (deflated vectors stay in the caller's eigenvector matrix and take no
// workspace), doubled because the concurrently-live lower tree levels sum to
// at most one more root merge, plus per-worker small scratch.
// It deliberately over-reserves — the budget bounds the worst case, and the
// pool accountant reports what solves actually use.
func EstimateSolveBytes(n, workers int) int64 {
	if n <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return 2*estimateMergeBytes(n) + int64(workers+1)*poolClassBytes(int64(8*n)+1)
}

// poolClassBytes rounds a float64-element count up to its pool size class in
// bytes, falling back to the plain allocation size beyond the largest class.
func poolClassBytes(f int64) int64 {
	if f > int64(int(^uint(0)>>1)) { // overflow guard for huge n
		return f * 8
	}
	if b := pool.ClassBytes(int(f)); b > 0 {
		return b
	}
	return f * 8 // beyond the largest pool class: plain allocation
}

// estimateMergeBytes is the pooled footprint of one order-n root merge:
// S (k×k ≤ n²) + Q2Top/Q2Bot (≤ n²/2 each) + packed panels (≈ Q2 again).
// EstimateSolveBytes doubles it for the concurrently-live lower tree levels.
func estimateMergeBytes(n int) int64 {
	nn := int64(n) * int64(n)
	return poolClassBytes(nn) + 4*poolClassBytes(nn/2+1)
}

// EstimateValuesOnlySolveBytes is the admission-control estimate for one
// values-only task-flow solve of order n: the 2×n carrier rows plus O(n)
// merge slices (g2, weights, secular roots, gathered carrier rows, sort
// scratch) on each of the ~log₂(n/leaf) concurrently-live tree levels, plus
// per-worker leaf and secular scratch, instead of the full solve's O(n²)
// eigenvector workspace. It is monotone in n and never exceeds
// EstimateSolveBytes, so a values_only job always reserves no more than the
// same job with vectors — the property that lets one memory budget admit far
// more values-only concurrency.
func EstimateValuesOnlySolveBytes(n, workers int) int64 {
	if n <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// A values-only leaf task runs the sequential divide and conquer over the
	// carrier: a QR leaf's pooled m×m scratch (m at most SMLSIZ, 25), the
	// only super-linear term of the lane's footprint, then O(leaf) scratch
	// per in-leaf merge (lapack.CarrierScratch).
	const cutoff = core.DefaultMinPartition
	var leaf int64
	for _, words := range lapack.CarrierScratch(min(n, cutoff), nil) {
		leaf += poolClassBytes(int64(words))
	}
	depth := bits.Len(uint((n + cutoff - 1) / cutoff))
	est := poolClassBytes(int64(2*n)) + int64(depth+1)*poolClassBytes(int64(8*n)+1) +
		int64(workers+1)*(leaf+poolClassBytes(int64(4*n)+1))
	if full := EstimateSolveBytes(n, workers); est > full {
		return full
	}
	return est
}

// Solve runs one job through the service: admission, queueing, the
// watchdog-guarded attempt/retry loop, and disposition accounting. It blocks
// until the job is served, rejected, or cancelled. The returned ServeResult
// is non-nil even on error and always carries the job's disposition.
//
// opts follows SolveContext semantics except that Fallback and Progress are
// owned by the server (the retry and degradation policy replaces them).
// Every route runs tiers of the method's ladder: the first tier as the
// primary attempt, the sequential tiers as the fallback route.
func (s *Server) Solve(ctx context.Context, t Tridiagonal, opts *Options) (*ServeResult, error) {
	sr := &ServeResult{Disposition: DispositionRejected}
	var o Options
	if opts != nil {
		o = *opts
	}
	o.Fallback = false // the primary attempt runs the ladder's first tier only
	n := t.N()
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The values-only lane never materializes the n×n eigenvector block:
	// charge its O(n·depth) footprint so one memory budget admits far more
	// values-only concurrency.
	estimate := EstimateSolveBytes
	if o.ValuesOnly {
		estimate = EstimateValuesOnlySolveBytes
	}
	est := estimate(n, workers)

	// Admission: all-or-nothing under the server lock.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.counts[DispositionRejected].Add(1)
		return sr, ErrServerClosed
	}
	if s.queued >= s.cfg.MaxQueue {
		q := s.queued
		s.mu.Unlock()
		s.counts[DispositionRejected].Add(1)
		return sr, fmt.Errorf("%w: queue full (%d jobs waiting)", ErrOverloaded, q)
	}
	if s.cfg.MemoryBudget > 0 && s.reserved+est > s.cfg.MemoryBudget {
		have := s.cfg.MemoryBudget - s.reserved
		s.mu.Unlock()
		s.counts[DispositionRejected].Add(1)
		return sr, fmt.Errorf("%w: workspace budget exceeded (job n=%d needs %d bytes, %d available)",
			ErrOverloaded, n, est, have)
	}
	if dl, ok := ctx.Deadline(); ok {
		if wait := s.expectedLatencyLocked(o.ValuesOnly); wait > 0 && time.Until(dl) < wait {
			s.mu.Unlock()
			s.counts[DispositionRejected].Add(1)
			return sr, fmt.Errorf("%w: deadline %v away, expected service latency %v",
				ErrOverloaded, time.Until(dl).Round(time.Millisecond), wait.Round(time.Millisecond))
		}
	}
	job := &serverJob{JobReport: JobReport{ID: s.nextID.Add(1), N: n, Worker: "local"}, done: make(chan struct{})}
	s.queued++
	// The server is no longer idle: a pending idle pool trim must not fire
	// under this job's feet.
	s.idleGen++
	if s.idleTimer != nil {
		s.idleTimer.Stop()
		s.idleTimer = nil
	}
	s.reserved += est
	if s.reserved > s.peakReserved {
		s.peakReserved = s.reserved
	}
	s.jobs[job.ID] = job
	// Counted before the unlock: once Stats has seen the job queued, it
	// counts it admitted too.
	s.admitted.Add(1)
	if o.ValuesOnly {
		s.voAdmitted.Add(1)
	}
	s.mu.Unlock()

	start := time.Now()
	ran := false
	defer func() {
		s.mu.Lock()
		s.reserved -= est
		delete(s.jobs, job.ID)
		if ran {
			// Per-class EWMA of service time feeds the deadline-aware
			// admission check (values-only jobs are far faster; mixing the
			// classes would reject short-deadline values_only requests on
			// full-solve history).
			d := float64(time.Since(start))
			avg := &s.avgNanos
			if o.ValuesOnly {
				avg = &s.avgNanosVO
			}
			if *avg == 0 {
				*avg = d
			} else {
				*avg = 0.8**avg + 0.2*d
			}
		}
		s.mu.Unlock()
		s.counts[sr.Disposition].Add(1)
		if o.ValuesOnly && sr.Disposition <= DispositionDegraded {
			s.voCompleted.Add(1)
		}
		job.Disposition = sr.Disposition
		close(job.done)
	}()

	// The job's context is the caller's, cancelled too (with cause
	// errDrained) when a drain hits its deadline: the queue wait, every
	// attempt and every backoff watch it.
	jctx, jcancel := context.WithCancelCause(ctx)
	defer jcancel(nil)
	stopDrain := context.AfterFunc(s.drainCtx, func() { jcancel(errDrained) })
	defer stopDrain()
	cancelled := func() (*ServeResult, error) {
		sr.Disposition = DispositionCancelled
		return sr, context.Cause(jctx)
	}

	// Every stochastic delay of this job draws from its own seeded stream:
	// concurrent jobs sharing the process-global RNG would contend on its
	// lock under load, and their backoff schedules would be irreproducible —
	// with the job ID as seed, a replayed job jitters identically.
	rng := rand.New(rand.NewSource(int64(job.ID)))
	// jobCorrupt counts this job's corruption-classified attempt failures;
	// they are healed if a later attempt (or the fallback tier) serves.
	var jobCorrupt int64

	// Queue for a worker slot.
	var slot bool
	select {
	case s.slots <- struct{}{}:
		slot = true
	case <-jctx.Done():
	}
	s.mu.Lock()
	s.queued--
	if slot {
		s.running++
	}
	s.mu.Unlock()
	if !slot {
		return cancelled()
	}
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
		<-s.slots
		s.afterJob()
	}()
	ran = true

	// Primary-tier attempts with transient retries.
	var lastErr error
	for {
		probe, primary := s.route()
		if !primary {
			if lastErr == nil {
				lastErr = errCircuitOpen // every new job routes straight to the fallback tier
			}
			break
		}
		sr.Attempts++
		res, err := s.attempt(jctx, t, &o, directRoute(&o), nil)
		if err == nil {
			s.primaryServed(probe)
			s.absorb(res)
			s.corrHealed.Add(jobCorrupt)
			sr.Result = res
			if sr.Attempts > 1 {
				sr.Disposition = DispositionRetried
			} else {
				sr.Disposition = DispositionCompleted
			}
			return sr, nil
		}
		lastErr = err
		if jctx.Err() != nil {
			if probe != nil {
				probe.Release() // no verdict: let the next job probe
			}
			return cancelled()
		}
		var stall *StallError
		if errors.As(err, &stall) {
			sr.Stalls++
			s.stalls.Add(1)
		}
		if faultinject.Corruption(err) {
			s.corrDetected.Add(1)
			jobCorrupt++
		}
		s.primaryFailed(faultinject.ClassOf(err), probe)
		if !faultinject.Transient(err) || sr.Attempts > s.cfg.MaxRetries {
			break // persistent, or retries exhausted: degrade
		}
		s.retries.Add(1)
		if !resilience.Backoff(jctx, s.cfg.RetryBase, rng, sr.Attempts) {
			return cancelled()
		}
	}

	// Fallback route: the ladder's sequential tiers, injected-fault free
	// (they bypass the task runtime) and verified as degraded, with the
	// reason the job left the primary tier as their first tier error.
	sr.Attempts++
	res, err := s.attempt(jctx, t, &o, fallbackRoute(&o), lastErr)
	if err == nil {
		s.absorb(res)
		s.corrHealed.Add(jobCorrupt)
		sr.Result = res
		sr.Disposition = DispositionDegraded
		return sr, nil
	}
	if jctx.Err() != nil {
		return cancelled()
	}
	sr.Disposition = DispositionFailed
	if lastErr != nil && !errors.Is(err, lastErr) {
		err = fmt.Errorf("%w (primary tier: %v)", err, lastErr)
	}
	return sr, fmt.Errorf("eigen: server: job n=%d failed on every tier: %w", n, err)
}

// startWatchdog arms the per-attempt no-progress watchdog: the returned
// heartbeat is plugged into Options.Progress, and the watchdog cancels the
// attempt (setting stalled) when no heartbeat lands within the stall window.
// stop must be called when the attempt returns; a nil heartbeat means the
// watchdog is disabled.
func (s *Server) startWatchdog(actx context.Context, cancel context.CancelFunc) (heartbeat, stop func(), stalled *atomic.Bool) {
	window := s.cfg.StallWindow
	stalled = new(atomic.Bool)
	if window <= 0 {
		return nil, func() {}, stalled
	}
	var last atomic.Int64
	last.Store(time.Now().UnixNano())
	wdDone := make(chan struct{})
	go func() {
		tick := window / 4
		if tick < time.Millisecond {
			tick = time.Millisecond
		}
		tk := time.NewTicker(tick)
		defer tk.Stop()
		for {
			select {
			case <-wdDone:
				return
			case <-actx.Done():
				return
			case <-tk.C:
				if time.Duration(time.Now().UnixNano()-last.Load()) > window {
					stalled.Store(true)
					cancel()
					return
				}
			}
		}
	}()
	return func() { last.Store(time.Now().UnixNano()) },
		func() { close(wdDone) },
		stalled
}

// attempt runs one watchdog-guarded solve of tiers under the job context
// (prior as in solve). A solve that emits no progress heartbeat within the
// stall window is cancelled and the error rewritten to *StallError (unless
// the job context was the cause).
func (s *Server) attempt(ctx context.Context, t Tridiagonal, o *Options, tiers []string, prior error) (*Result, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	heartbeat, stop, stalled := s.startWatchdog(actx, cancel)
	defer stop()
	if heartbeat != nil {
		ao := *o
		ao.Progress = heartbeat
		o = &ao
	}
	res, err := solve(actx, t, o, tiers, prior)
	if stalled.Load() && ctx.Err() == nil {
		// The watchdog declared a stall and cancelled the attempt. The solve
		// may still have raced to a clean finish (cancellation unblocks
		// injected delays, and quark only aborts between tasks), but the
		// attempt exceeded its no-progress window either way: report the
		// stall so the retry policy — and the abort-to-retry latency bound —
		// stays deterministic instead of depending on who wins that race.
		return nil, &StallError{Window: s.cfg.StallWindow}
	}
	return res, err
}

// absorb folds one served result's corruption detections and heals into the
// service counters.
func (s *Server) absorb(res *Result) {
	if res == nil || res.Stats == nil {
		return
	}
	s.corrDetected.Add(res.Stats.CorruptionsDetected)
	s.corrHealed.Add(res.Stats.CorruptionsHealed)
}

// expectedLatencyLocked estimates a new job's time-to-completion from its
// class's service-time EWMA and the current occupancy; 0 when there is no
// history. A values-only job with no class history falls back to the full
// EWMA — conservative, since the lane is strictly cheaper.
func (s *Server) expectedLatencyLocked(valuesOnly bool) time.Duration {
	avg := s.avgNanos
	if valuesOnly && s.avgNanosVO != 0 {
		avg = s.avgNanosVO
	}
	if avg == 0 {
		return 0
	}
	waves := 1 + (s.queued+s.running)/s.cfg.MaxConcurrent
	return time.Duration(avg * float64(waves))
}

// afterJob runs once per finished job, after its worker slot is released:
// when the server just went idle, it arms the idle trim that drops all
// pooled scratch after PoolIdleTrimDelay of quiet. The pool bounds its own
// retention at Put, so a busy server needs no trim between jobs.
func (s *Server) afterJob() {
	d := s.cfg.PoolIdleTrimDelay
	if d < 0 {
		return
	}
	s.mu.Lock()
	if s.queued == 0 && s.running == 0 {
		s.idleGen++
		gen := s.idleGen
		if s.idleTimer != nil {
			s.idleTimer.Stop()
		}
		s.idleTimer = time.AfterFunc(d, func() { s.idleTrim(gen) })
	}
	s.mu.Unlock()
}

// idleTrim fires from the idle timer: if no job arrived since it was armed
// (the generation still matches and the server is still quiet), every idle
// pooled buffer is released so a quiet process holds no solver memory.
func (s *Server) idleTrim(gen uint64) {
	s.mu.Lock()
	stale := gen != s.idleGen || s.queued != 0 || s.running != 0
	if !stale {
		s.idleTimer = nil
	}
	s.mu.Unlock()
	if stale {
		return
	}
	pool.TrimAll()
}

// Draining reports whether Shutdown has been called: the readiness signal
// that tells load balancers and cluster coordinators to stop routing work
// here while in-flight jobs finish.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// QueueFull reports whether a new job would be rejected right now for queue
// depth — the readiness probe's backpressure signal.
func (s *Server) QueueFull() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued >= s.cfg.MaxQueue
}

// Stats returns a snapshot of the service counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Admitted:       s.admitted.Load(),
		Completed:      s.counts[DispositionCompleted].Load(),
		Retried:        s.counts[DispositionRetried].Load(),
		Degraded:       s.counts[DispositionDegraded].Load(),
		Rejected:       s.counts[DispositionRejected].Load(),
		Cancelled:      s.counts[DispositionCancelled].Load(),
		Failed:         s.counts[DispositionFailed].Load(),
		Retries:        s.retries.Load(),
		WatchdogAborts: s.stalls.Load(),
	}
	st.PoolInUseBytes = pool.InUseBytes()
	st.PoolRetainedBytes = pool.RetainedBytes()
	st.BreakerOpens = s.breakerOpens.Load()
	s.bmu.Lock()
	for class, b := range s.breakers {
		if b.State() != resilience.Closed {
			st.OpenBreakers = append(st.OpenBreakers, class)
		}
	}
	s.bmu.Unlock()
	sort.Strings(st.OpenBreakers)
	st.ValuesOnlyAdmitted = s.voAdmitted.Load()
	st.ValuesOnlyCompleted = s.voCompleted.Load()
	st.CorruptionsDetected = s.corrDetected.Load()
	st.CorruptionsHealed = s.corrHealed.Load()
	s.mu.Lock()
	st.Queued, st.Running = s.queued, s.running
	st.ReservedBytes, st.PeakReservedBytes = s.reserved, s.peakReserved
	st.AvgServiceNanos = int64(s.avgNanos)
	st.ValuesOnlyAvgServiceNanos = int64(s.avgNanosVO)
	s.mu.Unlock()
	return st
}

// Shutdown drains the server: admission stops immediately (new jobs get
// ErrServerClosed), in-flight and queued jobs run to completion, and jobs
// still unfinished when ctx fires are cancelled. It returns every affected
// job's disposition, and ctx.Err() when the drain deadline forced
// cancellations. Shutdown is idempotent; later calls return an empty report.
func (s *Server) Shutdown(ctx context.Context) (*DrainReport, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return &DrainReport{}, nil
	}
	s.closed = true
	inflight := make([]*serverJob, 0, len(s.jobs))
	for _, j := range s.jobs {
		inflight = append(inflight, j)
	}
	s.mu.Unlock()
	sort.Slice(inflight, func(i, j int) bool { return inflight[i].ID < inflight[j].ID })

	// Cancellation aborts each solve within one task granularity (and
	// unblocks queued jobs immediately), so the wait after it is short.
	ctxErr := resilience.Drain(ctx, func() {
		for _, j := range inflight {
			<-j.done
		}
	}, s.drainCancel)
	s.drainCancel()
	// A drained server runs nothing again: release the warm scratch too.
	s.mu.Lock()
	if s.idleTimer != nil {
		s.idleTimer.Stop()
		s.idleTimer = nil
	}
	s.idleGen++
	s.mu.Unlock()
	pool.TrimAll()

	rep := &DrainReport{Jobs: make([]JobReport, 0, len(inflight))}
	for _, j := range inflight {
		rep.Jobs = append(rep.Jobs, j.JobReport)
	}
	return rep, ctxErr
}

// route picks the tier for a new attempt: primary while every class's
// circuit is closed, or when this attempt wins the half-open probe of a
// circuit whose cooldown has expired (probe is that circuit). Otherwise the
// attempt goes straight to the fallback tier.
func (s *Server) route() (probe *resilience.Breaker, primary bool) {
	s.bmu.Lock()
	defer s.bmu.Unlock()
	primary = true
	for _, b := range s.breakers {
		if b.State() == resilience.Closed {
			continue
		}
		if b.Probe() {
			return b, true
		}
		primary = false
	}
	return nil, primary
}

// primaryServed closes the probed circuit (if any) and restarts the
// consecutive-failure count of every closed class.
func (s *Server) primaryServed(probe *resilience.Breaker) {
	s.bmu.Lock()
	defer s.bmu.Unlock()
	for _, b := range s.breakers {
		if b == probe || b.State() == resilience.Closed {
			b.Success()
		}
	}
}

// primaryFailed counts a primary-tier failure against its class ("" →
// "unclassified"). A failed half-open probe re-arms its own circuit too.
func (s *Server) primaryFailed(class string, probe *resilience.Breaker) {
	if class == "" {
		class = "unclassified"
	}
	s.bmu.Lock()
	b := s.breakers[class]
	if b == nil {
		b = resilience.NewBreaker(s.cfg.BreakerThreshold, s.cfg.BreakerCooldown)
		s.breakers[class] = b
	}
	s.bmu.Unlock()
	if probe != nil && probe != b {
		probe.Failure()
	}
	if b.Failure() {
		s.breakerOpens.Add(1)
	}
}
