// Package cluster scales the eigen.Server solve service across processes: a
// coordinator routes solve jobs to a set of worker eigserve instances and
// keeps serving through worker failures.
//
// The hard part of a sharded solve tier is not routing — it is surviving a
// worker dying mid-solve without losing the job. The coordinator lifts the
// in-process resilience ladder of eigen.Server (retry → degrade → classify,
// with every job ending in exactly one disposition) to the cluster level:
//
//   - Routing: every solve goes to the least-loaded worker, estimated from
//     the coordinator's own in-flight counts plus each worker's polled
//     /stats; ties go to the worker sent the fewest attempts.
//   - Health: a per-worker prober hits /healthz on an interval and keeps a
//     failure EWMA; routing prefers healthy workers.
//   - Circuit breakers: per-worker, fed by transport-level failures from
//     jobs and probes alike (classified with the same duck-typed
//     Transient()/TaskClass() convention as quark.TaskError and
//     faultinject). An open worker gets no traffic; after the cooldown the
//     prober's half-open probe decides between re-closing and another
//     cooldown.
//   - Failover: a job whose attempt dies from a timeout, connection reset,
//     truncated response or 5xx is retried with bounded exponential backoff
//     on a surviving worker.
//   - Local tier: when every worker is down or open-circuit (or a job
//     exhausts its remote attempts on transient failures), the coordinator
//     solves in-process through its own eigen.Server, so the cluster keeps
//     answering with zero live workers. This is the coordinator's fallback
//     tier, as the sequential chain is a server's: its jobs are degraded,
//     with worker "local".
//   - Drain: Shutdown stops admission, lets in-flight jobs finish
//     (cancelling them only at the drain deadline) and reports each one's
//     final disposition and the worker it last ran on.
//
// Breakers, backoff and drain follow the resilience policy eigen.Server
// uses (DESIGN.md §11), and every job ends in exactly one eigen.Disposition:
// completed, retried-then-completed, failed-over, degraded, rejected,
// cancelled or failed.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tridiag/eigen"
	"tridiag/internal/faultinject"
	"tridiag/internal/resilience"
)

// errDrained is the cause of a job cancelled by a drain deadline.
var errDrained = fmt.Errorf("%w: drained mid-job", eigen.ErrServerClosed)

// Config tunes a Coordinator; zero values select the documented defaults.
type Config struct {
	// Workers lists the base URLs of the worker eigserve instances
	// ("http://host:port"). At least one is required.
	Workers []string
	// Local is the in-process fallback tier. Nil: NewCoordinator creates one
	// with default ServerConfig. Either way the coordinator owns it from
	// then on, and Shutdown drains it.
	Local *eigen.Server
	// Client is the HTTP client for all worker traffic (default: keep-alive
	// transport with a 5s dial timeout).
	Client *http.Client
	// ProbeInterval is the per-worker /healthz cadence (default 250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 1s).
	ProbeTimeout time.Duration
	// BreakerThreshold opens a worker's circuit after this many consecutive
	// transport-level failures (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rests before the half-open
	// probe (default 2s). A failure while open restarts it.
	BreakerCooldown time.Duration
	// MaxAttempts bounds the remote attempts per job — the first try plus
	// failovers/retries (default 3). A job that exhausts them on transient
	// failures degrades to the local tier.
	MaxAttempts int
	// RetryBase is the first failover backoff delay; retry k waits
	// RetryBase·2^(k-1), capped at 16×RetryBase and jittered down by up to
	// half (default 10ms).
	RetryBase time.Duration
	// AttemptTimeout caps one remote attempt (default 60s) so a hung worker
	// turns into a failover instead of a stuck job. It must exceed the
	// worst-case solve the cluster is expected to serve; negative disables
	// the cap (jobs then rely on their own deadlines).
	AttemptTimeout time.Duration
	// MaxInflight bounds coordinator-admitted unfinished jobs (default 256);
	// beyond it jobs are rejected with eigen.ErrOverloaded.
	MaxInflight int
}

func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.AttemptTimeout == 0 {
		c.AttemptTimeout = 60 * time.Second
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	return c
}

// RemoteError is a failed remote attempt against one worker. Status is the
// HTTP status when the worker answered; 0 marks transport-level failures
// (connection refused/reset, attempt timeout, truncated response, injected
// network fault).
type RemoteError struct {
	Worker string
	Status int
	Err    error
}

func (e *RemoteError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("cluster: worker %s: HTTP %d: %v", e.Worker, e.Status, e.Err)
	}
	return fmt.Sprintf("cluster: worker %s: %v", e.Worker, e.Err)
}

func (e *RemoteError) Unwrap() error { return e.Err }

// Transient reports whether failing over to another worker can still serve
// the job: transport failures and server-side conditions (5xx, 408, 429)
// are worth a failover, definitive client errors (4xx otherwise) are not.
// Read through faultinject.Transient, the same duck-typed convention
// quark.TaskError failures and watchdog stalls use.
func (e *RemoteError) Transient() bool {
	switch {
	case e.Status == 0:
		return true
	case e.Status >= 500:
		return true
	case e.Status == http.StatusRequestTimeout, e.Status == http.StatusTooManyRequests:
		return true
	}
	return false
}

// TaskClass attributes the failure to the worker's network path (read
// through faultinject.ClassOf; the per-worker breakers key on the worker
// directly, but logs and error chains keep the class).
func (e *RemoteError) TaskClass() string { return faultinject.NetClass(e.Worker) }

// clusterJob tracks one admitted job for the drain report. Its report's
// Worker and Disposition are written by the serving goroutine before
// close(done) and read only after it.
type clusterJob struct {
	eigen.JobReport
	done chan struct{}
}

// Coordinator routes solve jobs across worker eigserve instances. Create
// with NewCoordinator, serve with Solve (or NewCoordinatorHandler over
// HTTP), stop with Shutdown.
type Coordinator struct {
	cfg     Config
	client  *http.Client
	local   *eigen.Server
	workers []*worker

	mu       sync.Mutex
	closed   bool
	inflight int
	jobs     map[uint64]*clusterJob

	nextID      atomic.Uint64
	drainCtx    context.Context
	drainCancel context.CancelFunc
	stopProbe   chan struct{}
	probeWG     sync.WaitGroup

	counts           [eigen.DispositionFailed + 1]atomic.Int64
	admitted         atomic.Int64
	retries          atomic.Int64
	localSolves      atomic.Int64
	breakerOpens     atomic.Int64
	breakerCloses    atomic.Int64
	checksumMismatch atomic.Int64
}

// NewCoordinator validates the worker list, starts the health probers and
// returns a serving coordinator.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	workers := make([]*worker, len(cfg.Workers))
	for i, raw := range cfg.Workers {
		u, err := url.Parse(strings.TrimRight(raw, "/"))
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: worker %q is not a base URL", raw)
		}
		workers[i] = &worker{
			name:    u.String(),
			breaker: resilience.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		}
	}
	local := cfg.Local
	if local == nil {
		local = eigen.NewServer(eigen.ServerConfig{})
	}
	drainCtx, drainCancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:         cfg,
		client:      cfg.Client,
		local:       local,
		workers:     workers,
		jobs:        make(map[uint64]*clusterJob),
		drainCtx:    drainCtx,
		drainCancel: drainCancel,
		stopProbe:   make(chan struct{}),
	}
	for _, w := range c.workers {
		c.probeWG.Add(1)
		go c.probeLoop(w)
	}
	return c, nil
}

// Solve runs one job through the cluster: admission, routing, the
// failover/retry ladder, and — when no worker can serve — the local tier.
// The returned response is non-nil even on error and always carries the
// job's disposition.
func (c *Coordinator) Solve(ctx context.Context, req *SolveRequest) (*SolveResponse, error) {
	n := len(req.D)
	resp := &SolveResponse{N: n, Disposition: eigen.DispositionRejected.String()}

	// Validation before admission: malformed requests are client errors, not
	// jobs — they never reach a worker or the job table.
	if _, err := ParseMethod(req.Method); err != nil {
		c.counts[eigen.DispositionRejected].Add(1)
		return resp, fmt.Errorf("%w: %v", eigen.ErrBadInput, err)
	}
	if err := req.Tri().Validate(); err != nil {
		c.counts[eigen.DispositionRejected].Add(1)
		return resp, err
	}
	if err := req.ValidateClass(); err != nil {
		c.counts[eigen.DispositionRejected].Add(1)
		return resp, fmt.Errorf("%w: %v", eigen.ErrBadInput, err)
	}

	// Admission.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.counts[eigen.DispositionRejected].Add(1)
		return resp, eigen.ErrServerClosed
	}
	if c.inflight >= c.cfg.MaxInflight {
		inflight := c.inflight
		c.mu.Unlock()
		c.counts[eigen.DispositionRejected].Add(1)
		return resp, fmt.Errorf("%w: %d jobs in flight", eigen.ErrOverloaded, inflight)
	}
	job := &clusterJob{JobReport: eigen.JobReport{ID: c.nextID.Add(1), N: n}, done: make(chan struct{})}
	c.inflight++
	c.jobs[job.ID] = job
	c.mu.Unlock()
	c.admitted.Add(1)

	disp := eigen.DispositionFailed // every exit path below overwrites this
	defer func() {
		c.mu.Lock()
		c.inflight--
		delete(c.jobs, job.ID)
		c.mu.Unlock()
		c.counts[disp].Add(1)
		job.Disposition = disp
		close(job.done)
	}()
	fail := func(d eigen.Disposition, err error) (*SolveResponse, error) {
		disp = d
		resp.Disposition = d.String()
		resp.Error = err.Error()
		return resp, err
	}

	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	// The drain deadline cancels in-flight work through the job context, as
	// in eigen.Server; its cause tells a drain from the caller giving up.
	actx, acancel := context.WithCancelCause(ctx)
	defer acancel(nil)
	stopDrain := context.AfterFunc(c.drainCtx, func() { acancel(errDrained) })
	defer stopDrain()

	body, err := json.Marshal(req)
	if err != nil {
		return fail(eigen.DispositionRejected, fmt.Errorf("%w: %v", eigen.ErrBadInput, err))
	}
	rng := rand.New(rand.NewSource(int64(job.ID)))

	tried := make(map[string]bool)
	var first string
	attempts := 0
	var lastErr error
	for attempts < c.cfg.MaxAttempts {
		w := c.route(tried)
		if w == nil {
			break // all workers down or open-circuit: degrade locally
		}
		attempts++
		tried[w.name] = true
		if first == "" {
			first = w.name
		}
		job.Worker = w.name
		sr, err := c.send(actx, w, body)
		if err == nil {
			if w.breaker.Success() {
				c.breakerCloses.Add(1)
			}
			sr.Worker = w.name
			sr.Attempts = attempts
			switch {
			case attempts == 1:
				disp = eigen.DispositionCompleted
			case w.name == first && len(tried) == 1:
				disp = eigen.DispositionRetried
			default:
				disp = eigen.DispositionFailedOver
				sr.Failovers = attempts - 1
			}
			sr.Disposition = disp.String()
			return sr, nil
		}
		lastErr = err
		if actx.Err() != nil {
			return fail(eigen.DispositionCancelled, context.Cause(actx))
		}
		if !faultinject.Transient(err) {
			// The worker answered and the verdict is final (e.g. the solve
			// failed on every tier): replaying it elsewhere reproduces it.
			return fail(eigen.DispositionFailed,
				fmt.Errorf("cluster: job n=%d failed on worker %s: %w", n, w.name, err))
		}
		if w.breaker.Failure() {
			c.breakerOpens.Add(1)
		}
		c.retries.Add(1)
		if !resilience.Backoff(actx, c.cfg.RetryBase, rng, attempts) {
			return fail(eigen.DispositionCancelled, context.Cause(actx))
		}
	}

	// Local tier: the coordinator's own eigen.Server, with its full
	// in-process ladder (watchdog, retries, sequential fallback tiers). The
	// response is built and sealed exactly as a worker would.
	c.localSolves.Add(1)
	job.Worker = "local"
	out, err := serverSolve(actx, c.local, req)
	if err == nil {
		disp = eigen.DispositionDegraded
		out.Disposition = disp.String()
		out.Attempts += attempts
		out.Worker = "local"
		out.Failovers = attempts
		return out, nil
	}
	if lastErr != nil {
		err = fmt.Errorf("%w (remote attempts: %v)", err, lastErr)
	}
	switch {
	case errors.Is(err, eigen.ErrOverloaded), errors.Is(err, eigen.ErrServerClosed):
		return fail(eigen.DispositionRejected, err)
	case actx.Err() != nil:
		return fail(eigen.DispositionCancelled, context.Cause(actx))
	}
	return fail(eigen.DispositionFailed, fmt.Errorf("cluster: job n=%d failed on every tier: %w", n, err))
}

// route picks the worker for the next attempt: the least-loaded worker of
// the first eligibility pass that has one — breaker-closed workers not yet
// tried, probe-healthy ones first. Ties go to the worker sent the fewest
// attempts, so sequential jobs spread over idle workers and a revived worker
// gets traffic again. When every available worker has been tried, a
// same-worker retry is allowed. Open-circuit workers are never routed —
// their revival goes through the prober's half-open probe.
func (c *Coordinator) route(tried map[string]bool) *worker {
	passes := []func(*worker) bool{
		func(w *worker) bool { return !tried[w.name] && w.healthy() },
		func(w *worker) bool { return !tried[w.name] && w.routable() },
		func(w *worker) bool { return w.routable() },
	}
	for _, ok := range passes {
		var best *worker
		var bestLoad, bestSent int64
		for _, w := range c.workers {
			if !ok(w) {
				continue
			}
			l, sent := w.load(), w.sent.Load()
			if best == nil || l < bestLoad || l == bestLoad && sent < bestSent {
				best, bestLoad, bestSent = w, l, sent
			}
		}
		if best != nil {
			return best
		}
	}
	return nil
}

// send runs one remote attempt. Transport-level failures — including a
// worker dying mid-response — come back as transient *RemoteError; a job
// whose own context fired comes back as that context's error.
func (c *Coordinator) send(ctx context.Context, w *worker, body []byte) (*SolveResponse, error) {
	if faultinject.Active() {
		if err := faultinject.FireCtx(ctx, faultinject.NetClass(w.name)); err != nil {
			w.sent.Add(1)
			w.failures.Add(1)
			return nil, &RemoteError{Worker: w.name, Err: err}
		}
	}
	w.sent.Add(1)
	w.inflight.Add(1)
	defer w.inflight.Add(-1)
	actx := ctx
	if c.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
		defer cancel()
	}
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost, w.name+"/solve", bytes.NewReader(body))
	if err != nil {
		return nil, &RemoteError{Worker: w.name, Err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err() // the job died, not the worker
		}
		w.failures.Add(1)
		return nil, &RemoteError{Worker: w.name, Err: err}
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		// Error payloads are small: JSON with an "error" field from the
		// solve path, plain text from http.Error rejections.
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 4096))
		var sr SolveResponse
		text := strings.TrimSpace(string(msg))
		if json.Unmarshal(msg, &sr) == nil && sr.Error != "" {
			text = sr.Error
		}
		w.failures.Add(1)
		return nil, &RemoteError{Worker: w.name, Status: hresp.StatusCode, Err: errors.New(text)}
	}
	var sr SolveResponse
	if err := json.NewDecoder(hresp.Body).Decode(&sr); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		w.failures.Add(1)
		return nil, &RemoteError{Worker: w.name, Err: fmt.Errorf("truncated response: %w", err)}
	}
	if err := c.verifyChecksum(w, &sr); err != nil {
		return nil, err
	}
	return &sr, nil
}

// verifyChecksum recomputes the worker's spectrum seal over the decoded
// payload. A mismatch means the eigenvalues were corrupted somewhere between
// the worker's solve and this decode — wire, proxy, or encoder — and is
// classified as transient corruption so the ladder fails over to another
// worker instead of shipping the damaged spectrum. Responses without a seal
// (Checksum 0: error responses, workers predating the field) pass.
func (c *Coordinator) verifyChecksum(w *worker, sr *SolveResponse) error {
	if sr.Error != "" || sr.Checksum == 0 {
		return nil
	}
	if got := SpectrumChecksum(sr.Values); got != sr.Checksum {
		c.checksumMismatch.Add(1)
		w.failures.Add(1)
		return &RemoteError{Worker: w.name, Err: &eigen.CorruptionError{
			Check: "response-checksum",
			Detail: fmt.Sprintf("worker %s: spectrum checksum %#x does not match response seal %#x (%d values)",
				w.name, got, sr.Checksum, len(sr.Values)),
		}}
	}
	return nil
}

// probeLoop drives one worker's health probes until Shutdown.
func (c *Coordinator) probeLoop(w *worker) {
	defer c.probeWG.Done()
	tk := time.NewTicker(c.cfg.ProbeInterval)
	defer tk.Stop()
	for {
		select {
		case <-c.stopProbe:
			return
		case <-tk.C:
		}
		c.probe(w)
	}
}

// probe runs one /healthz round trip: it feeds the failure EWMA, drives the
// breaker (probe failures count like job failures; on an open circuit whose
// cooldown has expired, the round trip is the half-open probe that closes
// it or re-arms the cooldown), and — when healthy — refreshes the worker's
// /stats load snapshot for the least-loaded router.
func (c *Coordinator) probe(w *worker) {
	if !w.routable() && !w.breaker.Probe() {
		return // open circuit: wait out the cooldown before the half-open probe
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	err := c.get(ctx, w, "/healthz", nil)
	w.noteProbe(err)
	if err != nil {
		if w.breaker.Failure() {
			c.breakerOpens.Add(1)
		}
		return
	}
	if w.breaker.Success() {
		c.breakerCloses.Add(1)
	}
	var st eigen.ServerStats
	sctx, scancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer scancel()
	if err := c.get(sctx, w, "/stats", &st); err == nil {
		w.noteStats(st.Queued, st.Running)
	}
}

// get is the probe-path GET helper (also subject to injected network
// faults, so a simulated partition blinds the prober too).
func (c *Coordinator) get(ctx context.Context, w *worker, path string, out any) error {
	if faultinject.Active() {
		if err := faultinject.FireCtx(ctx, faultinject.NetClass(w.name)); err != nil {
			return err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.name+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return nil
}

// Draining reports whether Shutdown has been called (the /readyz signal).
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// WorkerStatus is one worker's row in the coordinator stats.
type WorkerStatus struct {
	Name string
	// Breaker is the circuit state: "closed", "open" or "half-open".
	Breaker string
	// Healthy reports a closed breaker plus a clean probe-failure EWMA.
	Healthy       bool
	ProbeFailEWMA float64
	LastProbeErr  string `json:",omitempty"`
	// Inflight is the coordinator's own in-flight count on this worker;
	// Queued/Running are the worker's last self-reported load.
	Inflight        int64
	Queued, Running int
	// Sent and Failures count solve attempts routed here and the
	// transport-level failures among them.
	Sent, Failures int64
}

// Stats is a snapshot of the coordinator counters.
type Stats struct {
	// Admitted counts jobs that passed admission control.
	Admitted int64
	// Per-disposition totals; Degraded counts jobs the local tier served.
	Completed, Retried, FailedOver, Degraded, Rejected, Cancelled, Failed int64
	// Retries counts abandoned remote attempts (failovers and same-worker
	// retries).
	Retries int64
	// LocalSolves counts jobs that reached the local tier, served or not.
	LocalSolves int64
	// BreakerOpens / BreakerCloses count circuit transitions.
	BreakerOpens, BreakerCloses int64
	// ChecksumMismatches counts remote responses whose spectrum seal failed
	// verification — corruption caught between a worker's solve and this
	// coordinator's decode, each one failed over instead of shipped.
	ChecksumMismatches int64
	// Inflight is the number of admitted, unfinished jobs.
	Inflight int
	Workers  []WorkerStatus
	// Local is the local tier's full eigen.ServerStats snapshot —
	// most importantly its pool gauges (PoolInUseBytes/PoolRetainedBytes)
	// and corruption counters, which a fleet operator could not otherwise
	// see through the coordinator's /stats endpoint.
	Local eigen.ServerStats
}

// Stats returns a snapshot of the coordinator counters.
func (c *Coordinator) Stats() Stats {
	st := Stats{
		Admitted:           c.admitted.Load(),
		Completed:          c.counts[eigen.DispositionCompleted].Load(),
		Retried:            c.counts[eigen.DispositionRetried].Load(),
		FailedOver:         c.counts[eigen.DispositionFailedOver].Load(),
		Degraded:           c.counts[eigen.DispositionDegraded].Load(),
		Rejected:           c.counts[eigen.DispositionRejected].Load(),
		Cancelled:          c.counts[eigen.DispositionCancelled].Load(),
		Failed:             c.counts[eigen.DispositionFailed].Load(),
		Retries:            c.retries.Load(),
		LocalSolves:        c.localSolves.Load(),
		BreakerOpens:       c.breakerOpens.Load(),
		BreakerCloses:      c.breakerCloses.Load(),
		ChecksumMismatches: c.checksumMismatch.Load(),
		Local:              c.local.Stats(),
	}
	c.mu.Lock()
	st.Inflight = c.inflight
	c.mu.Unlock()
	for _, w := range c.workers {
		ws := WorkerStatus{
			Name:     w.name,
			Breaker:  w.breaker.State().String(),
			Healthy:  w.healthy(),
			Inflight: w.inflight.Load(),
			Sent:     w.sent.Load(),
			Failures: w.failures.Load(),
		}
		w.mu.Lock()
		ws.ProbeFailEWMA = w.ewma
		ws.LastProbeErr = w.lastProbeErr
		ws.Queued, ws.Running = w.queued, w.running
		w.mu.Unlock()
		st.Workers = append(st.Workers, ws)
	}
	return st
}

// Shutdown drains the coordinator: admission stops immediately (new jobs get
// eigen.ErrServerClosed), in-flight jobs run to completion, and jobs still
// unfinished when ctx fires are cancelled through their attempt contexts.
// The health probers stop and the local tier is drained under the same
// deadline. The report lists every job that was in flight, with the worker
// it last ran on. Returns ctx.Err() when the deadline forced cancellations.
// Shutdown is idempotent; later calls return an empty report.
func (c *Coordinator) Shutdown(ctx context.Context) (*eigen.DrainReport, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return &eigen.DrainReport{}, nil
	}
	c.closed = true
	inflight := make([]*clusterJob, 0, len(c.jobs))
	for _, j := range c.jobs {
		inflight = append(inflight, j)
	}
	c.mu.Unlock()
	sort.Slice(inflight, func(i, j int) bool { return inflight[i].ID < inflight[j].ID })

	// Cancellation aborts every in-flight attempt (remote HTTP calls and
	// local solves share the job context), so the wait after it is short.
	ctxErr := resilience.Drain(ctx, func() {
		for _, j := range inflight {
			<-j.done
		}
	}, c.drainCancel)
	c.drainCancel()
	close(c.stopProbe)
	c.probeWG.Wait()
	c.client.CloseIdleConnections()

	// The local tier drains under whatever remains of the same deadline; an
	// already-expired ctx just cancels its leftovers immediately. Its jobs
	// are coordinator jobs, already in the report under "local".
	c.local.Shutdown(ctx)

	rep := &eigen.DrainReport{Jobs: make([]eigen.JobReport, 0, len(inflight))}
	for _, j := range inflight {
		rep.Jobs = append(rep.Jobs, j.JobReport)
	}
	return rep, ctxErr
}
