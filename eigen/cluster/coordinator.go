// Package cluster scales the eigen.Server solve service across processes: a
// coordinator routes solve jobs to a set of worker eigserve instances and
// keeps serving through worker failures.
//
// The hard part of a sharded solve tier is not routing — it is surviving a
// worker dying mid-solve without losing the job. The coordinator lifts the
// in-process resilience ladder of eigen.Server (retry → degrade → classify,
// with every job ending in exactly one disposition) to the cluster level:
//
//   - Routing: small solves go through a consistent-hash ring keyed on the
//     problem content (cache/affinity for repeated systems); large solves go
//     to the least-loaded worker, estimated from the coordinator's own
//     in-flight counts plus each worker's polled /stats.
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
//   - Degraded-local tier: when every worker is down or open-circuit (or a
//     job exhausts its remote attempts on transient failures), the
//     coordinator solves in-process through its own eigen.Server, so the
//     cluster keeps answering with zero live workers.
//   - Drain: Shutdown stops admission, lets in-flight remote jobs finish
//     (cancelling them only at the drain deadline) and aggregates the final
//     dispositions per worker, alongside the local tier's own DrainReport.
//
// Every job ends in exactly one Disposition: completed, retried-then-
// completed, failed-over, degraded-local, rejected, cancelled or failed.
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
)

// Config tunes a Coordinator; zero values select the documented defaults.
type Config struct {
	// Workers lists the base URLs of the worker eigserve instances
	// ("http://host:port"). At least one is required.
	Workers []string
	// Local is the degraded-local solve tier. Nil: NewCoordinator creates
	// one with default ServerConfig. Either way the coordinator owns it from
	// then on — Shutdown drains it and includes its DrainReport.
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
	// probe (default 2s).
	BreakerCooldown time.Duration
	// MaxAttempts bounds the remote attempts per job — the first try plus
	// failovers/retries (default 3). A job that exhausts them on transient
	// failures degrades to the local tier.
	MaxAttempts int
	// RetryBase is the first failover backoff delay; attempt k waits
	// RetryBase·2^(k-1) with ±50% jitter, capped at 16×RetryBase
	// (default 10ms).
	RetryBase time.Duration
	// AttemptTimeout caps one remote attempt (default 60s) so a hung worker
	// turns into a failover instead of a stuck job. It must exceed the
	// worst-case solve the cluster is expected to serve; negative disables
	// the cap (jobs then rely on their own deadlines).
	AttemptTimeout time.Duration
	// SmallN is the affinity threshold: jobs with n ≤ SmallN route by
	// consistent hash of the problem content, larger jobs go least-loaded
	// (default 256).
	SmallN int
	// HashReplicas is the virtual-node count per worker on the ring
	// (default 64).
	HashReplicas int
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
	if c.SmallN <= 0 {
		c.SmallN = 256
	}
	if c.HashReplicas <= 0 {
		c.HashReplicas = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	return c
}

// Disposition classifies how the coordinator finished with a job. Every
// Solve call ends in exactly one disposition.
type Disposition int

const (
	// DispositionCompleted: served by the first worker tried, first attempt.
	DispositionCompleted Disposition = iota
	// DispositionRetried: served remotely after at least one retry on the
	// same worker (the only one available at the time).
	DispositionRetried
	// DispositionFailedOver: served by a different worker than the first
	// attempt after that attempt died (timeout, connection reset, 5xx).
	DispositionFailedOver
	// DispositionDegradedLocal: served in-process by the coordinator's local
	// tier because no worker could.
	DispositionDegradedLocal
	// DispositionRejected: refused at admission (malformed input, overload,
	// or closed coordinator).
	DispositionRejected
	// DispositionCancelled: the job's context was cancelled, its deadline
	// expired, or the coordinator drain cancelled it.
	DispositionCancelled
	// DispositionFailed: a definitive non-retryable failure (e.g. a worker's
	// solve failed on every tier), or the local tier failed too.
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
	case DispositionDegradedLocal:
		return "degraded-local"
	case DispositionRejected:
		return "rejected"
	case DispositionCancelled:
		return "cancelled"
	case DispositionFailed:
		return "failed"
	}
	return fmt.Sprintf("Disposition(%d)", int(d))
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

// clusterJob tracks one admitted job for the drain report. worker and
// disposition are written by the serving goroutine before close(done) and
// read only after <-done.
type clusterJob struct {
	id          uint64
	n           int
	done        chan struct{}
	worker      string // last instance attempted ("local" for the local tier)
	disposition Disposition
}

// Coordinator routes solve jobs across worker eigserve instances. Create
// with NewCoordinator, serve with Solve (or NewCoordinatorHandler over
// HTTP), stop with Shutdown.
type Coordinator struct {
	cfg     Config
	client  *http.Client
	local   *eigen.Server
	workers []*worker
	ring    hashRing

	mu       sync.Mutex
	closed   bool
	inflight int
	jobs     map[uint64]*clusterJob

	nextID      atomic.Uint64
	drainCtx    context.Context
	drainCancel context.CancelFunc
	stopProbe   chan struct{}
	probeWG     sync.WaitGroup

	counts           [dispositionCount]atomic.Int64
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
	names := make([]string, len(cfg.Workers))
	for i, raw := range cfg.Workers {
		u, err := url.Parse(strings.TrimRight(raw, "/"))
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: worker %q is not a base URL", raw)
		}
		names[i] = u.String()
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
		ring:        newRing(names, cfg.HashReplicas),
		jobs:        make(map[uint64]*clusterJob),
		drainCtx:    drainCtx,
		drainCancel: drainCancel,
		stopProbe:   make(chan struct{}),
	}
	for _, name := range names {
		c.workers = append(c.workers, &worker{name: name})
	}
	for _, w := range c.workers {
		c.probeWG.Add(1)
		go c.probeLoop(w)
	}
	return c, nil
}

// Solve runs one job through the cluster: admission, routing, the
// failover/retry ladder, and — when no worker can serve — the degraded-local
// tier. The returned response is non-nil even on error and always carries
// the job's disposition.
func (c *Coordinator) Solve(ctx context.Context, req *SolveRequest) (*SolveResponse, error) {
	n := len(req.D)
	resp := &SolveResponse{N: n, Disposition: DispositionRejected.String()}

	// Validation before admission: malformed requests are client errors, not
	// jobs — they never reach a worker or the job table.
	if _, err := ParseMethod(req.Method); err != nil {
		c.counts[DispositionRejected].Add(1)
		return resp, fmt.Errorf("%w: %v", eigen.ErrBadInput, err)
	}
	if err := req.Tri().Validate(); err != nil {
		c.counts[DispositionRejected].Add(1)
		return resp, err
	}
	if err := req.ValidateClass(); err != nil {
		c.counts[DispositionRejected].Add(1)
		return resp, fmt.Errorf("%w: %v", eigen.ErrBadInput, err)
	}

	// Admission.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.counts[DispositionRejected].Add(1)
		return resp, eigen.ErrServerClosed
	}
	if c.inflight >= c.cfg.MaxInflight {
		inflight := c.inflight
		c.mu.Unlock()
		c.counts[DispositionRejected].Add(1)
		return resp, fmt.Errorf("%w: %d jobs in flight", eigen.ErrOverloaded, inflight)
	}
	job := &clusterJob{id: c.nextID.Add(1), n: n, done: make(chan struct{})}
	c.inflight++
	c.jobs[job.id] = job
	c.mu.Unlock()
	c.admitted.Add(1)

	disp := DispositionFailed // every exit path below overwrites this
	defer func() {
		c.mu.Lock()
		c.inflight--
		delete(c.jobs, job.id)
		c.mu.Unlock()
		c.counts[disp].Add(1)
		job.disposition = disp
		close(job.done)
	}()
	fail := func(d Disposition, err error) (*SolveResponse, error) {
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
	// The drain deadline cancels in-flight work through the normal context
	// path, exactly like eigen.Server attempts.
	actx, acancel := context.WithCancel(ctx)
	defer acancel()
	stopDrain := context.AfterFunc(c.drainCtx, acancel)
	defer stopDrain()

	body, err := json.Marshal(req)
	if err != nil {
		return fail(DispositionRejected, fmt.Errorf("%w: %v", eigen.ErrBadInput, err))
	}
	key := affinityKey(req.D, req.E)
	rng := rand.New(rand.NewSource(int64(job.id)))

	tried := make(map[string]bool)
	var first string
	attempts := 0
	var lastErr error
	for attempts < c.cfg.MaxAttempts {
		w := c.route(key, n, tried)
		if w == nil {
			break // all workers down or open-circuit: degrade locally
		}
		attempts++
		tried[w.name] = true
		if first == "" {
			first = w.name
		}
		job.worker = w.name
		sr, err := c.send(actx, w, body)
		if err == nil {
			if w.noteSuccess() {
				c.breakerCloses.Add(1)
			}
			sr.Worker = w.name
			sr.Attempts = attempts
			switch {
			case attempts == 1:
				disp = DispositionCompleted
			case w.name == first && len(tried) == 1:
				disp = DispositionRetried
			default:
				disp = DispositionFailedOver
				sr.Failovers = attempts - 1
			}
			sr.Disposition = disp.String()
			return sr, nil
		}
		lastErr = err
		if actx.Err() != nil {
			return fail(DispositionCancelled, c.cancelCause(ctx))
		}
		if !faultinject.Transient(err) {
			// The worker answered and the verdict is final (e.g. the solve
			// failed on every tier): replaying it elsewhere reproduces it.
			return fail(DispositionFailed,
				fmt.Errorf("cluster: job n=%d failed on worker %s: %w", n, w.name, err))
		}
		if w.noteFailure(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown) {
			c.breakerOpens.Add(1)
		}
		c.retries.Add(1)
		if !c.backoff(actx, rng, attempts) {
			return fail(DispositionCancelled, c.cancelCause(ctx))
		}
	}

	// Degraded-local tier: the coordinator's own eigen.Server, with its full
	// in-process ladder (watchdog, retries, sequential fallback tiers). The
	// response is built and sealed exactly as a worker would.
	c.localSolves.Add(1)
	job.worker = "local"
	out, err := serverSolve(actx, c.local, req)
	if err == nil {
		disp = DispositionDegradedLocal
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
		return fail(DispositionRejected, err)
	case actx.Err() != nil:
		return fail(DispositionCancelled, c.cancelCause(ctx))
	}
	return fail(DispositionFailed, fmt.Errorf("cluster: job n=%d failed on every tier: %w", n, err))
}

// route picks the worker for the next attempt: breaker-closed workers not
// yet tried, by content-hash affinity for small jobs and least load for
// large ones, preferring probe-healthy workers. When every available worker
// has been tried, a same-worker retry is allowed. Open-circuit workers are
// never routed — their revival goes through the prober's half-open probe.
func (c *Coordinator) route(key uint64, n int, tried map[string]bool) *worker {
	passes := []func(*worker) bool{
		func(w *worker) bool { return !tried[w.name] && w.healthy() },
		func(w *worker) bool { return !tried[w.name] && w.available() },
		func(w *worker) bool { return w.available() },
	}
	for _, ok := range passes {
		if n <= c.cfg.SmallN {
			if i := c.ring.pick(key, func(i int) bool { return ok(c.workers[i]) }); i >= 0 {
				return c.workers[i]
			}
			continue
		}
		var best *worker
		var bestLoad int64
		for _, w := range c.workers {
			if !ok(w) {
				continue
			}
			if l := w.load(); best == nil || l < bestLoad {
				best, bestLoad = w, l
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

// backoff sleeps the exponential-with-jitter failover delay, drawing the
// jitter from the job's own seeded stream (no process-global RNG contention,
// reproducible per job); false means the job's context (or the drain) fired
// first.
func (c *Coordinator) backoff(ctx context.Context, rng *rand.Rand, attempt int) bool {
	d := c.cfg.RetryBase << uint(min(attempt-1, 4)) // cap at 16×base
	d = d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// cancelCause picks the context error a cancelled job reports: the job's own
// context if it fired, else the coordinator drain.
func (c *Coordinator) cancelCause(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return fmt.Errorf("%w: drained mid-job", eigen.ErrServerClosed)
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
// breaker (probe failures count like job failures; a success after the
// cooldown is the half-open probe that re-closes the circuit), and — when
// healthy — refreshes the worker's /stats load snapshot for the
// least-loaded router.
func (c *Coordinator) probe(w *worker) {
	if w.coolingDown() {
		return // open circuit: wait out the cooldown before the half-open probe
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	err := c.get(ctx, w, "/healthz", nil)
	w.noteProbe(err)
	if err != nil {
		if w.noteFailure(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown) {
			c.breakerOpens.Add(1)
		}
		return
	}
	if w.noteSuccess() {
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
	// Per-disposition totals.
	Completed, Retried, FailedOver, DegradedLocal, Rejected, Cancelled, Failed int64
	// Retries counts abandoned remote attempts (failovers and same-worker
	// retries).
	Retries int64
	// LocalSolves counts jobs that reached the degraded-local tier.
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
	// Local is the degraded-local tier's full eigen.ServerStats snapshot —
	// most importantly its LeakedBytes ledger, pool gauges
	// (PoolInUseBytes/PoolRetainedBytes) and corruption counters, which a
	// fleet operator could not otherwise see through the coordinator's
	// /stats endpoint.
	Local eigen.ServerStats
}

// Stats returns a snapshot of the coordinator counters.
func (c *Coordinator) Stats() Stats {
	st := Stats{
		Admitted:           c.admitted.Load(),
		Completed:          c.counts[DispositionCompleted].Load(),
		Retried:            c.counts[DispositionRetried].Load(),
		FailedOver:         c.counts[DispositionFailedOver].Load(),
		DegradedLocal:      c.counts[DispositionDegradedLocal].Load(),
		Rejected:           c.counts[DispositionRejected].Load(),
		Cancelled:          c.counts[DispositionCancelled].Load(),
		Failed:             c.counts[DispositionFailed].Load(),
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
			Breaker:  w.breakerState(),
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

// JobReport is one job's final disposition in a drain report.
type JobReport struct {
	ID          uint64
	N           int
	Disposition Disposition
}

// WorkerDrain groups the drain-time in-flight jobs of one instance
// ("local" for the degraded-local tier, "" for jobs still unrouted).
type WorkerDrain struct {
	Worker string
	Jobs   []JobReport
}

// DrainReport aggregates a coordinator drain: the final dispositions of the
// jobs that were in flight when Shutdown was called, grouped per worker,
// plus the local tier's own eigen drain report.
type DrainReport struct {
	Workers []WorkerDrain
	Local   *eigen.DrainReport
}

// Shutdown drains the coordinator: admission stops immediately (new jobs get
// eigen.ErrServerClosed), in-flight jobs run to completion, and jobs still
// unfinished when ctx fires are cancelled through their attempt contexts.
// The health probers stop and the local tier is drained under the same
// deadline. Returns ctx.Err() when the deadline forced cancellations.
// Shutdown is idempotent; later calls return an empty report.
func (c *Coordinator) Shutdown(ctx context.Context) (*DrainReport, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return &DrainReport{}, nil
	}
	c.closed = true
	inflight := make([]*clusterJob, 0, len(c.jobs))
	for _, j := range c.jobs {
		inflight = append(inflight, j)
	}
	c.mu.Unlock()
	sort.Slice(inflight, func(i, j int) bool { return inflight[i].id < inflight[j].id })

	done := make(chan struct{})
	go func() {
		for _, j := range inflight {
			<-j.done
		}
		close(done)
	}()
	var ctxErr error
	select {
	case <-done:
	case <-ctx.Done():
		ctxErr = ctx.Err()
		c.drainCancel()
		// Cancellation aborts every in-flight attempt (remote HTTP calls and
		// local solves share the drain context), so this second wait is short.
		<-done
	}
	c.drainCancel()
	close(c.stopProbe)
	c.probeWG.Wait()
	c.client.CloseIdleConnections()

	// The local tier drains under whatever remains of the same deadline; an
	// already-expired ctx just cancels its leftovers immediately.
	lrep, _ := c.local.Shutdown(ctx)

	byWorker := make(map[string][]JobReport)
	var order []string
	for _, j := range inflight {
		if _, seen := byWorker[j.worker]; !seen {
			order = append(order, j.worker)
		}
		byWorker[j.worker] = append(byWorker[j.worker],
			JobReport{ID: j.id, N: j.n, Disposition: j.disposition})
	}
	sort.Strings(order)
	rep := &DrainReport{Local: lrep}
	for _, name := range order {
		rep.Workers = append(rep.Workers, WorkerDrain{Worker: name, Jobs: byWorker[name]})
	}
	return rep, ctxErr
}
