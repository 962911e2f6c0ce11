package cluster

import (
	"sync"
	"sync/atomic"

	"tridiag/internal/resilience"
)

// worker is the coordinator's view of one remote eigserve instance: its
// circuit breaker, probe-health EWMA and load estimate. The breaker is fed
// by transport-level failures from both solve attempts and health probes, so
// a worker that dies idle is discovered by the prober and a worker that dies
// under load is discovered by the first failed-over job — whichever happens
// first. Only a closed circuit is routed; once the cooldown has expired,
// the next health probe is the half-open probe (or a racing job success
// closes it first).
type worker struct {
	name    string // base URL: the routing, breaker and report key
	breaker *resilience.Breaker

	inflight atomic.Int64 // coordinator-side in-flight jobs
	sent     atomic.Int64 // solve attempts sent
	failures atomic.Int64 // solve attempts failed (transport-level)

	mu           sync.Mutex
	ewma         float64 // probe-failure EWMA in [0,1]; ≥0.5 reads unhealthy
	lastProbeErr string
	queued       int // worker-reported load, from its last /stats poll
	running      int
}

// ewmaAlpha is the probe-failure EWMA step: ~two consecutive outcomes
// dominate the estimate, so a worker flips health state in a couple of probe
// intervals rather than instantly on one lost packet.
const ewmaAlpha = 0.4

// routable reports whether the breaker admits routing to this worker.
func (w *worker) routable() bool { return w.breaker.State() == resilience.Closed }

// healthy is routable plus a clean probe record; routing prefers healthy
// workers and falls back to merely routable ones.
func (w *worker) healthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ewma < 0.5 && w.routable()
}

// load estimates the worker's queue pressure: the coordinator's own
// in-flight count (exact, current) plus the worker's last self-reported
// queued+running (covers load from other clients, possibly stale by one
// probe interval).
func (w *worker) load() int64 {
	w.mu.Lock()
	q, r := w.queued, w.running
	w.mu.Unlock()
	return w.inflight.Load() + int64(q) + int64(r)
}

// noteProbe folds one health-probe outcome into the failure EWMA.
func (w *worker) noteProbe(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.ewma = (1-ewmaAlpha)*w.ewma + ewmaAlpha
		w.lastProbeErr = err.Error()
		return
	}
	w.ewma = (1 - ewmaAlpha) * w.ewma
	w.lastProbeErr = ""
}

// noteStats stores the worker's self-reported load snapshot.
func (w *worker) noteStats(queued, running int) {
	w.mu.Lock()
	w.queued, w.running = queued, running
	w.mu.Unlock()
}
