package cluster

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tridiag/eigen"
)

// partitionGate simulates a network partition in front of one worker: while
// down, every connection is hijacked and closed abruptly, so the client sees
// a connection reset/EOF — the transport failure a dead host produces —
// rather than a graceful HTTP error. Flipping the flag back "revives" the
// worker on the same address, which real kill/restart tests cannot do
// without racing on port reuse.
type partitionGate struct {
	down atomic.Bool
	next http.Handler
}

func (g *partitionGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.down.Load() {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	}
	g.next.ServeHTTP(w, r)
}

// testWorker is one in-process worker: a real eigen.Server behind the real
// worker HTTP handler, fronted by a partition gate on an httptest listener.
type testWorker struct {
	srv  *eigen.Server
	gate *partitionGate
	ts   *httptest.Server
}

func newTestWorker(cfg eigen.ServerConfig) *testWorker {
	s := eigen.NewServer(cfg)
	gate := &partitionGate{next: NewWorkerHandler(s, HTTPConfig{Logf: discardLogf})}
	return &testWorker{srv: s, gate: gate, ts: httptest.NewServer(gate)}
}

func (w *testWorker) close() {
	w.gate.down.Store(false) // let the listener shut down cleanly
	w.srv.Shutdown(context.Background())
	w.ts.Close()
}

// discardLogf swallows handler diagnostics: partition tests tear connections
// down on purpose, and t.Logf would race test completion on stragglers.
func discardLogf(string, ...any) {}

func workerServerConfig() eigen.ServerConfig {
	return eigen.ServerConfig{
		MaxConcurrent: 4,
		MaxQueue:      256,
		StallWindow:   time.Minute,
		MaxRetries:    1,
		RetryBase:     time.Millisecond,
	}
}

// testCoordConfig is the suite's fast-timing coordinator: probes every 20ms,
// breakers open after 3 failures and rest 150ms, so partition→open and
// revive→half-open→closed transitions complete in tens of milliseconds.
func testCoordConfig(urls []string, client *http.Client) Config {
	return Config{
		Workers:          urls,
		Client:           client,
		Local:            eigen.NewServer(eigen.ServerConfig{MaxConcurrent: 2, MaxQueue: 256, StallWindow: time.Minute}),
		ProbeInterval:    20 * time.Millisecond,
		ProbeTimeout:     500 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  150 * time.Millisecond,
		MaxAttempts:      4,
		RetryBase:        time.Millisecond,
		AttemptTimeout:   30 * time.Second,
		MaxInflight:      1024,
	}
}

func randomRequest(rng *rand.Rand, n int) *SolveRequest {
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2 * rng.NormFloat64()
	}
	for i := range e {
		e[i] = rng.NormFloat64()
	}
	return &SolveRequest{D: d, E: e}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, now, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkSpectrum asserts the basic contract of a served job: n values,
// ascending.
func checkSpectrum(t *testing.T, req *SolveRequest, resp *SolveResponse) {
	t.Helper()
	n := len(req.D)
	if resp.N != n || len(resp.Values) != n {
		t.Fatalf("response n=%d values=%d, want %d", resp.N, len(resp.Values), n)
	}
	for i := 1; i < n; i++ {
		if resp.Values[i] < resp.Values[i-1] {
			t.Fatalf("values not ascending at %d: %g < %g", i, resp.Values[i], resp.Values[i-1])
		}
	}
}
