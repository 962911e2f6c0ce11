package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"tridiag/eigen"
	"tridiag/internal/faultinject"
	"tridiag/internal/resilience"
)

// manualProbeConfig disables the background prober (interval far beyond the
// test) so breaker transitions are driven only by jobs and explicit probe()
// calls — the deterministic setting for unit-testing the state machine.
func manualProbeConfig(urls []string, client *http.Client) Config {
	cfg := testCoordConfig(urls, client)
	cfg.ProbeInterval = time.Hour
	return cfg
}

func newCoord(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	return c
}

func mustClusterSolve(t *testing.T, c *Coordinator, req *SolveRequest) *SolveResponse {
	t.Helper()
	resp, err := c.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("cluster solve n=%d: %v", len(req.D), err)
	}
	checkSpectrum(t, req, resp)
	return resp
}

// TestRemoteErrorClassification: the duck-typed Transient()/TaskClass()
// convention that feeds the breakers and the failover policy.
func TestRemoteErrorClassification(t *testing.T) {
	cases := []struct {
		status    int
		transient bool
	}{
		{0, true},   // transport-level: reset, refused, truncated
		{500, true}, // worker-side failure; another worker may serve
		{502, true},
		{http.StatusRequestTimeout, true},
		{http.StatusTooManyRequests, true},
		{400, false}, // definitive client error: replay reproduces it
		{404, false},
		{413, false},
	}
	for _, tc := range cases {
		re := &RemoteError{Worker: "http://w:1", Status: tc.status, Err: errors.New("x")}
		if got := faultinject.Transient(re); got != tc.transient {
			t.Errorf("status %d: Transient = %v, want %v", tc.status, got, tc.transient)
		}
	}
	re := &RemoteError{Worker: "http://w:1", Err: context.DeadlineExceeded}
	if got, want := faultinject.ClassOf(re), faultinject.NetClass("http://w:1"); got != want {
		t.Errorf("ClassOf = %q, want %q", got, want)
	}
	if !errors.Is(fmt.Errorf("attempt: %w", re), context.DeadlineExceeded) {
		t.Error("RemoteError must unwrap to its cause")
	}
}

func TestNewCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(Config{}); err == nil {
		t.Error("no workers: want error")
	}
	if _, err := NewCoordinator(Config{Workers: []string{"not a url"}}); err == nil {
		t.Error("scheme-less worker URL: want error")
	}
	if _, err := NewCoordinator(Config{Workers: []string{"://nope"}}); err == nil {
		t.Error("malformed worker URL: want error")
	}
}

// TestCoordinatorRejectsBadInput: malformed jobs are rejected at admission
// with eigen.ErrBadInput — they never become cluster jobs.
func TestCoordinatorRejectsBadInput(t *testing.T) {
	w := newTestWorker(workerServerConfig())
	defer w.close()
	c := newCoord(t, manualProbeConfig([]string{w.ts.URL}, nil))
	defer c.Shutdown(context.Background())

	for _, req := range []*SolveRequest{
		{D: []float64{1, 2, 3}, E: []float64{0.5}},
		{D: []float64{1, 2}, E: []float64{0.5}, Method: "cholesky"},
	} {
		resp, err := c.Solve(context.Background(), req)
		if !errors.Is(err, eigen.ErrBadInput) {
			t.Fatalf("bad input: err = %v, want ErrBadInput", err)
		}
		if resp.Disposition != "rejected" {
			t.Fatalf("bad input: disposition %q, want rejected", resp.Disposition)
		}
	}
	if st := c.Stats(); st.Rejected != 2 || st.Admitted != 0 {
		t.Errorf("stats rejected=%d admitted=%d, want 2/0", st.Rejected, st.Admitted)
	}
}

// TestCoordinatorRoute: every job goes to the least-loaded eligible worker.
// Idle workers take sequential jobs in turn (ties go to the fewest attempts
// sent), a worker with load is skipped, and a revived worker, sent fewer
// attempts while its circuit was open, is picked next.
func TestCoordinatorRoute(t *testing.T) {
	c := &Coordinator{}
	for _, name := range []string{"http://a:1", "http://b:1", "http://c:1"} {
		c.workers = append(c.workers, &worker{name: name, breaker: resilience.NewBreaker(1, time.Hour)})
	}
	wa, wb, wc := c.workers[0], c.workers[1], c.workers[2]
	pick := func() *worker {
		w := c.route(map[string]bool{})
		w.sent.Add(1) // as send counts the attempt
		return w
	}
	for i := 0; i < 6; i++ {
		if w, want := pick(), c.workers[i%3]; w != want {
			t.Fatalf("idle job %d went to %s, want %s", i, w.name, want.name)
		}
	}

	// Load outranks the attempt count: with a job in flight on a and a
	// reported queue on b, c takes every job.
	wa.inflight.Add(1)
	wb.noteStats(1, 0)
	for i := 0; i < 3; i++ {
		if w := pick(); w != wc {
			t.Fatalf("loaded job %d went to %s, want the idle %s", i, w.name, wc.name)
		}
	}
	wa.inflight.Add(-1)
	wb.noteStats(0, 0)

	// An open circuit gets no jobs, so once it re-closes its worker has
	// been sent the fewest attempts and takes the next one.
	wa.breaker.Failure()
	for i := 0; i < 4; i++ {
		if w := pick(); w == wa {
			t.Fatalf("open-circuit worker routed job %d", i)
		}
	}
	wa.breaker.Success()
	if w := pick(); w != wa {
		t.Fatalf("post-revival job went to %s, want the revived %s", w.name, wa.name)
	}
}

// TestCoordinatorSpreadsRepeatedJobs: resubmitting the same small system
// spreads over idle workers instead of sticking to one.
func TestCoordinatorSpreadsRepeatedJobs(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		w := newTestWorker(workerServerConfig())
		defer w.close()
		urls = append(urls, w.ts.URL)
	}
	c := newCoord(t, manualProbeConfig(urls, nil))
	defer c.Shutdown(context.Background())

	req := randomRequest(rand.New(rand.NewSource(11)), 32)
	for i, url := range urls {
		resp := mustClusterSolve(t, c, req)
		if resp.Disposition != "completed" || resp.Worker != url {
			t.Fatalf("resubmission %d: disposition=%q worker=%q, want completed on %s", i, resp.Disposition, resp.Worker, url)
		}
	}
}

// TestCoordinatorFailoverAndBreaker walks the full breaker state machine with
// job traffic only (probes disabled): a partitioned worker causes failovers,
// opens after the threshold, stops receiving traffic, and re-closes through
// the half-open probe after revival.
func TestCoordinatorFailoverAndBreaker(t *testing.T) {
	w0 := newTestWorker(workerServerConfig())
	defer w0.close()
	w1 := newTestWorker(workerServerConfig())
	defer w1.close()
	c := newCoord(t, manualProbeConfig([]string{w0.ts.URL, w1.ts.URL}, nil))
	defer c.Shutdown(context.Background())

	rng := rand.New(rand.NewSource(21))
	// With equal load the tie goes to the worker sent the fewest attempts.
	// Each job's failed attempt on w0 is matched by its failover to w1, so
	// the two stay level and every fresh job tries w0, the first
	// configured, first.
	large := func() *SolveRequest { return randomRequest(rng, 300) }

	w0.gate.down.Store(true)
	for i := 0; i < c.cfg.BreakerThreshold; i++ {
		resp := mustClusterSolve(t, c, large())
		if resp.Disposition != "failed-over" || resp.Worker != w1.ts.URL || resp.Failovers != 1 {
			t.Fatalf("job %d: disposition=%q worker=%q failovers=%d, want failed-over to w1",
				i, resp.Disposition, resp.Worker, resp.Failovers)
		}
	}
	if got := c.workers[0].breaker.State().String(); got != "open" {
		t.Fatalf("w0 breaker %q after %d failures, want open", got, c.cfg.BreakerThreshold)
	}

	// Open circuit: w0 gets no traffic, jobs complete on w1 first try.
	sentBefore := c.workers[0].sent.Load()
	if resp := mustClusterSolve(t, c, large()); resp.Disposition != "completed" || resp.Worker != w1.ts.URL {
		t.Fatalf("open-circuit job: disposition=%q worker=%q", resp.Disposition, resp.Worker)
	}
	if got := c.workers[0].sent.Load(); got != sentBefore {
		t.Fatalf("open-circuit worker still received %d attempts", got-sentBefore)
	}

	// Revive; after the cooldown the breaker reads half-open and the next
	// health probe re-closes it.
	w0.gate.down.Store(false)
	waitFor(t, 2*time.Second, "cooldown expiry", func() bool {
		return c.workers[0].breaker.State().String() == "half-open"
	})
	c.probe(c.workers[0])
	if got := c.workers[0].breaker.State().String(); got != "closed" {
		t.Fatalf("w0 breaker %q after successful half-open probe, want closed", got)
	}
	if resp := mustClusterSolve(t, c, large()); resp.Disposition != "completed" || resp.Worker != w0.ts.URL {
		t.Fatalf("post-revival job: disposition=%q worker=%q, want completed on w0", resp.Disposition, resp.Worker)
	}

	st := c.Stats()
	if st.BreakerOpens != 1 || st.BreakerCloses != 1 {
		t.Errorf("breaker opens=%d closes=%d, want 1/1", st.BreakerOpens, st.BreakerCloses)
	}
	if st.FailedOver != int64(c.cfg.BreakerThreshold) {
		t.Errorf("failed-over=%d, want %d", st.FailedOver, c.cfg.BreakerThreshold)
	}
	if st.Completed != 2 || st.Failed != 0 {
		t.Errorf("completed=%d failed=%d, want 2/0", st.Completed, st.Failed)
	}
	if st.Retries != int64(c.cfg.BreakerThreshold) {
		t.Errorf("retries=%d, want %d", st.Retries, c.cfg.BreakerThreshold)
	}
}

// TestCoordinatorProbeEWMA: probe outcomes move the health estimate both
// ways, and an unreachable worker reads unhealthy within a few probes.
func TestCoordinatorProbeEWMA(t *testing.T) {
	w := newTestWorker(workerServerConfig())
	defer w.close()
	c := newCoord(t, manualProbeConfig([]string{w.ts.URL}, nil))
	defer c.Shutdown(context.Background())

	wk := c.workers[0]
	w.gate.down.Store(true)
	for i := 0; i < 4; i++ {
		c.probe(wk)
		if wk.breaker.State().String() == "open" {
			break // probes feed the breaker too; stop before cooling down
		}
	}
	if wk.healthy() {
		t.Error("worker still healthy after consecutive probe failures")
	}
	st := c.Stats()
	if st.Workers[0].ProbeFailEWMA < 0.5 || st.Workers[0].LastProbeErr == "" {
		t.Errorf("worker status %+v, want ewma ≥ 0.5 with a probe error", st.Workers[0])
	}

	w.gate.down.Store(false)
	waitFor(t, 2*time.Second, "cooldown expiry", func() bool { return wk.breaker.State() != resilience.Open })
	for i := 0; i < 4 && !wk.healthy(); i++ {
		c.probe(wk)
	}
	if !wk.healthy() {
		t.Error("worker not healthy again after consecutive probe successes")
	}
	// A healthy probe round also refreshes the load snapshot from /stats.
	if st := c.Stats(); st.Workers[0].LastProbeErr != "" {
		t.Errorf("probe error %q survived recovery", st.Workers[0].LastProbeErr)
	}
}

// TestCoordinatorShutdown: admission stops, later Shutdowns are no-ops, a
// job in flight at drain time is cancelled at the deadline and reported with
// the worker it was trying, and the local tier drains too.
func TestCoordinatorShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	w := newTestWorker(workerServerConfig())
	defer w.close()
	c := newCoord(t, manualProbeConfig([]string{w.ts.URL}, nil))

	// A network-path delay keeps one job in flight long past the drain
	// deadline; FireCtx is context-bounded, so the drain cancels it.
	defer faultinject.Disable()
	faultinject.Enable(13, faultinject.Probe{
		Class: faultinject.NetClass(w.ts.URL), Kind: faultinject.KindDelay, P: 1, Delay: time.Minute,
	})
	type out struct {
		resp *SolveResponse
		err  error
	}
	done := make(chan out, 1)
	go func() {
		resp, err := c.Solve(context.Background(), randomRequest(rand.New(rand.NewSource(31)), 48))
		done <- out{resp, err}
	}()
	waitFor(t, 5*time.Second, "job admitted", func() bool { return c.Stats().Inflight == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rep, err := c.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded (deadline forced a cancellation)", err)
	}
	o := <-done
	if o.err == nil || o.resp.Disposition != "cancelled" {
		t.Fatalf("drained job: err=%v disposition=%q, want cancelled", o.err, o.resp.Disposition)
	}
	if len(rep.Jobs) != 1 || rep.Jobs[0].Worker != w.ts.URL || rep.Jobs[0].Disposition != eigen.DispositionCancelled {
		t.Fatalf("drain report %+v, want one cancelled job on %s", rep.Jobs, w.ts.URL)
	}
	if !c.local.Draining() {
		t.Fatal("the local tier was not drained")
	}

	// Admission is closed, and Shutdown is idempotent.
	if _, err := c.Solve(context.Background(), randomRequest(rand.New(rand.NewSource(32)), 16)); !errors.Is(err, eigen.ErrServerClosed) {
		t.Fatalf("post-drain solve err = %v, want ErrServerClosed", err)
	}
	if rep2, err := c.Shutdown(context.Background()); err != nil || len(rep2.Jobs) != 0 {
		t.Fatalf("second Shutdown: rep=%+v err=%v, want empty/nil", rep2, err)
	}
	faultinject.Disable()
	checkGoroutines(t, before)
}

// TestCoordinatorHTTPRoundTrip: the coordinator behind its HTTP handler
// serves the same API as a worker, and /readyz flips on drain.
func TestCoordinatorHTTPRoundTrip(t *testing.T) {
	w := newTestWorker(workerServerConfig())
	defer w.close()
	c := newCoord(t, manualProbeConfig([]string{w.ts.URL}, nil))
	ts := httptest.NewServer(NewCoordinatorHandler(c, HTTPConfig{Logf: discardLogf}))
	defer ts.Close()

	req := randomRequest(rand.New(rand.NewSource(41)), 24)
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(mustJSON(t, req)))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var sr SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	checkSpectrum(t, req, &sr)
	if sr.Worker != w.ts.URL || sr.Disposition != "completed" {
		t.Fatalf("worker=%q disposition=%q", sr.Worker, sr.Disposition)
	}

	// Shape mismatch over the wire is a 400 from the coordinator too.
	bad, _ := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"d": [1, 2], "e": []}`))
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad shape via coordinator: status %d, want 400", bad.StatusCode)
	}

	rs, _ := http.Get(ts.URL + "/readyz")
	rs.Body.Close()
	if rs.StatusCode != http.StatusOK {
		t.Fatalf("/readyz: %d, want 200", rs.StatusCode)
	}
	if _, err := c.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	rs, _ = http.Get(ts.URL + "/readyz")
	rs.Body.Close()
	if rs.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain: %d, want 503", rs.StatusCode)
	}
}
