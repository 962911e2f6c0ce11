package cluster

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClusterPartitionChaos is the acceptance gate of the cluster tier (make
// stress-cluster): 3 workers serve a mixed-size workload from 16 concurrent
// clients while one worker is partitioned away mid-load and revived later.
// Invariants:
//
//   - zero lost jobs: every job ends in exactly one served disposition, with
//     a full ascending spectrum — no errors, no unclassified outcomes;
//   - the dead worker's breaker opens, receives no further solve traffic
//     while open, and re-closes through the prober's half-open probe after
//     revival;
//   - the revived worker serves jobs again;
//   - the coordinator drains cleanly and leaks no goroutines.
func TestClusterPartitionChaos(t *testing.T) {
	before := runtime.NumGoroutine()
	var workers []*testWorker
	var urls []string
	for i := 0; i < 3; i++ {
		w := newTestWorker(workerServerConfig())
		defer w.close()
		workers = append(workers, w)
		urls = append(urls, w.ts.URL)
	}
	c, err := NewCoordinator(testCoordConfig(urls, nil))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer c.Shutdown(context.Background())

	const jobs = 220
	const clients = 16
	sizes := []int{16, 48, 120, 300}
	rng := rand.New(rand.NewSource(99))
	reqs := make([]*SolveRequest, jobs)
	for i := range reqs {
		reqs[i] = randomRequest(rng, sizes[i%len(sizes)])
		if i%7 == 0 {
			reqs[i].Vectors = true
		}
	}

	victim := c.workers[1]
	var completed atomic.Int64
	var killed, revived atomic.Bool
	dispositions := make([]string, jobs)
	errs := make([]error, jobs)

	// The partition controller kills worker 1 mid-load and revives it once
	// its breaker has opened and the load has moved on.
	ctrl := make(chan struct{})
	go func() {
		defer close(ctrl)
		for completed.Load() < 70 {
			time.Sleep(time.Millisecond)
		}
		workers[1].gate.down.Store(true)
		killed.Store(true)
		for victim.breaker.State().String() != "open" {
			time.Sleep(time.Millisecond)
		}
		for completed.Load() < 150 {
			time.Sleep(time.Millisecond)
		}
		workers[1].gate.down.Store(false)
		revived.Store(true)
	}()

	next := make(chan int, jobs)
	for i := 0; i < jobs; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				resp, err := c.Solve(context.Background(), reqs[i])
				errs[i] = err
				if resp != nil {
					dispositions[i] = resp.Disposition
					if err == nil {
						checkSpectrum(t, reqs[i], resp)
					}
				}
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	<-ctrl
	if !killed.Load() || !revived.Load() {
		t.Fatal("partition controller never ran; the workload finished too fast to chaos-test")
	}

	// Zero lost jobs: every job served, every disposition classified.
	served := map[string]int{}
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d (n=%d): lost to error %v", i, len(reqs[i].D), errs[i])
		}
		switch dispositions[i] {
		case "completed", "retried-then-completed", "failed-over", "degraded":
			served[dispositions[i]]++
		default:
			t.Fatalf("job %d: unclassified disposition %q", i, dispositions[i])
		}
	}
	total := 0
	for _, n := range served {
		total += n
	}
	if total != jobs {
		t.Fatalf("%d of %d jobs classified", total, jobs)
	}

	st := c.Stats()
	if st.Failed != 0 {
		t.Errorf("%d jobs failed; the degradation ladder must always serve", st.Failed)
	}
	if st.BreakerOpens < 1 {
		t.Errorf("breaker never opened across a partition (opens=%d)", st.BreakerOpens)
	}

	// The revived worker's breaker re-closes through the half-open probe...
	waitFor(t, 5*time.Second, "victim breaker to re-close", func() bool {
		return victim.breaker.State().String() == "closed"
	})
	if st := c.Stats(); st.BreakerCloses < 1 {
		t.Errorf("breaker never re-closed after revival (closes=%d)", st.BreakerCloses)
	}
	// ...and it serves jobs again: it was sent no attempts while its circuit
	// was open, so least-loaded routing hands it the next job whose load
	// ties, and a handful of fresh problems must hit it.
	post := rand.New(rand.NewSource(777))
	backOnline := false
	for i := 0; i < 50 && !backOnline; i++ {
		resp, err := c.Solve(context.Background(), randomRequest(post, 32))
		if err != nil {
			t.Fatalf("post-revival job: %v", err)
		}
		backOnline = resp.Worker == victim.name
	}
	if !backOnline {
		t.Error("revived worker never served again in 50 post-revival jobs")
	}

	t.Logf("chaos: %v retries=%d localSolves=%d breakerOpens=%d breakerCloses=%d",
		served, st.Retries, st.LocalSolves, st.BreakerOpens, st.BreakerCloses)

	if _, err := c.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, w := range workers {
		w.close()
	}
	checkGoroutines(t, before)
}

// TestClusterAllWorkersDown: with every worker partitioned away the
// coordinator keeps serving through its local tier and stays
// responsive over HTTP; reviving one worker restores remote serving.
func TestClusterAllWorkersDown(t *testing.T) {
	before := runtime.NumGoroutine()
	var workers []*testWorker
	var urls []string
	for i := 0; i < 2; i++ {
		w := newTestWorker(workerServerConfig())
		defer w.close()
		workers = append(workers, w)
		urls = append(urls, w.ts.URL)
	}
	c, err := NewCoordinator(testCoordConfig(urls, nil))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer c.Shutdown(context.Background())
	ts := httptest.NewServer(NewCoordinatorHandler(c, HTTPConfig{Logf: discardLogf}))
	defer ts.Close()

	for _, w := range workers {
		w.gate.down.Store(true)
	}
	waitFor(t, 5*time.Second, "all breakers to open", func() bool {
		for _, w := range c.workers {
			if w.breaker.State().String() != "open" {
				return false
			}
		}
		return true
	})

	// 20 concurrent jobs against a dead cluster: all must complete through
	// the local tier without a single remote attempt (no worker is routable).
	rng := rand.New(rand.NewSource(55))
	reqs := make([]*SolveRequest, 20)
	for i := range reqs {
		reqs[i] = randomRequest(rng, 16+8*i)
	}
	var wg sync.WaitGroup
	resps := make([]*SolveResponse, len(reqs))
	errs := make([]error, len(reqs))
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = c.Solve(context.Background(), reqs[i])
		}(i)
	}
	wg.Wait()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("job %d with all workers down: %v", i, errs[i])
		}
		checkSpectrum(t, reqs[i], resps[i])
		if resps[i].Disposition != "degraded" || resps[i].Worker != "local" {
			t.Fatalf("job %d: disposition=%q worker=%q, want degraded/local",
				i, resps[i].Disposition, resps[i].Worker)
		}
	}
	st := c.Stats()
	if st.Degraded < int64(len(reqs)) || st.LocalSolves < int64(len(reqs)) {
		t.Errorf("degraded=%d localSolves=%d, want ≥ %d", st.Degraded, st.LocalSolves, len(reqs))
	}
	if st.Failed != 0 {
		t.Errorf("%d jobs failed with the local tier available", st.Failed)
	}

	// The coordinator itself stays alive and observable over HTTP.
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s with all workers down: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
	hr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	var hst Stats
	if err := json.NewDecoder(hr.Body).Decode(&hst); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	hr.Body.Close()
	for _, ws := range hst.Workers {
		if ws.Breaker == "closed" {
			t.Errorf("worker %s reports a closed breaker while partitioned", ws.Name)
		}
	}

	// Revive one worker: its breaker re-closes via the half-open probe and
	// remote serving resumes.
	workers[0].gate.down.Store(false)
	waitFor(t, 5*time.Second, "revived breaker to close", func() bool {
		return c.workers[0].breaker.State().String() == "closed"
	})
	resp, err := c.Solve(context.Background(), randomRequest(rng, 300))
	if err != nil {
		t.Fatalf("post-revival solve: %v", err)
	}
	if resp.Worker != c.workers[0].name {
		t.Errorf("post-revival job served by %q, want %q", resp.Worker, c.workers[0].name)
	}

	if _, err := c.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()
	for _, w := range workers {
		w.close()
	}
	checkGoroutines(t, before)
}
