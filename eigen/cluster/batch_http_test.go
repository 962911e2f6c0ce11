package cluster

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"tridiag/eigen"
	"tridiag/internal/faultinject"
)

func postBatch(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/solve/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /solve/batch: %v", err)
	}
	return resp
}

func decodeBatch(t *testing.T, resp *http.Response) *BatchResponse {
	t.Helper()
	defer resp.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	return &br
}

// mustBatch posts req to url's /solve/batch and returns the decoded 200 body.
func mustBatch(t *testing.T, url string, req *BatchRequest) *BatchResponse {
	t.Helper()
	resp := postBatch(t, url, mustJSON(t, req))
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	return decodeBatch(t, resp)
}

func randomBatch(rng *rand.Rand, sizes ...int) *BatchRequest {
	req := &BatchRequest{}
	for _, n := range sizes {
		req.Jobs = append(req.Jobs, *randomRequest(rng, n))
	}
	return req
}

// checkBatchSpectra asserts the per-member contract of a fan-out batch: one
// result per job in job order, each served, sealed over the values that
// crossed the wire, and the spectrum of its own matrix (compared against an
// independent in-process solve of that member) in its own request class.
func checkBatchSpectra(t *testing.T, req *BatchRequest, br *BatchResponse) {
	t.Helper()
	if len(br.Results) != len(req.Jobs) {
		t.Fatalf("batch returned %d results for %d jobs", len(br.Results), len(req.Jobs))
	}
	for i := range req.Jobs {
		job, res := &req.Jobs[i], &br.Results[i]
		if res.Error != "" {
			t.Fatalf("job %d: %s", i, res.Error)
		}
		checkSpectrum(t, job, res)
		if res.Checksum == 0 || res.Checksum != SpectrumChecksum(res.Values) {
			t.Errorf("job %d: checksum %#x does not seal its values (want %#x)", i, res.Checksum, SpectrumChecksum(res.Values))
		}
		ref, err := eigen.Solve(job.Tri(), &eigen.Options{ValuesOnly: true})
		if err != nil {
			t.Fatalf("job %d: reference solve: %v", i, err)
		}
		scale := 1.0
		for _, v := range ref.Values {
			scale = math.Max(scale, math.Abs(v))
		}
		for j, v := range ref.Values {
			if d := math.Abs(res.Values[j] - v); d > 1e-10*scale {
				t.Fatalf("job %d: eigenvalue %d off by %.3e — result is not this member's spectrum", i, j, d)
			}
		}
		n, wantVec := len(job.D), 0
		if job.Vectors {
			wantVec = n * n
		}
		if len(res.Vectors) != wantVec {
			t.Errorf("job %d (values_only=%v vectors=%v): %d vector entries, want %d",
				i, job.ValuesOnly, job.Vectors, len(res.Vectors), wantVec)
		}
	}
}

// TestClusterBatchWorkerHTTPErrors pins the /solve/batch preconditions on the
// worker tier: wrong verb is 405, malformed/empty/invalid-member bodies are
// 400, oversized bodies are 413 — all before any member consumes a slot.
func TestClusterBatchWorkerHTTPErrors(t *testing.T) {
	w := newTestWorker(workerServerConfig())
	defer w.close()

	hreq, _ := http.NewRequest(http.MethodGet, w.ts.URL+"/solve/batch", nil)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("GET /solve/batch: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}

	for _, tc := range []struct{ name, body string }{
		{"truncated JSON", `{"jobs": [{"d": [1`},
		{"not JSON", `a batch please`},
		{"empty batch", `{"jobs": []}`},
		{"no jobs field", `{}`},
		{"unknown member method", `{"jobs": [{"d": [1, 2], "e": [1], "method": "cholesky"}]}`},
		{"member shape mismatch", `{"jobs": [{"d": [1, 2], "e": [1]}, {"d": [1, 2, 3], "e": [1]}]}`},
	} {
		resp := postBatch(t, w.ts.URL, tc.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if st := w.srv.Stats(); st.Admitted != 0 {
		t.Errorf("rejected batches admitted %d jobs, want 0", st.Admitted)
	}

	big := &BatchRequest{}
	n := 512
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := 0; i < 40; i++ {
		big.Jobs = append(big.Jobs, SolveRequest{D: d, E: e})
	}
	ts := httptest.NewServer(NewWorkerHandler(eigen.NewServer(workerServerConfig()), HTTPConfig{MaxBodyBytes: 1 << 16, Logf: discardLogf}))
	defer ts.Close()
	resp = postBatch(t, ts.URL, mustJSON(t, big))
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413", resp.StatusCode)
	}
}

// TestClusterBatchWorkerRoundTrip serves batches through a worker: every
// member runs as its own server job, comes back in job order with its own
// vectors flag, spectrum and seal, and the server admits exactly one job per
// member — also when the batch has more members than run at once.
func TestClusterBatchWorkerRoundTrip(t *testing.T) {
	w := newTestWorker(workerServerConfig())
	defer w.close()
	rng := rand.New(rand.NewSource(60))
	req := randomBatch(rng, 24, 40, 16, 33, 48, 28)
	req.Jobs[2].Vectors = true
	br := mustBatch(t, w.ts.URL, req)
	checkBatchSpectra(t, req, br)
	for i := range br.Results {
		if br.Results[i].Disposition != "completed" {
			t.Errorf("job %d: disposition %q, want completed", i, br.Results[i].Disposition)
		}
	}
	if st := w.srv.Stats(); st.Admitted != int64(len(req.Jobs)) || st.Completed != int64(len(req.Jobs)) {
		t.Errorf("server admitted %d and completed %d jobs, want %d each", st.Admitted, st.Completed, len(req.Jobs))
	}

	// More members than batchFanout: the excess waits for a free slot and
	// every member is still served.
	sizes := make([]int, batchFanout+36)
	for i := range sizes {
		sizes[i] = 2 + i%5
	}
	big := randomBatch(rng, sizes...)
	checkBatchSpectra(t, big, mustBatch(t, w.ts.URL, big))
}

// TestClusterBatchCoordinatorHTTPRoundTrip drives the coordinator's
// /solve/batch end to end over real HTTP: every member is routed as its own
// cluster job, names the worker that served it, and comes back sealed in
// its own request class — full, full with vectors and values-only members
// share one batch.
func TestClusterBatchCoordinatorHTTPRoundTrip(t *testing.T) {
	w1 := newTestWorker(workerServerConfig())
	defer w1.close()
	w2 := newTestWorker(workerServerConfig())
	defer w2.close()
	c := newCoord(t, testCoordConfig([]string{w1.ts.URL, w2.ts.URL}, nil))
	defer c.Shutdown(context.Background())
	ts := httptest.NewServer(NewCoordinatorHandler(c, HTTPConfig{Logf: discardLogf}))
	defer ts.Close()

	rng := rand.New(rand.NewSource(61))
	req := randomBatch(rng, 30, 45, 20, 36, 300)
	req.Jobs[1].ValuesOnly = true
	req.Jobs[2].Vectors = true
	req.Jobs[4].ValuesOnly = true
	br := mustBatch(t, ts.URL, req)
	checkBatchSpectra(t, req, br)
	for i, res := range br.Results {
		if res.Worker != w1.ts.URL && res.Worker != w2.ts.URL {
			t.Errorf("job %d served by %q, want one of the workers", i, res.Worker)
		}
	}
	for _, tc := range []struct{ name, body string }{
		{"empty", `{"jobs": []}`},
		{"invalid member", `{"jobs": [{"d": [1, 2], "e": []}]}`},
	} {
		resp := postBatch(t, ts.URL, tc.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if st := c.Stats(); st.Admitted != int64(len(req.Jobs)) || st.Completed != int64(len(req.Jobs)) {
		t.Errorf("coordinator admitted %d and completed %d jobs, want %d each", st.Admitted, st.Completed, len(req.Jobs))
	}
}

// TestClusterBatchFailover kills the first remote attempt on each worker
// with deterministic injected network faults while a batch is in flight
// through the coordinator's HTTP handler: the members those attempts
// belonged to fail over on their own, every member comes back served and
// verified — zero lost members — and no goroutines leak.
func TestClusterBatchFailover(t *testing.T) {
	before := runtime.NumGoroutine()
	w1 := newTestWorker(workerServerConfig())
	defer w1.close()
	w2 := newTestWorker(workerServerConfig())
	defer w2.close()
	cfg := testCoordConfig([]string{w1.ts.URL, w2.ts.URL}, nil)
	cfg.ProbeInterval = time.Hour // probes must not consume the single-shot faults
	c := newCoord(t, cfg)
	ts := httptest.NewServer(NewCoordinatorHandler(c, HTTPConfig{Logf: discardLogf}))

	// One single-shot network fault per worker: whichever attempt reaches
	// each worker first dies as a transport failure.
	faultinject.Enable(17,
		faultinject.Probe{Class: faultinject.NetClass(w1.ts.URL), Kind: faultinject.KindError, P: 1, MaxFires: 1},
		faultinject.Probe{Class: faultinject.NetClass(w2.ts.URL), Kind: faultinject.KindError, P: 1, MaxFires: 1},
	)
	rng := rand.New(rand.NewSource(62))
	req := randomBatch(rng, 25, 40, 18, 31, 22, 60, 35, 27)
	br := mustBatch(t, ts.URL, req)
	fired := faultinject.Fired()
	faultinject.Disable()
	checkBatchSpectra(t, req, br)

	faults := fired[faultinject.NetClass(w1.ts.URL)] + fired[faultinject.NetClass(w2.ts.URL)]
	if faults == 0 {
		t.Fatal("no injected network fault fired; the test exercised nothing")
	}
	var moved int
	for _, res := range br.Results {
		switch res.Disposition {
		case eigen.DispositionCompleted.String():
		case eigen.DispositionRetried.String(), eigen.DispositionFailedOver.String():
			moved++
		default:
			t.Errorf("member served by %q with disposition %q", res.Worker, res.Disposition)
		}
	}
	if moved == 0 {
		t.Errorf("%d attempts died but no member reports a retry or failover", faults)
	}
	st := c.Stats()
	if st.Admitted != int64(len(req.Jobs)) || st.Completed+st.Retried+st.FailedOver != int64(len(req.Jobs)) {
		t.Errorf("admitted=%d completed=%d retried=%d failed-over=%d, want all %d members served",
			st.Admitted, st.Completed, st.Retried, st.FailedOver, len(req.Jobs))
	}
	if st.Retries != faults {
		t.Errorf("retries=%d, want %d (one per injected attempt death)", st.Retries, faults)
	}
	ts.Close()
	if _, err := c.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	checkGoroutines(t, before)
}

// TestClusterBatchDegradedLocal partitions every worker away: each member of
// a batch posted to the coordinator must still be served, on its own, by the
// coordinator's local tier — sealed like a worker response.
func TestClusterBatchDegradedLocal(t *testing.T) {
	w1 := newTestWorker(workerServerConfig())
	defer w1.close()
	w2 := newTestWorker(workerServerConfig())
	defer w2.close()
	w1.gate.down.Store(true)
	w2.gate.down.Store(true)
	c := newCoord(t, testCoordConfig([]string{w1.ts.URL, w2.ts.URL}, nil))
	defer c.Shutdown(context.Background())
	ts := httptest.NewServer(NewCoordinatorHandler(c, HTTPConfig{Logf: discardLogf}))
	defer ts.Close()

	rng := rand.New(rand.NewSource(63))
	req := randomBatch(rng, 20, 35, 27)
	req.Jobs[1].ValuesOnly = true
	br := mustBatch(t, ts.URL, req)
	checkBatchSpectra(t, req, br)
	for i, res := range br.Results {
		if res.Worker != "local" || res.Disposition != eigen.DispositionDegraded.String() {
			t.Errorf("job %d served by %q as %q, want local/degraded", i, res.Worker, res.Disposition)
		}
	}
	if st := c.Stats(); st.Degraded != int64(len(req.Jobs)) || st.LocalSolves != int64(len(req.Jobs)) {
		t.Errorf("degraded=%d local-solves=%d, want %d each", st.Degraded, st.LocalSolves, len(req.Jobs))
	}
}
