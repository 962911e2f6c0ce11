package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"testing"

	"tridiag/eigen"
)

// TestWorkerHTTPValuesOnlyRoundTrip: a values_only solve round-trips through
// the worker API with the spectrum and without any eigenvector payload, and
// the contradictory values_only+vectors class is a 400 before it costs a
// solve slot.
func TestWorkerHTTPValuesOnlyRoundTrip(t *testing.T) {
	w := newTestWorker(workerServerConfig())
	defer w.close()

	req := randomRequest(rand.New(rand.NewSource(21)), 200)
	req.ValuesOnly = true
	resp := postSolve(t, w.ts.URL, mustJSON(t, req))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("values_only solve: status %d, want 200", resp.StatusCode)
	}
	var sr SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	checkSpectrum(t, req, &sr)
	if len(sr.Vectors) != 0 {
		t.Errorf("values_only response carries %d vector floats", len(sr.Vectors))
	}
	if sr.Disposition != "completed" || sr.Tier != "task-flow" {
		t.Errorf("disposition=%q tier=%q, want completed/task-flow", sr.Disposition, sr.Tier)
	}
	if st := w.srv.Stats(); st.ValuesOnlyAdmitted != 1 || st.ValuesOnlyCompleted != 1 {
		t.Errorf("per-class counters: admitted=%d completed=%d, want 1/1",
			st.ValuesOnlyAdmitted, st.ValuesOnlyCompleted)
	}

	// values_only + vectors is a contradiction: 400, classified like any
	// other malformed job.
	bad := randomRequest(rand.New(rand.NewSource(22)), 24)
	bad.ValuesOnly = true
	bad.Vectors = true
	resp2 := postSolve(t, w.ts.URL, mustJSON(t, bad))
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("values_only+vectors: status %d, want 400", resp2.StatusCode)
	}
}

// TestWorkerHTTPValuesOnlyBatch: a batch mixing values_only and full members
// is served member by member, each in its own request class — values_only
// members carry no vectors, a full member asking for vectors gets them — and
// the server's per-class counters see every values_only member. A conflicted
// member (values_only+vectors) still rejects the whole batch with 400.
func TestWorkerHTTPValuesOnlyBatch(t *testing.T) {
	w := newTestWorker(workerServerConfig())
	defer w.close()
	rng := rand.New(rand.NewSource(31))

	req := &BatchRequest{}
	for i := 0; i < 6; i++ {
		r := randomRequest(rng, 40+20*i)
		r.ValuesOnly = i%2 == 0
		r.Vectors = i == 3
		req.Jobs = append(req.Jobs, *r)
	}
	br := mustBatch(t, w.ts.URL, req)
	checkBatchSpectra(t, req, br)
	for i := range br.Results {
		if br.Results[i].Disposition != "completed" {
			t.Errorf("member %d: disposition %q", i, br.Results[i].Disposition)
		}
	}
	if st := w.srv.Stats(); st.ValuesOnlyAdmitted != 3 || st.ValuesOnlyCompleted != 3 || st.Admitted != 6 {
		t.Errorf("admitted=%d values-only admitted=%d completed=%d, want 6/3/3",
			st.Admitted, st.ValuesOnlyAdmitted, st.ValuesOnlyCompleted)
	}

	conflicted := append([]SolveRequest(nil), req.Jobs...)
	conflicted[2].Vectors = true
	resp := postBatch(t, w.ts.URL, mustJSON(t, &BatchRequest{Jobs: conflicted}))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("conflicted batch member: status %d, want 400", resp.StatusCode)
	}
}

// TestCoordinatorValuesOnly: the coordinator forwards the request class to
// workers, rejects contradictory classes as ErrBadInput before routing, and
// its local tier honors values_only when every worker is gone.
func TestCoordinatorValuesOnly(t *testing.T) {
	w := newTestWorker(workerServerConfig())
	defer w.close()
	c := newCoord(t, testCoordConfig([]string{w.ts.URL}, nil))
	defer c.Shutdown(context.Background())
	rng := rand.New(rand.NewSource(41))

	req := randomRequest(rng, 180)
	req.ValuesOnly = true
	resp := mustClusterSolve(t, c, req)
	if len(resp.Vectors) != 0 {
		t.Errorf("values_only cluster response carries vectors")
	}

	bad := randomRequest(rng, 20)
	bad.ValuesOnly = true
	bad.Vectors = true
	if _, err := c.Solve(context.Background(), bad); !errors.Is(err, eigen.ErrBadInput) {
		t.Fatalf("values_only+vectors through coordinator: err=%v, want ErrBadInput", err)
	}

	// Partition the only worker away: the local tier must still
	// serve the values_only class, vectors-free.
	w.gate.down.Store(true)
	req2 := randomRequest(rng, 160)
	req2.ValuesOnly = true
	resp2, err := c.Solve(context.Background(), req2)
	if err != nil {
		t.Fatalf("local-tier values_only solve: %v", err)
	}
	checkSpectrum(t, req2, resp2)
	if len(resp2.Vectors) != 0 {
		t.Errorf("local-tier values_only response carries vectors")
	}
	if resp2.Worker != "local" {
		t.Errorf("worker %q, want local (the only worker is partitioned)", resp2.Worker)
	}
}
