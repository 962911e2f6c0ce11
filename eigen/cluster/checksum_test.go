package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"tridiag/eigen"
)

// TestSpectrumChecksum: the seal must be deterministic, order-sensitive and
// bit-exact — a single flipped low-order mantissa bit anywhere in the
// payload must change it.
func TestSpectrumChecksum(t *testing.T) {
	v := []float64{1.5, -2.25, 0, 3.75e-9, 1e300}
	if got, again := SpectrumChecksum(v), SpectrumChecksum(v); got != again {
		t.Fatalf("not deterministic: %x vs %x", got, again)
	}
	if SpectrumChecksum(nil) == 0 {
		t.Fatal("empty payload must still have a nonzero FNV offset seal")
	}
	swapped := []float64{-2.25, 1.5, 0, 3.75e-9, 1e300}
	if SpectrumChecksum(v) == SpectrumChecksum(swapped) {
		t.Fatal("order-insensitive seal")
	}
	for i := range v {
		flipped := append([]float64(nil), v...)
		flipped[i] = math.Float64frombits(math.Float64bits(flipped[i]) ^ 1)
		if SpectrumChecksum(v) == SpectrumChecksum(flipped) {
			t.Fatalf("low-bit flip of value %d not visible in the seal", i)
		}
	}
	// -0 and +0 differ in bit pattern, so the bit-exact seal distinguishes
	// them — the coordinator verifies the bytes that crossed the wire, not a
	// numerical property.
	if SpectrumChecksum([]float64{0}) == SpectrumChecksum([]float64{math.Copysign(0, -1)}) {
		t.Fatal("seal is not bit-exact over signed zeros")
	}
}

// bitflipProxy forwards requests to the real worker handler and flips one
// low-order mantissa bit of the first eigenvalue in every successful /solve
// response AFTER the worker sealed it — the wire/proxy-buffer corruption the
// response checksum exists to catch.
type bitflipProxy struct{ next http.Handler }

func (p *bitflipProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/solve" {
		p.next.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	p.next.ServeHTTP(rec, r)
	var resp SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err == nil && resp.Error == "" && len(resp.Values) > 0 {
		resp.Values[0] = math.Float64frombits(math.Float64bits(resp.Values[0]) ^ 1)
		var buf bytes.Buffer
		if json.NewEncoder(&buf).Encode(&resp) == nil {
			rec.Body = &buf
		}
	}
	for k, vs := range rec.Header() {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

// TestCoordinatorChecksumMismatchFailsOver: a worker whose responses are
// corrupted in transit must never have its payload served — the coordinator
// re-derives the seal after decoding, counts the mismatch, marks the worker
// failing, and serves through the local tier instead, sealed like a
// worker response.
func TestCoordinatorChecksumMismatchFailsOver(t *testing.T) {
	before := runtime.NumGoroutine()
	w := newTestWorker(workerServerConfig())
	defer w.close()
	// Interpose the bit-flipping proxy between the gate and the handler.
	w.gate.next = &bitflipProxy{next: w.gate.next}

	cfg := testCoordConfig([]string{w.ts.URL}, http.DefaultClient)
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Shutdown(context.Background())
		checkGoroutines(t, before)
	}()

	rng := rand.New(rand.NewSource(7))
	req := randomRequest(rng, 80)
	want, err := eigen.Solve(req.Tri(), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("solve failed instead of failing over: %v", err)
	}
	if resp.Worker != "local" {
		t.Errorf("corrupted remote served the job: worker %q", resp.Worker)
	}
	if resp.Checksum == 0 || resp.Checksum != SpectrumChecksum(resp.Values) {
		t.Errorf("local-tier response seal %#x does not match its values (want %#x)", resp.Checksum, SpectrumChecksum(resp.Values))
	}
	for i := range want.Values {
		if math.Abs(resp.Values[i]-want.Values[i]) > 1e-12 {
			t.Fatalf("served values differ from reference at %d", i)
		}
	}
	st := c.Stats()
	if st.ChecksumMismatches == 0 {
		t.Error("checksum mismatch not counted")
	}
	if st.Degraded == 0 {
		t.Error("degraded disposition not counted")
	}
}

// TestWorkerResponseSealed: every successful worker response carries a seal
// that matches its own payload.
func TestWorkerResponseSealed(t *testing.T) {
	w := newTestWorker(workerServerConfig())
	defer w.close()
	rng := rand.New(rand.NewSource(8))
	body, _ := json.Marshal(randomRequest(rng, 60))
	httpResp, err := http.Post(w.ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var resp SolveResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Fatalf("solve error: %s", resp.Error)
	}
	if resp.Checksum == 0 {
		t.Fatal("response carries no seal")
	}
	if got := SpectrumChecksum(resp.Values); got != resp.Checksum {
		t.Fatalf("seal %x does not match payload seal %x", resp.Checksum, got)
	}
}
