package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"

	"tridiag/eigen"
)

// SolveRequest is the wire form of one solve job, shared by the worker and
// coordinator /solve endpoints.
type SolveRequest struct {
	D      []float64 `json:"d"`
	E      []float64 `json:"e"`
	Method string    `json:"method,omitempty"` // dc | dc-seq | mrrr | qr
	// Workers is the per-solve worker-goroutine cap on the serving instance.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS is the job's deadline; admission rejects jobs whose deadline
	// cannot be met given the current load.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Vectors includes the n×n eigenvector matrix in the response
	// (column-major, column j = eigenvector j). Off by default: for large n
	// the payload dwarfs the eigenvalues.
	Vectors bool `json:"vectors,omitempty"`
	// ValuesOnly requests the eigenvalue-only fast lane: no eigenvector
	// tasks run, the solve's workspace is O(n·depth) instead of O(n²), and
	// admission charges the much smaller EstimateValuesOnlySolveBytes
	// footprint — so a loaded instance admits far more values_only jobs than
	// full solves under the same memory budget. Mutually exclusive with
	// Vectors (rejected with 400).
	ValuesOnly bool `json:"values_only,omitempty"`
}

// ValidateClass rejects contradictory request classes — values_only together
// with vectors — as a client error before the job consumes a solve slot.
func (r *SolveRequest) ValidateClass() error {
	if r.ValuesOnly && r.Vectors {
		return fmt.Errorf("values_only and vectors are mutually exclusive")
	}
	return nil
}

// Tri views the request's problem as an eigen.Tridiagonal (aliasing the
// request slices).
func (r *SolveRequest) Tri() eigen.Tridiagonal {
	return eigen.Tridiagonal{D: r.D, E: r.E}
}

// SolveResponse is the wire form of one solve outcome. A worker reports its
// eigen.Server disposition; a coordinator overwrites Disposition with the
// cluster-level one and fills Worker/Failovers.
type SolveResponse struct {
	N           int       `json:"n"`
	Values      []float64 `json:"values,omitempty"`
	Vectors     []float64 `json:"vectors,omitempty"`
	Disposition string    `json:"disposition"`
	Attempts    int       `json:"attempts"`
	Stalls      int       `json:"stalls"`
	Tier        string    `json:"tier,omitempty"`
	// Worker names the instance that served the job ("local" for the
	// coordinator's in-process local tier); set by coordinators only.
	Worker string `json:"worker,omitempty"`
	// Failovers counts the remote attempts that were abandoned before a
	// different worker served the job; set by coordinators only.
	Failovers int    `json:"failovers,omitempty"`
	Error     string `json:"error,omitempty"`
	// Checksum is the serving worker's SpectrumChecksum over Values: an
	// end-to-end integrity seal on the wire payload. Coordinators recompute
	// it after decoding and treat a mismatch like a truncated response — a
	// transient corruption worth a failover — so a bit flip in transit, in
	// a proxy buffer, or in the worker's encoder never ships to the client.
	// Zero means the worker predates the seal (nothing to verify).
	Checksum uint64 `json:"checksum,omitempty"`
}

// SpectrumChecksum seals a result's eigenvalue payload: FNV-64a over the
// IEEE-754 bit patterns of the values in order. Bit-exact by construction —
// the coordinator verifies the bytes that crossed the wire, not a numerical
// property — and cheap enough (one multiply-xor per value) to run on every
// response.
func SpectrumChecksum(values []float64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range values {
		b := math.Float64bits(v)
		for i := 0; i < 64; i += 8 {
			h ^= (b >> i) & 0xff
			h *= prime64
		}
	}
	return h
}

// BatchRequest is the wire form of a solve batch, shared by the worker and
// coordinator /solve/batch endpoints. Each member is served as its own
// /solve job with its own method, worker cap, deadline and class; the
// batch-level TimeoutMS bounds every member.
type BatchRequest struct {
	Jobs []SolveRequest `json:"jobs"`
	// TimeoutMS bounds the whole batch; member TimeoutMS values bound their
	// own jobs within it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchResponse is the wire form of a batch outcome: one SolveResponse per
// job, in job order, each with its own disposition, error and seal — one
// member failing never voids another.
type BatchResponse struct {
	Results []SolveResponse `json:"results"`
}

// ParseMethod maps the wire method name to the eigen.Method ("" selects the
// task-flow D&C default).
func ParseMethod(s string) (eigen.Method, error) {
	switch s {
	case "", "dc":
		return eigen.MethodDC, nil
	case "dc-seq":
		return eigen.MethodDCSequential, nil
	case "mrrr":
		return eigen.MethodMRRR, nil
	case "qr":
		return eigen.MethodQR, nil
	}
	return 0, fmt.Errorf("unknown method %q", s)
}

// StatusOf maps a serve error to its HTTP status: malformed input is the
// client's fault (400), overload backpressure asks the client to back off
// and retry (503), cancellation/deadline expiry is 408, and anything else is
// an internal failure (500).
func StatusOf(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, eigen.ErrBadInput):
		return http.StatusBadRequest
	case errors.Is(err, eigen.ErrOverloaded), errors.Is(err, eigen.ErrServerClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout
	}
	return http.StatusInternalServerError
}
