package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"tridiag/eigen"
)

// HTTPConfig tunes an HTTP front end (worker or coordinator); zero values
// select the documented defaults.
type HTTPConfig struct {
	// MaxBodyBytes caps the /solve request body (default 64 MiB). Larger
	// bodies are rejected with 413 before the decoder buffers them.
	MaxBodyBytes int64
	// Logf sinks handler diagnostics — most importantly response-encode
	// failures, which happen after the status line is committed and would
	// otherwise vanish (default log.Printf).
	Logf func(format string, args ...any)
}

func (c HTTPConfig) withDefaults() HTTPConfig {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// NewWorkerHandler exposes an eigen.Server over HTTP — the worker side of
// the cluster tier, and the whole API of a standalone eigserve:
//
//	POST /solve        run one job ({"d": [...], "e": [...], ...})
//	POST /solve/batch  run every job of {"jobs": [{...}, ...]} as its own
//	                   /solve job, concurrently; results in job order
//	GET  /stats    the server's ServerStats counters
//	GET  /healthz  liveness: 200 while the process can answer at all
//	GET  /readyz   readiness: 503 once a drain has started or the queue
//	               is full, 200 otherwise
//
// Coordinators probe /healthz and poll /stats for load; deployments point
// load-balancer health checks at /readyz.
func NewWorkerHandler(s *eigen.Server, cfg HTTPConfig) http.Handler {
	cfg = cfg.withDefaults()
	mux := http.NewServeMux()
	solve := func(ctx context.Context, req *SolveRequest) (*SolveResponse, error) {
		if req.TimeoutMS > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
			defer cancel()
		}
		return serverSolve(ctx, s, req)
	}
	mux.HandleFunc("/solve", solveHandler(solve, cfg))
	mux.HandleFunc("/solve/batch", batchHandler(solve, cfg))
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if !requireMethod(w, r, http.MethodGet) {
			return
		}
		writeJSON(w, http.StatusOK, s.Stats(), cfg.Logf)
	})
	mux.HandleFunc("/healthz", healthzHandler)
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !requireMethod(w, r, http.MethodGet) {
			return
		}
		switch {
		case s.Draining():
			http.Error(w, "draining", http.StatusServiceUnavailable)
		case s.QueueFull():
			http.Error(w, "queue full", http.StatusServiceUnavailable)
		default:
			fmt.Fprintln(w, "ok")
		}
	})
	return mux
}

// solveFunc is one role's single-job function: the worker's serverSolve or
// the coordinator's Solve. The response is non-nil even on error.
type solveFunc func(ctx context.Context, req *SolveRequest) (*SolveResponse, error)

// serverSolve runs one decoded job on an in-process eigen.Server and builds
// its wire response: a served one carries the values sealed with
// SpectrumChecksum, a failed one only the disposition.
func serverSolve(ctx context.Context, s *eigen.Server, req *SolveRequest) (*SolveResponse, error) {
	method, _ := ParseMethod(req.Method) // validated by the caller
	sr, err := s.Solve(ctx, req.Tri(), &eigen.Options{Method: method, Workers: req.Workers, ValuesOnly: req.ValuesOnly})
	resp := &SolveResponse{
		N:           req.Tri().N(),
		Disposition: sr.Disposition.String(),
		Attempts:    sr.Attempts,
		Stalls:      sr.Stalls,
	}
	if err != nil {
		return resp, err
	}
	resp.Values = sr.Result.Values
	resp.Checksum = SpectrumChecksum(resp.Values)
	if req.Vectors {
		resp.Vectors = sr.Result.Vectors
	}
	if sr.Result.Stats != nil {
		resp.Tier = sr.Result.Stats.Tier
	}
	return resp, nil
}

// solveHandler serves POST /solve for either role.
func solveHandler(solve solveFunc, cfg HTTPConfig) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, ok := decodeSolveRequest(w, r, cfg)
		if !ok {
			return
		}
		resp, err := solve(r.Context(), req)
		if err != nil {
			resp.Error = err.Error()
		}
		writeJSON(w, StatusOf(err), resp, cfg.Logf)
	}
}

// batchFanout bounds how many members of one batch run at once: the body
// cap admits millions of tiny members, and each running member holds a
// goroutine.
const batchFanout = 64

// batchHandler serves POST /solve/batch for either role as a fan-out: the
// members run concurrently (at most batchFanout at a time) through solve,
// the same single-job function as POST /solve, so each member keeps its own
// options, deadline, disposition and seal — and on a coordinator its own
// routing and failover. The batch-level TimeoutMS bounds every member.
func batchHandler(solve solveFunc, cfg HTTPConfig) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, ok := decodeBatchRequest(w, r, cfg)
		if !ok {
			return
		}
		ctx := r.Context()
		if req.TimeoutMS > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
			defer cancel()
		}
		results := make([]SolveResponse, len(req.Jobs))
		errs := make([]error, len(req.Jobs))
		var wg sync.WaitGroup
		sem := make(chan struct{}, batchFanout)
		for i := range req.Jobs {
			sem <- struct{}{}
			wg.Add(1)
			go func(i int) {
				defer func() { <-sem; wg.Done() }()
				resp, err := solve(ctx, &req.Jobs[i])
				if err != nil {
					resp.Error = err.Error()
				}
				results[i], errs[i] = *resp, err
			}(i)
		}
		wg.Wait()
		writeJSON(w, batchStatus(errs), &BatchResponse{Results: results}, cfg.Logf)
	}
}

// batchStatus maps a batch's member errors to the response status: any
// served member makes the batch a 200 (per-member errors ride inside), a
// batch where every member failed reports the first member's status, as a
// failed single job would.
func batchStatus(errs []error) int {
	var first error
	for _, err := range errs {
		if err == nil {
			return http.StatusOK
		}
		if first == nil {
			first = err
		}
	}
	return StatusOf(first)
}

// decodeBatchRequest enforces the /solve/batch preconditions shared by
// workers and coordinators: POST only (405), body under MaxBodyBytes (413),
// well-formed JSON with at least one job and every member carrying a known
// method, a consistent shape and a consistent class (400). A malformed member
// rejects the whole batch before any member runs.
func decodeBatchRequest(w http.ResponseWriter, r *http.Request, cfg HTTPConfig) (*BatchRequest, bool) {
	if !requireMethod(w, r, http.MethodPost) {
		return nil, false
	}
	r.Body = http.MaxBytesReader(w, r.Body, cfg.MaxBodyBytes)
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
				http.StatusRequestEntityTooLarge)
			return nil, false
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if len(req.Jobs) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return nil, false
	}
	for i := range req.Jobs {
		if _, err := ParseMethod(req.Jobs[i].Method); err != nil {
			http.Error(w, fmt.Sprintf("job %d: %v", i, err), http.StatusBadRequest)
			return nil, false
		}
		if err := req.Jobs[i].Tri().Validate(); err != nil {
			http.Error(w, fmt.Sprintf("job %d: %v", i, err), http.StatusBadRequest)
			return nil, false
		}
		if err := req.Jobs[i].ValidateClass(); err != nil {
			http.Error(w, fmt.Sprintf("job %d: %v", i, err), http.StatusBadRequest)
			return nil, false
		}
	}
	return &req, true
}

// decodeSolveRequest enforces the /solve preconditions shared by workers and
// coordinators: POST only (405), body under MaxBodyBytes (413), well-formed
// JSON with a known method and a consistent shape (400). Malformed jobs are
// client errors — they must be rejected here, before they consume a solve
// slot and surface as spurious internal failures.
func decodeSolveRequest(w http.ResponseWriter, r *http.Request, cfg HTTPConfig) (*SolveRequest, bool) {
	if !requireMethod(w, r, http.MethodPost) {
		return nil, false
	}
	r.Body = http.MaxBytesReader(w, r.Body, cfg.MaxBodyBytes)
	var req SolveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
				http.StatusRequestEntityTooLarge)
			return nil, false
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if _, err := ParseMethod(req.Method); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if err := req.Tri().Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if err := req.ValidateClass(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return &req, true
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		http.Error(w, method+" only", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

func healthzHandler(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	fmt.Fprintln(w, "ok")
}

// writeJSON commits the status line and encodes v. An encode failure at this
// point (client hung up, response write timed out) cannot change the status
// anymore, so it is logged instead of silently dropped.
func writeJSON(w http.ResponseWriter, status int, v any, logf func(string, ...any)) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		logf("cluster: encoding %d response: %v", status, err)
	}
}
