package cluster

import (
	"fmt"
	"net/http"
)

// NewCoordinatorHandler exposes a Coordinator over the same HTTP surface as
// a worker, so clients cannot tell which tier they are talking to:
//
//	POST /solve        route one job through the cluster
//	POST /solve/batch  route every job of a batch as its own /solve job:
//	                   each member is routed, failed over and sealed alone
//	GET  /stats    the coordinator's cluster Stats (per-worker breaker and
//	               health state included)
//	GET  /healthz  liveness
//	GET  /readyz   503 once a drain has started
func NewCoordinatorHandler(c *Coordinator, cfg HTTPConfig) http.Handler {
	cfg = cfg.withDefaults()
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", solveHandler(c.Solve, cfg))
	mux.HandleFunc("/solve/batch", batchHandler(c.Solve, cfg))
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if !requireMethod(w, r, http.MethodGet) {
			return
		}
		writeJSON(w, http.StatusOK, c.Stats(), cfg.Logf)
	})
	mux.HandleFunc("/healthz", healthzHandler)
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !requireMethod(w, r, http.MethodGet) {
			return
		}
		if c.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}
