// eigserve runs the tridiag solve service behind an HTTP JSON API, in one of
// two roles.
//
// Worker (the default): a long-lived multi-tenant eigensolver with admission
// control, watchdog retries, circuit breakers and graceful drain:
//
//	eigserve -addr :8081 -budget 256 -stall 10s
//
// Coordinator: routes solves across a set of workers with per-worker health
// probes and circuit breakers, failover on timeout/connection-reset/5xx, and
// an in-process local tier that keeps answering when every worker is down
// (those jobs come back "degraded" with "worker": "local"):
//
//	eigserve -role coordinator -addr :8080 \
//	    -worker http://host1:8081 -worker http://host2:8081
//
// Both roles serve the same API:
//
//	POST /solve    {"d": [...], "e": [...], "method": "dc", "vectors": false}
//	            →  {"values": [...], "disposition": "completed", ...}
//	POST /solve/batch  {"jobs": [{"d": [...], "e": [...]}, ...]}
//	            →  {"results": [{...}, ...]} — one result per job, in order;
//	               each job is served (and, on a coordinator, routed) as
//	               its own /solve job
//	GET  /stats    service counters (per-worker breaker state on coordinators)
//	GET  /healthz  liveness
//	GET  /readyz   readiness (503 while draining or backed up)
//
// SIGINT/SIGTERM starts a graceful drain: admission stops, in-flight jobs
// finish (up to -drain), and each one is logged as "job ID (n=N) worker:
// disposition", where worker is "local" for an in-process solve and a worker
// URL for a job a coordinator routed.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tridiag/eigen"
	"tridiag/eigen/cluster"
)

// urlList collects repeatable -worker flags.
type urlList []string

func (u *urlList) String() string     { return strings.Join(*u, ",") }
func (u *urlList) Set(v string) error { *u = append(*u, v); return nil }

func main() {
	role := flag.String("role", "worker", `"worker" serves solves; "coordinator" routes them to -worker instances`)
	var workers urlList
	flag.Var(&workers, "worker", "worker base URL (coordinator role; repeat per worker)")
	addr := flag.String("addr", ":8080", "listen address")
	concurrent := flag.Int("concurrent", 0, "max concurrent solves (0: all cores)")
	queue := flag.Int("queue", 0, "max queued jobs (0: 4x concurrent)")
	budget := flag.Int64("budget", 0, "workspace budget in MiB (0: unlimited)")
	stall := flag.Duration("stall", 10*time.Second, "watchdog no-progress abort window")
	retries := flag.Int("retries", 2, "same-tier retries for transient failures")
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain deadline on SIGINT/SIGTERM")
	maxBody := flag.Int64("max-body", 64, "max /solve request body in MiB (413 beyond)")
	readTimeout := flag.Duration("read-timeout", 2*time.Minute, "HTTP read deadline (headers+body)")
	writeTimeout := flag.Duration("write-timeout", 10*time.Minute,
		"HTTP write deadline; must cover the longest solve plus its response")
	probe := flag.Duration("probe", 250*time.Millisecond, "coordinator health-probe interval")
	attemptTimeout := flag.Duration("attempt-timeout", 60*time.Second,
		"coordinator per-attempt cap before failing a job over to another worker")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive failures that open a worker's circuit")
	breakerCooldown := flag.Duration("breaker-cooldown", 2*time.Second, "open-circuit rest before the half-open probe")
	flag.Parse()

	httpCfg := cluster.HTTPConfig{MaxBodyBytes: *maxBody << 20}
	// Both roles run an eigen.Server: it is the whole service on a worker and
	// the local tier on a coordinator.
	s := eigen.NewServer(eigen.ServerConfig{
		MaxConcurrent: *concurrent,
		MaxQueue:      *queue,
		MemoryBudget:  *budget << 20,
		StallWindow:   *stall,
		MaxRetries:    *retries,
	})

	var handler http.Handler
	var shutdown func(context.Context) (*eigen.DrainReport, error)
	var statsFn func()
	switch *role {
	case "worker":
		handler = cluster.NewWorkerHandler(s, httpCfg)
		shutdown = s.Shutdown
		statsFn = func() {
			st := s.Stats()
			log.Printf("served: completed=%d retried=%d degraded=%d rejected=%d cancelled=%d failed=%d",
				st.Completed, st.Retried, st.Degraded, st.Rejected, st.Cancelled, st.Failed)
			if st.ValuesOnlyAdmitted > 0 {
				log.Printf("values-only class: admitted=%d completed=%d avg-service=%v (full-solve avg=%v)",
					st.ValuesOnlyAdmitted, st.ValuesOnlyCompleted,
					time.Duration(st.ValuesOnlyAvgServiceNanos).Round(time.Microsecond),
					time.Duration(st.AvgServiceNanos).Round(time.Microsecond))
			}
			if st.CorruptionsDetected > 0 {
				log.Printf("silent-error defense: corruptions detected=%d healed=%d",
					st.CorruptionsDetected, st.CorruptionsHealed)
			}
		}
	case "coordinator":
		c, err := cluster.NewCoordinator(cluster.Config{
			Workers:          workers,
			Local:            s,
			ProbeInterval:    *probe,
			AttemptTimeout:   *attemptTimeout,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
		})
		if err != nil {
			log.Fatal(err)
		}
		handler = cluster.NewCoordinatorHandler(c, httpCfg)
		shutdown = c.Shutdown
		statsFn = func() {
			st := c.Stats()
			log.Printf("routed: completed=%d retried=%d failed-over=%d degraded=%d rejected=%d cancelled=%d failed=%d",
				st.Completed, st.Retried, st.FailedOver, st.Degraded, st.Rejected, st.Cancelled, st.Failed)
			if st.ChecksumMismatches > 0 || st.Local.CorruptionsDetected > 0 {
				log.Printf("silent-error defense: wire checksum mismatches=%d local detected=%d healed=%d",
					st.ChecksumMismatches, st.Local.CorruptionsDetected, st.Local.CorruptionsHealed)
			}
		}
	default:
		log.Fatalf("unknown -role %q (want worker or coordinator)", *role)
	}

	hs := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Slowloris protection and bounded request/response lifetimes; the
		// write deadline must cover the longest solve the deployment serves.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
	}

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("draining (deadline %v)...", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		rep, err := shutdown(ctx)
		for _, j := range rep.Jobs {
			log.Printf("  job %d (n=%d) %s: %s", j.ID, j.N, j.Worker, j.Disposition)
		}
		if err != nil {
			log.Printf("drain deadline hit, remaining jobs cancelled: %v", err)
		}
		// The HTTP shutdown shares the drain deadline: a client that never
		// reads its response must not hold the process open forever.
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v; closing remaining connections", err)
			hs.Close()
		}
	}()

	log.Printf("eigserve %s listening on %s", *role, *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	statsFn()
}
