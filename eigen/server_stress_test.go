package eigen

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tridiag/internal/faultinject"
	"tridiag/internal/pool"
)

// TestServerStress is the acceptance gate of the serving layer (make
// stress): 64 concurrent clients with mixed problem sizes against a
// memory-budgeted server while wildcard chaos probes inject panics, errors
// and delays into the task-flow kernels. Every job must end in a classified
// disposition other than failed, the admission reservations must never
// exceed the configured budget, the pool accountant must return to its
// baseline, and no goroutines may leak.
func TestServerStress(t *testing.T) {
	before := runtime.NumGoroutine()
	baseInUse := pool.InUseBytes()
	defer faultinject.Disable()
	faultinject.Enable(42,
		faultinject.Probe{Class: "*", Kind: faultinject.KindError, P: 0.004},
		faultinject.Probe{Class: "*", Kind: faultinject.KindPanic, P: 0.002},
		faultinject.Probe{Class: "*", Kind: faultinject.KindDelay, P: 0.01, Delay: 5 * time.Millisecond},
	)

	const jobs = 64
	cfg := ServerConfig{
		MaxConcurrent:    4,
		MaxQueue:         12,
		MemoryBudget:     48 << 20, // tight enough that some jobs are rejected
		StallWindow:      2 * time.Second,
		MaxRetries:       1,
		RetryBase:        time.Millisecond,
		BreakerThreshold: 5,
		BreakerCooldown:  100 * time.Millisecond,
	}
	s := NewServer(cfg)

	// A sampler races the workload, asserting the budget invariants while
	// jobs are actually in flight, not just at the end.
	samplerDone := make(chan struct{})
	var budgetViolations atomic.Int64
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-samplerDone:
				return
			case <-tick.C:
				if st := s.Stats(); st.ReservedBytes > cfg.MemoryBudget {
					budgetViolations.Add(1)
				}
			}
		}
	}()

	counts := make([]atomic.Int64, dispositionCount)
	var wg sync.WaitGroup
	for c := 0; c < jobs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			tri := randomTridiag(rng, 60+rng.Intn(140))
			o := &Options{Workers: 2, MinPartition: 24}
			ctx := context.Background()
			if c%8 == 3 { // a slice of clients carries deadlines
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 10*time.Second)
				defer cancel()
			}
			// Real tenants back off and retry on overload; that keeps
			// admission under sustained pressure instead of one burst.
			var sr *ServeResult
			var err error
			for try := 0; try < 40; try++ {
				sr, err = s.Solve(ctx, tri, o)
				if !errors.Is(err, ErrOverloaded) {
					break
				}
				time.Sleep(time.Duration(2+rng.Intn(5)) * time.Millisecond)
			}
			if sr == nil {
				t.Errorf("client %d: nil ServeResult", c)
				return
			}
			counts[sr.Disposition].Add(1)
			switch sr.Disposition {
			case DispositionCompleted, DispositionRetried, DispositionDegraded:
				if err != nil || sr.Result == nil {
					t.Errorf("client %d: served disposition %v but err=%v", c, sr.Disposition, err)
					return
				}
				if r := Residual(tri, sr.Result); r > 1e-12 {
					t.Errorf("client %d: residual %.3e (disposition %v)", c, r, sr.Disposition)
				}
			case DispositionRejected:
				if !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrServerClosed) {
					t.Errorf("client %d: rejected with unexpected error %v", c, err)
				}
			case DispositionCancelled:
				if err == nil {
					t.Errorf("client %d: cancelled without error", c)
				}
			default:
				t.Errorf("client %d: unclassified disposition %v (err=%v)", c, sr.Disposition, err)
			}
		}(c)
	}
	wg.Wait()
	samplerDone <- struct{}{}
	<-samplerDone

	st := s.Stats()
	if got := counts[DispositionFailed].Load(); got != 0 || st.Failed != 0 {
		t.Errorf("%d jobs failed outright; the fallback tier must always serve", got)
	}
	var classified int64
	for d := 0; d < dispositionCount; d++ {
		classified += counts[d].Load()
	}
	if classified != jobs {
		t.Errorf("%d of %d jobs classified", classified, jobs)
	}
	if st.PeakReservedBytes > cfg.MemoryBudget {
		t.Errorf("peak reservation %d exceeds budget %d", st.PeakReservedBytes, cfg.MemoryBudget)
	}
	if v := budgetViolations.Load(); v != 0 {
		t.Errorf("sampler saw %d in-flight budget violations", v)
	}
	served := st.Completed + st.Retried + st.Degraded
	if served == 0 {
		t.Error("no job was ever served; the stress test exercised nothing")
	}
	t.Logf("stress: completed=%d retried=%d degraded=%d rejected=%d cancelled=%d retries=%d stalls=%d breakerOpens=%d peakReserved=%dMiB",
		st.Completed, st.Retried, st.Degraded, st.Rejected, st.Cancelled,
		st.Retries, st.WatchdogAborts, st.BreakerOpens, st.PeakReservedBytes>>20)

	if _, err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	faultinject.Disable()
	// The pool accountant must return to its baseline: every pooled byte was
	// returned, by its merge or by an aborted solve after shutdown.
	deadline := time.Now().Add(3 * time.Second)
	for pool.InUseBytes() != baseInUse {
		if time.Now().After(deadline) {
			t.Errorf("pool accountant off baseline after stress: %d, want %d", pool.InUseBytes(), baseInUse)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	checkGoroutines(t, before)
}

// TestServerStressSmallSolveFlood is the small-solve flood gate (picked up by
// the race-enabled stress target): 64 clients flood the server with small
// solves, each served on its own, and every job must come back served,
// attributed to its own matrix, with the disposition ledger balancing
// exactly — zero lost jobs.
func TestServerStressSmallSolveFlood(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := ServerConfig{
		MaxConcurrent: 4,
		MaxQueue:      256,
		StallWindow:   time.Minute,
		MaxRetries:    2,
		RetryBase:     time.Millisecond,
	}
	s := NewServer(cfg)
	const clients = 64
	perClient := 4
	if testing.Short() {
		perClient = 2
	}
	var served, badAttr atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			for j := 0; j < perClient; j++ {
				tri := randomTridiag(rng, 16+rng.Intn(48))
				sr, err := s.Solve(context.Background(), tri, nil)
				if err != nil {
					t.Errorf("client %d job %d: %v", c, j, err)
					continue
				}
				if sr.Disposition != DispositionCompleted && sr.Disposition != DispositionRetried {
					t.Errorf("client %d job %d: disposition %v", c, j, sr.Disposition)
					continue
				}
				if rres := Residual(tri, sr.Result); rres > maxResidual {
					badAttr.Add(1)
					t.Errorf("client %d job %d: residual %.3e — result not for this matrix", c, j, rres)
					continue
				}
				served.Add(1)
			}
		}(c)
	}
	wg.Wait()
	total := int64(clients * perClient)
	if served.Load() != total {
		t.Fatalf("served %d of %d jobs (mis-attributed: %d)", served.Load(), total, badAttr.Load())
	}
	st := s.Stats()
	if st.Admitted != total {
		t.Fatalf("admitted %d, want %d", st.Admitted, total)
	}
	if st.Completed+st.Retried != total || st.Failed != 0 || st.Cancelled != 0 || st.Degraded != 0 {
		t.Fatalf("disposition ledger completed=%d retried=%d degraded=%d cancelled=%d failed=%d, want sum %d with no losses",
			st.Completed, st.Retried, st.Degraded, st.Cancelled, st.Failed, total)
	}
	if st.Queued != 0 || st.Running != 0 || st.ReservedBytes != 0 {
		t.Fatalf("leftover state: queued=%d running=%d reserved=%d", st.Queued, st.Running, st.ReservedBytes)
	}
	checkGoroutines(t, before)
}
