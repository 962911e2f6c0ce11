package eigen

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tridiag/internal/faultinject"
	"tridiag/internal/pool"
)

// TestCancellationLeaksNoGoroutines cancels solves mid-flight across every
// solve mode — with delay probes armed so cancellation regularly lands while
// an injected delay is pending — and asserts the goroutine count and the
// pool accountant return to their baselines. This is the regression gate
// for the context-bounded faultinject delays and the runtime's abort path:
// before delays were context-bounded, a cancelled solve left its workers
// parked in time.Sleep long after the caller had moved on.
func TestCancellationLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	baseline := pool.InUseBytes()
	defer faultinject.Disable()
	rng := rand.New(rand.NewSource(77))
	methods := []Method{MethodDC, MethodDCSequential, MethodMRRR, MethodQR}
	for i, m := range methods {
		// Long injected delays: only the task-flow tier consults probes, but
		// running every mode under the same armed plan also proves the
		// sequential tiers ignore them.
		faultinject.Enable(int64(i), faultinject.Probe{Class: "*", Kind: faultinject.KindDelay, P: 0.5, Delay: 10 * time.Second})
		for run := 0; run < 3; run++ {
			tri := randomTridiag(rng, 100+rng.Intn(60))
			ctx, cancel := context.WithCancel(context.Background())
			delay := time.Duration(1+rng.Intn(10)) * time.Millisecond
			go func() {
				time.Sleep(delay)
				cancel()
			}()
			o := &Options{Method: m, Workers: 4, MinPartition: 24}
			res, err := SolveContext(ctx, tri, o)
			cancel()
			// Mid-solve cancellation must yield ctx.Err or a clean result
			// (the solve may win the race); partial results are forbidden.
			if err == nil {
				if r := Residual(tri, res); r > 1e-12 {
					t.Errorf("method=%v run=%d: completed solve has residual %.3e", m, run, r)
				}
			} else if ctx.Err() == nil {
				t.Errorf("method=%v run=%d: error without cancellation: %v", m, run, err)
			}
		}
		faultinject.Disable()
		checkGoroutines(t, before)
		checkAccountant(t, m.String(), baseline)
	}
}

// TestWatchdogAbortLeaksNoGoroutines hammers the server's watchdog abort
// path: every attempt stalls on an injected delay and is cancelled by the
// watchdog, retried, then degraded. After shutdown the process must be back
// to its goroutine baseline — no watchdogs, workers or timers left behind —
// and the pool accountant to its own: aborted solves return their workspace.
func TestWatchdogAbortLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	baseline := pool.InUseBytes()
	defer faultinject.Disable()
	faultinject.Enable(88, faultinject.Probe{Class: "*", Kind: faultinject.KindDelay, P: 0.3, Delay: 10 * time.Second})
	cfg := ServerConfig{
		MaxConcurrent: 2,
		StallWindow:   60 * time.Millisecond,
		MaxRetries:    1,
		RetryBase:     time.Millisecond,
	}
	s := NewServer(cfg)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 4; i++ {
		tri := randomTridiag(rng, 100+rng.Intn(60))
		sr, err := s.Solve(context.Background(), tri, chaosOptions(false))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if sr.Disposition == DispositionFailed {
			t.Fatalf("run %d: job failed outright", i)
		}
	}
	if st := s.Stats(); st.WatchdogAborts == 0 {
		t.Error("no watchdog abort ever fired; the test exercised nothing")
	}
	if _, err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	faultinject.Disable()
	checkGoroutines(t, before)
	checkAccountant(t, "watchdog", baseline)
}
