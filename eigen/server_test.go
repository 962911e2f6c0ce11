package eigen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tridiag/internal/faultinject"
	"tridiag/internal/pool"
)

// serverConfig is the suite's base configuration: small and fast, with the
// watchdog effectively disabled unless a test arms it.
func serverConfig() ServerConfig {
	return ServerConfig{
		MaxConcurrent: 2,
		MaxQueue:      8,
		StallWindow:   time.Minute,
		MaxRetries:    2,
		RetryBase:     time.Millisecond,
	}
}

func mustSolve(t *testing.T, s *Server, tri Tridiagonal, o *Options) *ServeResult {
	t.Helper()
	sr, err := s.Solve(context.Background(), tri, o)
	if err != nil {
		t.Fatalf("server solve n=%d: %v", tri.N(), err)
	}
	if sr.Result == nil {
		t.Fatalf("server solve n=%d: nil result without error", tri.N())
	}
	return sr
}

// TestServerBasic serves concurrent clean jobs: all complete on the primary
// tier, results verify, and the counters add up.
func TestServerBasic(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewServer(serverConfig())
	rng := rand.New(rand.NewSource(1))
	tris := make([]Tridiagonal, 8)
	for i := range tris {
		tris[i] = randomTridiag(rng, 60+rng.Intn(60))
	}
	var wg sync.WaitGroup
	for i := range tris {
		wg.Add(1)
		go func(tri Tridiagonal) {
			defer wg.Done()
			sr, err := s.Solve(context.Background(), tri, chaosOptions(false))
			if err != nil {
				t.Errorf("n=%d: %v", tri.N(), err)
				return
			}
			if sr.Disposition != DispositionCompleted || sr.Attempts != 1 {
				t.Errorf("n=%d: disposition=%v attempts=%d, want completed/1", tri.N(), sr.Disposition, sr.Attempts)
			}
			if r := Residual(tri, sr.Result); r > 1e-12 {
				t.Errorf("n=%d: residual %.3e", tri.N(), r)
			}
		}(tris[i])
	}
	wg.Wait()
	st := s.Stats()
	if st.Admitted != 8 || st.Completed != 8 || st.Rejected != 0 {
		t.Errorf("stats %+v, want 8 admitted and completed", st)
	}
	if st.Queued != 0 || st.Running != 0 || st.ReservedBytes != 0 {
		t.Errorf("server not quiescent after jobs: %+v", st)
	}
	if _, err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	checkGoroutines(t, before)
}

// TestServerQueueFull fills the single slot and the single queue seat with
// delay-stalled jobs; the next job must be rejected with ErrOverloaded and
// counted, without being admitted.
func TestServerQueueFull(t *testing.T) {
	// A job stalls in its Scale task, which every other task depends on.
	// Once the forced drain cuts the stall short, the job's next task fails:
	// with delays alone the released job could run its remaining tasks
	// before the runtime observes the cancellation, and complete.
	defer faultinject.Disable()
	faultinject.Enable(1,
		faultinject.Probe{Class: "Scale", Kind: faultinject.KindDelay, P: 1, Delay: 10 * time.Second},
		faultinject.Probe{Class: "*", Kind: faultinject.KindError, P: 1},
	)
	cfg := serverConfig()
	cfg.MaxConcurrent, cfg.MaxQueue = 1, 1
	s := NewServer(cfg)
	rng := rand.New(rand.NewSource(2))
	tri := randomTridiag(rng, 80)

	// Job 2 starts only once job 1 holds the slot: admitted earlier, it
	// would find job 1 still on the only queue seat and be rejected itself.
	var wg sync.WaitGroup
	solve := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Solve(context.Background(), tri, chaosOptions(false))
		}()
	}
	solve()
	waitFor(t, func() bool { return s.Stats().Running == 1 })
	solve()
	waitFor(t, func() bool {
		st := s.Stats()
		return st.Running == 1 && st.Queued == 1
	})

	if _, err := s.Solve(context.Background(), tri, chaosOptions(false)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third job: err=%v, want ErrOverloaded", err)
	}
	st := s.Stats()
	if st.Rejected != 1 || st.Admitted != 2 {
		t.Errorf("stats %+v, want 1 rejected / 2 admitted", st)
	}

	// Forced drain unblocks the stalled jobs (the delay probes are bounded
	// by the solve context — PR 5's faultinject change).
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rep, err := s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain err=%v, want DeadlineExceeded", err)
	}
	if len(rep.Jobs) != 2 {
		t.Fatalf("drain report has %d jobs, want 2", len(rep.Jobs))
	}
	wg.Wait()
	for _, j := range rep.Jobs {
		if j.Disposition != DispositionCancelled {
			t.Errorf("job %d: disposition %v, want cancelled", j.ID, j.Disposition)
		}
	}
}

// TestServerMemoryBudget rejects a job whose workspace estimate exceeds the
// remaining budget and admits it once the budget fits, tracking the peak.
func TestServerMemoryBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tri := randomTridiag(rng, 96)
	o := chaosOptions(false)
	est := EstimateSolveBytes(tri.N(), o.Workers)
	if est <= 0 {
		t.Fatalf("estimate for n=%d is %d", tri.N(), est)
	}

	cfg := serverConfig()
	cfg.MemoryBudget = est - 1
	s := NewServer(cfg)
	if _, err := s.Solve(context.Background(), tri, o); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("under-budget server: err=%v, want ErrOverloaded", err)
	}

	cfg.MemoryBudget = est
	s2 := NewServer(cfg)
	sr := mustSolve(t, s2, tri, o)
	if sr.Disposition != DispositionCompleted {
		t.Errorf("disposition %v, want completed", sr.Disposition)
	}
	st := s2.Stats()
	if st.PeakReservedBytes != est || st.ReservedBytes != 0 {
		t.Errorf("peak=%d reserved=%d, want peak=%d reserved=0", st.PeakReservedBytes, st.ReservedBytes, est)
	}
}

// perturbedLegendre is the Legendre Jacobi matrix with a 1e-6 relative
// perturbation of every entry, which breaks its mirror symmetry: almost
// nothing deflates, the worst case for the merges' S and Q2 workspace.
func perturbedLegendre(n int, rng *rand.Rand) Tridiagonal {
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := 1; i < n; i++ {
		fi := float64(i)
		e[i-1] = fi / math.Sqrt((2*fi-1)*(2*fi+1)) * (1 + 1e-6*(2*rng.Float64()-1))
	}
	for i := range d {
		d[i] = 0.5e-6 * (2*rng.Float64() - 1)
	}
	return Tridiagonal{D: d, E: e}
}

// TestFullSolveWorkspaceBound is TestValuesOnlyWorkspaceBound's full-lane
// counterpart: the peak pooled workspace of real full solves at n=2000,
// sampled from the pool accountant after every executed task via the
// Progress heartbeat, must stay within the admission charge
// EstimateSolveBytes — on a no-deflation matrix and on glued W21.
func TestFullSolveWorkspaceBound(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewSource(45))
	mats := []struct {
		name string
		tri  Tridiagonal
	}{
		{"perturbed-legendre", perturbedLegendre(n, rng)},
		{"glued-w21", exactGluedW21(n, 1e-10)},
	}
	for _, m := range mats {
		for _, workers := range []int{2, 4} {
			base := pool.InUseBytes()
			var peak atomic.Int64
			progress := func() {
				v := pool.InUseBytes()
				for {
					cur := peak.Load()
					if v <= cur || peak.CompareAndSwap(cur, v) {
						return
					}
				}
			}
			res, err := SolveContext(context.Background(), m.tri, &Options{Workers: workers, Progress: progress})
			if err != nil {
				t.Fatalf("%s W=%d: %v", m.name, workers, err)
			}
			if r := Residual(m.tri, res); r > 1e-12 {
				t.Fatalf("%s W=%d: residual %.3e", m.name, workers, r)
			}
			used := peak.Load() - base
			est := EstimateSolveBytes(n, workers)
			if used <= 0 {
				t.Fatalf("%s W=%d: progress sampling observed no pooled workspace; the probe is broken", m.name, workers)
			}
			if used > est {
				t.Errorf("%s W=%d: peak pooled workspace %d bytes exceeds the admission estimate %d", m.name, workers, used, est)
			}
			t.Logf("%s W=%d: peak pooled workspace %.2f MB of the %.1f MB estimate", m.name, workers, float64(used)/1e6, float64(est)/1e6)
		}
	}
}

// TestServerDeadlineReject primes the service-time EWMA and then offers a job
// whose deadline cannot possibly be met: admission must reject it up front
// instead of letting it burn a slot and time out mid-solve.
func TestServerDeadlineReject(t *testing.T) {
	s := NewServer(serverConfig())
	rng := rand.New(rand.NewSource(4))
	tri := randomTridiag(rng, 120)
	mustSolve(t, s, tri, chaosOptions(false)) // primes avgNanos

	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err := s.Solve(ctx, tri, chaosOptions(false))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err=%v, want ErrOverloaded", err)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("rejected=%d, want 1", st.Rejected)
	}
}

// TestServerWatchdogStallDegrades stalls every LAED4 task far beyond the
// stall window: the watchdog must abort each primary attempt within ~2× the
// window, the retries must be counted as stalls, and the job must still be
// served by the injection-free fallback tier.
func TestServerWatchdogStallDegrades(t *testing.T) {
	defer faultinject.Disable()
	faultinject.Enable(5, faultinject.Probe{Class: "LAED4", Kind: faultinject.KindDelay, P: 1, Delay: 10 * time.Second})
	const window = 150 * time.Millisecond
	cfg := serverConfig()
	cfg.StallWindow = window
	cfg.MaxRetries = 1
	s := NewServer(cfg)
	rng := rand.New(rand.NewSource(6))
	tri := randomTridiag(rng, 120)

	start := time.Now()
	sr := mustSolve(t, s, tri, chaosOptions(false))
	elapsed := time.Since(start)

	if sr.Disposition != DispositionDegraded {
		t.Errorf("disposition %v, want degraded", sr.Disposition)
	}
	if sr.Stalls < 1 {
		t.Errorf("stalls=%d, want >=1", sr.Stalls)
	}
	if sr.Attempts != 3 { // primary + 1 retry + fallback
		t.Errorf("attempts=%d, want 3", sr.Attempts)
	}
	if sr.Result.Stats.Tier == "task-flow" {
		t.Errorf("stalled job still credited to the task-flow tier")
	}
	if r := Residual(tri, sr.Result); r > 1e-12 {
		t.Errorf("residual %.3e", r)
	}
	// Acceptance bound: abort-to-retry latency ≤ 2× the stall window per
	// stalled attempt (ticker granularity is window/4), plus backoff and the
	// fast sequential fallback.
	if limit := 2*2*window + time.Second; elapsed > limit {
		t.Errorf("stalled job took %v, want < %v", elapsed, limit)
	}
	if st := s.Stats(); st.WatchdogAborts < 2 {
		t.Errorf("watchdog aborts=%d, want >=2", st.WatchdogAborts)
	}
}

// TestServerBreaker drives a kernel class to persistent failure: the breaker
// must open at the threshold, route subsequent jobs straight to the fallback
// tier (one attempt, no retries), and close again via a half-open probe once
// the fault clears and the cooldown expires.
func TestServerBreaker(t *testing.T) {
	defer faultinject.Disable()
	faultinject.Enable(7, faultinject.Probe{Class: "ComputeDeflation", Kind: faultinject.KindError, P: 1})
	cfg := serverConfig()
	cfg.MaxRetries = -1 // no same-tier retries: each job fails primary once
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 50 * time.Millisecond
	s := NewServer(cfg)
	rng := rand.New(rand.NewSource(8))

	for i := 0; i < 2; i++ {
		sr := mustSolve(t, s, randomTridiag(rng, 100), chaosOptions(false))
		if sr.Disposition != DispositionDegraded || sr.Attempts != 2 {
			t.Fatalf("job %d: disposition=%v attempts=%d, want degraded/2", i, sr.Disposition, sr.Attempts)
		}
	}
	st := s.Stats()
	if st.BreakerOpens != 1 || len(st.OpenBreakers) != 1 || st.OpenBreakers[0] != "ComputeDeflation" {
		t.Fatalf("breaker state %+v, want ComputeDeflation open", st)
	}

	// Open circuit: jobs skip the primary tier entirely.
	sr := mustSolve(t, s, randomTridiag(rng, 100), chaosOptions(false))
	if sr.Disposition != DispositionDegraded || sr.Attempts != 1 {
		t.Fatalf("open-circuit job: disposition=%v attempts=%d, want degraded/1", sr.Disposition, sr.Attempts)
	}

	// Fault clears, cooldown expires: the next job is the half-open probe,
	// succeeds on the primary tier and closes the circuit.
	faultinject.Disable()
	time.Sleep(cfg.BreakerCooldown + 10*time.Millisecond)
	sr = mustSolve(t, s, randomTridiag(rng, 100), chaosOptions(false))
	if sr.Disposition != DispositionCompleted || sr.Result.Stats.Tier != "task-flow" {
		t.Fatalf("probe job: disposition=%v tier=%s, want completed on task-flow", sr.Disposition, sr.Result.Stats.Tier)
	}
	if st := s.Stats(); len(st.OpenBreakers) != 0 {
		t.Errorf("breakers still open after successful probe: %v", st.OpenBreakers)
	}
}

// TestServerBreakerCancelledProbe: a half-open probe whose job is cancelled
// ends without a verdict and must free the probe. Otherwise the circuit stays
// open for the life of the process and every later job is degraded.
func TestServerBreakerCancelledProbe(t *testing.T) {
	defer faultinject.Disable()
	faultinject.Enable(11, faultinject.Probe{Class: "ComputeDeflation", Kind: faultinject.KindError, P: 1})
	cfg := serverConfig()
	cfg.MaxRetries = -1
	cfg.BreakerThreshold = 1
	cfg.BreakerCooldown = 30 * time.Millisecond
	s := NewServer(cfg)
	rng := rand.New(rand.NewSource(12))

	if sr := mustSolve(t, s, randomTridiag(rng, 100), chaosOptions(false)); sr.Disposition != DispositionDegraded {
		t.Fatalf("failing job: disposition %v, want degraded", sr.Disposition)
	}
	if st := s.Stats(); len(st.OpenBreakers) != 1 || st.OpenBreakers[0] != "ComputeDeflation" {
		t.Fatalf("open breakers %v, want [ComputeDeflation]", st.OpenBreakers)
	}

	// After the cooldown the next job wins the half-open probe. A long delay
	// holds it in flight until its caller gives up.
	faultinject.Enable(12, faultinject.Probe{Class: "Scale", Kind: faultinject.KindDelay, P: 1, Delay: 5 * time.Second})
	time.Sleep(cfg.BreakerCooldown + 10*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(50*time.Millisecond, cancel)
	sr, err := s.Solve(ctx, randomTridiag(rng, 100), chaosOptions(false))
	if !errors.Is(err, context.Canceled) || sr.Disposition != DispositionCancelled || sr.Attempts != 1 {
		t.Fatalf("probe job: disposition=%v attempts=%d err=%v, want cancelled after 1 attempt",
			sr.Disposition, sr.Attempts, err)
	}

	// With the fault gone and the cooldown over, the next job probes again,
	// completes on the primary tier and closes the circuit.
	faultinject.Disable()
	time.Sleep(cfg.BreakerCooldown + 10*time.Millisecond)
	sr = mustSolve(t, s, randomTridiag(rng, 100), chaosOptions(false))
	if sr.Disposition != DispositionCompleted || sr.Result.Stats.Tier != "task-flow" {
		t.Fatalf("job after the cancelled probe: disposition=%v tier=%s, want completed on task-flow",
			sr.Disposition, sr.Result.Stats.Tier)
	}
	if st := s.Stats(); len(st.OpenBreakers) != 0 {
		t.Errorf("breakers still open after a successful probe: %v", st.OpenBreakers)
	}
}

// TestServerRetriedDisposition makes the first attempts fail with a transient
// injected error at low probability: some jobs should complete on a retry and
// be classified retried-then-completed.
func TestServerRetriedDisposition(t *testing.T) {
	defer faultinject.Disable()
	cfg := serverConfig()
	cfg.BreakerThreshold = 1000 // keep the circuit out of this test's way
	s := NewServer(cfg)
	rng := rand.New(rand.NewSource(9))
	retried := 0
	for i := 0; i < 12 && retried == 0; i++ {
		faultinject.Enable(int64(100+i), faultinject.Probe{Class: "*", Kind: faultinject.KindError, P: 0.02})
		sr := mustSolve(t, s, randomTridiag(rng, 90+rng.Intn(60)), chaosOptions(false))
		if sr.Disposition == DispositionRetried {
			retried++
			if sr.Attempts < 2 {
				t.Errorf("retried disposition with attempts=%d", sr.Attempts)
			}
		}
		faultinject.Disable()
	}
	if retried == 0 {
		t.Skip("no transient fault fired on a retryable attempt; nothing to assert")
	}
	if st := s.Stats(); st.Retries < 1 || st.Retried < 1 {
		t.Errorf("stats %+v, want >=1 retries and retried", s.Stats())
	}
}

// TestServerShutdownGraceful drains a busy server with a generous deadline:
// every in-flight job finishes normally and appears in the report.
func TestServerShutdownGraceful(t *testing.T) {
	// Every solve's one Scale task stalls, so each wave of two running jobs
	// holds its slots long enough for all four jobs to be in flight at once.
	// The stall delays the jobs without failing them.
	defer faultinject.Disable()
	faultinject.Enable(10, faultinject.Probe{Class: "Scale", Kind: faultinject.KindDelay, P: 1, MaxFires: 4, Delay: 500 * time.Millisecond})
	s := NewServer(serverConfig())
	rng := rand.New(rand.NewSource(10))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		tri := randomTridiag(rng, 100+rng.Intn(60))
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr, err := s.Solve(context.Background(), tri, chaosOptions(false))
			if err != nil {
				t.Errorf("drained job failed: %v", err)
			} else if sr.Disposition != DispositionCompleted {
				t.Errorf("drained job disposition %v", sr.Disposition)
			}
		}()
	}
	// Wait until all four jobs are simultaneously in flight (not merely
	// admitted): a job that already completed would be gone from the drain
	// snapshot and fail the report-size assertion below.
	waitFor(t, func() bool {
		st := s.Stats()
		return st.Queued+st.Running == 4
	})
	rep, err := s.Shutdown(context.Background())
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if len(rep.Jobs) != 4 {
		t.Fatalf("report has %d jobs, want 4", len(rep.Jobs))
	}
	for _, j := range rep.Jobs {
		if j.Disposition != DispositionCompleted {
			t.Errorf("job %d: %v, want completed", j.ID, j.Disposition)
		}
	}
	if _, err := s.Solve(context.Background(), randomTridiag(rng, 50), nil); !errors.Is(err, ErrServerClosed) {
		t.Errorf("post-shutdown solve err=%v, want ErrServerClosed", err)
	}
	if rep2, err := s.Shutdown(context.Background()); err != nil || len(rep2.Jobs) != 0 {
		t.Errorf("second shutdown: rep=%+v err=%v, want empty/nil", rep2, err)
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerDegradedRecordsCause: a job forced off its primary tier must say
// why it degraded, on both lanes. The primary attempt's error, still wrapping
// the injected cause, is TierErrors[0]; the fallback route's first tier
// (dstedc, or dsterf for values-only) serves a verified result. A job the
// open breaker sends straight to the fallback route records the open circuit.
func TestServerDegradedRecordsCause(t *testing.T) {
	defer faultinject.Disable()
	faultinject.Enable(13, faultinject.Probe{Class: "ComputeDeflation", Kind: faultinject.KindError, P: 1})
	for _, vo := range []bool{false, true} {
		cfg := serverConfig()
		cfg.MaxRetries = -1
		cfg.BreakerThreshold = 1
		cfg.BreakerCooldown = time.Minute
		s := NewServer(cfg)
		rng := rand.New(rand.NewSource(14))
		o := chaosOptions(false)
		o.ValuesOnly = vo
		wantTier := "dstedc"
		if vo {
			wantTier = "dsterf"
		}
		for job := 0; job < 2; job++ {
			label := fmt.Sprintf("values-only=%v job %d", vo, job)
			sr := mustSolve(t, s, randomTridiag(rng, 100), o)
			st := sr.Stats
			if sr.Disposition != DispositionDegraded || sr.Attempts != 2-job || st.Tier != wantTier {
				t.Errorf("%s: disposition=%v attempts=%d tier=%s, want degraded/%d/%s",
					label, sr.Disposition, sr.Attempts, st.Tier, 2-job, wantTier)
			}
			if !st.Degraded() || !st.Validated || !st.Audited {
				t.Errorf("%s: degraded=%v validated=%v audited=%v, want all true", label, st.Degraded(), st.Validated, st.Audited)
			}
			if len(st.TierErrors) == 0 {
				t.Errorf("%s: no tier error says why the job degraded", label)
				continue
			}
			var inj *faultinject.ErrInjected
			if job == 0 && !errors.As(st.TierErrors[0], &inj) {
				t.Errorf("%s: TierErrors[0] lost the injected cause: %v", label, st.TierErrors[0])
			}
			if job == 1 && !errors.Is(st.TierErrors[0], errCircuitOpen) {
				t.Errorf("%s: TierErrors[0] = %v, want the open circuit", label, st.TierErrors[0])
			}
		}
		if _, err := s.Shutdown(context.Background()); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}
}
