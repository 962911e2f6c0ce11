package eigen

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tridiag/internal/faultinject"
	"tridiag/internal/pool"
)

// chaosClasses are the task kernel classes of the task-flow D&C pipeline;
// every one of them is fault-injected by the suite below.
var chaosClasses = []string{
	"STEDC", "ComputeDeflation", "PermuteV", "LAED4", "ComputeLocalW",
	"ReduceW", "CopyBackDeflated", "ComputeVect", "UpdateVect",
	"Dlamrg", "Scale", "SortEigenvectors",
}

// chaosOptions forces a real task tree (small leaves) so probes have tasks
// to fire on even at the modest sizes the suite uses.
func chaosOptions(fallback bool) *Options {
	return &Options{Workers: 4, MinPartition: 24, Fallback: fallback}
}

// checkGoroutines asserts the goroutine count returns to the pre-test level
// (small slack for the runtime's own helpers), polling because worker
// teardown is asynchronous.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, now, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkAccountant asserts the pool accountant returned to its pre-solve
// baseline: an injected failure strands merge workspaces mid-flight, and
// the solve must return every one of them to the pool once its runtime has
// shut down.
func checkAccountant(t *testing.T, label string, baseline int64) {
	t.Helper()
	if got := pool.InUseBytes(); got != baseline {
		t.Fatalf("%s: pool accountant off baseline after solve: %d bytes checked out, want %d", label, got, baseline)
	}
}

// TestChaosFallbackAlwaysServes injects a panic and a forced error into every
// task class across randomized solves with Fallback enabled: every solve must
// still produce a verified result — the sequential tier is injection-free, so
// resilience, not luck, is what the assertion tests.
func TestChaosFallbackAlwaysServes(t *testing.T) {
	before := runtime.NumGoroutine()
	baseline := pool.InUseBytes()
	defer faultinject.Disable()
	rng := rand.New(rand.NewSource(1234))
	solves, injected := 0, 0
	for _, kind := range []faultinject.Kind{faultinject.KindPanic, faultinject.KindError} {
		for ci, class := range chaosClasses {
			faultinject.Enable(int64(100*ci)+int64(kind), faultinject.Probe{Class: class, Kind: kind, P: 0.1})
			tri := randomTridiag(rng, 90+rng.Intn(80))
			res, err := SolveContext(context.Background(), tri, chaosOptions(true))
			solves++
			checkAccountant(t, "class="+class, baseline)
			if err != nil {
				t.Fatalf("class=%s kind=%v: solve failed despite fallback: %v", class, kind, err)
			}
			if r := Residual(tri, res); r > 1e-12 {
				t.Errorf("class=%s kind=%v: residual %.3e (tier %s)", class, kind, r, res.Stats.Tier)
			}
			if o := Orthogonality(res); o > 1e-12 {
				t.Errorf("class=%s kind=%v: orthogonality %.3e (tier %s)", class, kind, o, res.Stats.Tier)
			}
			if fired := faultinject.Fired()[class]; fired > 0 {
				injected++
				if kind == faultinject.KindPanic || kind == faultinject.KindError {
					// A fired fault must be visible as the degradation's root
					// cause, never silently swallowed.
					if len(res.Stats.TierErrors) == 0 {
						t.Errorf("class=%s kind=%v: fault fired but no tier error recorded", class, kind)
					} else {
						var inj *faultinject.ErrInjected
						if !errors.As(res.Stats.TierErrors[0], &inj) {
							t.Errorf("class=%s kind=%v: tier error lost the injected cause: %v", class, kind, res.Stats.TierErrors[0])
						}
					}
					if res.Stats.Tier == "task-flow" {
						t.Errorf("class=%s kind=%v: fault fired but result still credited to task-flow", class, kind)
					}
					if !res.Stats.Validated {
						t.Errorf("class=%s kind=%v: degraded result was not validated", class, kind)
					}
				}
			}
			faultinject.Disable()
		}
	}
	if injected == 0 {
		t.Fatal("no probe ever fired; the chaos suite tested nothing")
	}
	t.Logf("chaos: %d solves, %d with at least one injected fault", solves, injected)
	checkGoroutines(t, before)
}

// TestChaosNoFallbackRootCause runs the same plans without Fallback: every
// affected solve must fail fast with a clean error chain that still carries
// the *faultinject.ErrInjected root cause through quark, core and eigen.
func TestChaosNoFallbackRootCause(t *testing.T) {
	before := runtime.NumGoroutine()
	baseline := pool.InUseBytes()
	defer faultinject.Disable()
	rng := rand.New(rand.NewSource(4321))
	failed, clean := 0, 0
	for _, kind := range []faultinject.Kind{faultinject.KindPanic, faultinject.KindError} {
		for ci, class := range chaosClasses {
			faultinject.Enable(int64(7000+100*ci)+int64(kind), faultinject.Probe{Class: class, Kind: kind, P: 0.1})
			tri := randomTridiag(rng, 90+rng.Intn(80))
			res, err := SolveContext(context.Background(), tri, chaosOptions(false))
			checkAccountant(t, "class="+class, baseline)
			if err != nil {
				failed++
				if res != nil {
					t.Errorf("class=%s kind=%v: non-nil result alongside error", class, kind)
				}
				var inj *faultinject.ErrInjected
				if !errors.As(err, &inj) {
					t.Errorf("class=%s kind=%v: error chain lost the injected cause: %v", class, kind, err)
				} else if inj.Class != class {
					t.Errorf("class=%s kind=%v: root cause blames class %q", class, kind, inj.Class)
				}
			} else {
				clean++
				if r := Residual(tri, res); r > 1e-12 {
					t.Errorf("class=%s kind=%v: clean solve residual %.3e", class, kind, r)
				}
			}
			faultinject.Disable()
		}
	}
	if failed == 0 {
		t.Fatal("no solve ever failed; the probes never fired")
	}
	t.Logf("chaos: %d failed with root cause, %d untouched", failed, clean)
	checkGoroutines(t, before)
}

// TestChaosDelayAndMixedPlans stalls tasks (scheduler-level chaos that must
// not affect correctness at all) and then arms wildcard plans mixing all
// three failure modes at once.
func TestChaosDelayAndMixedPlans(t *testing.T) {
	before := runtime.NumGoroutine()
	baseline := pool.InUseBytes()
	defer faultinject.Disable()
	rng := rand.New(rand.NewSource(555))
	for i := 0; i < 6; i++ {
		faultinject.Enable(int64(i), faultinject.Probe{Class: "*", Kind: faultinject.KindDelay, P: 0.1, Delay: time.Millisecond})
		tri := randomTridiag(rng, 80+rng.Intn(60))
		res, err := Solve(tri, chaosOptions(false))
		if err != nil {
			t.Fatalf("delay run %d: %v", i, err)
		}
		if r := Residual(tri, res); r > 1e-12 {
			t.Errorf("delay run %d: residual %.3e", i, r)
		}
		if res.Stats.Degraded() {
			t.Errorf("delay run %d: delays must not degrade the solve: %+v", i, res.Stats)
		}
		faultinject.Disable()
	}
	for i := 0; i < 8; i++ {
		faultinject.Enable(int64(9000+i),
			faultinject.Probe{Class: "*", Kind: faultinject.KindDelay, P: 0.05, Delay: time.Millisecond},
			faultinject.Probe{Class: "*", Kind: faultinject.KindError, P: 0.05},
			faultinject.Probe{Class: "*", Kind: faultinject.KindPanic, P: 0.05},
		)
		tri := randomTridiag(rng, 80+rng.Intn(60))
		res, err := Solve(tri, chaosOptions(true))
		checkAccountant(t, "mixed plan", baseline)
		if err != nil {
			t.Fatalf("mixed run %d: solve failed despite fallback: %v", i, err)
		}
		if r := Residual(tri, res); r > 1e-12 {
			t.Errorf("mixed run %d: residual %.3e (tier %s)", i, r, res.Stats.Tier)
		}
		if o := Orthogonality(res); o > 1e-12 {
			t.Errorf("mixed run %d: orthogonality %.3e (tier %s)", i, o, res.Stats.Tier)
		}
		faultinject.Disable()
	}
	checkGoroutines(t, before)
}
