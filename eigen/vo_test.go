package eigen

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tridiag/internal/core"
	"tridiag/internal/faultinject"
	"tridiag/internal/lapack"
	"tridiag/internal/pool"
)

// voSpectrumUlps mirrors the calibrated bar of the core values-only tests:
// 8 ulp of spectrum scale per merge level of the D&C tree at the default
// leaf cutoff — the task flow's levels plus those inside its deepest leaf —
// (the two lanes form each merge's z-vector differently — sequential dot
// products vs. rows of a blocked GEMM — so the secular roots drift a few ulp
// per level, and a borderline deflation flip perturbs the spectrum by the
// threshold itself). Both lanes run the same tree at every n, so a matrix
// that is one QR leaf must match exactly.
func voSpectrumUlps(n int) float64 {
	leaves := lapack.PartitionSizes(n, core.DefaultMinPartition)
	qr := lapack.PartitionSizes(leaves[len(leaves)-1], min(core.DefaultMinPartition, lapack.DefaultSmallSize))
	return 8 * float64(bits.Len(uint(len(leaves)-1))+bits.Len(uint(len(qr)-1)))
}

// voSpectrumTol converts the ulp bar to an absolute tolerance at the
// spectrum's scale (zero for an identically-zero spectrum: exact match).
func voSpectrumTol(values []float64, ulps float64) float64 {
	var scale float64
	for _, v := range values {
		scale = math.Max(scale, math.Abs(v))
	}
	return ulps * lapack.Eps * scale
}

// checkVOResult asserts the values-only result contract: right order, no
// eigenvector block, ascending spectrum.
func checkVOResult(t *testing.T, name string, n int, res *Result) {
	t.Helper()
	if res.N != n || len(res.Values) != n {
		t.Fatalf("%s: result n=%d values=%d, want %d", name, res.N, len(res.Values), n)
	}
	if res.Vectors != nil {
		t.Fatalf("%s: values-only result carries an eigenvector block (%d floats)", name, len(res.Vectors))
	}
	for i := 1; i < n; i++ {
		if res.Values[i] < res.Values[i-1] {
			t.Fatalf("%s: values not ascending at %d", name, i)
		}
	}
}

// TestValuesOnlySpectraMatchFull: across the pathological suite, the
// eigenvalue-only lane must reproduce the full solve's spectrum to the
// calibrated ulp bar — same clusters, same extreme scalings, no vectors.
func TestValuesOnlySpectraMatchFull(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	base := randomTridiag(rng, 150)
	clustered := randomTridiag(rng, 200)
	for i := range clustered.D {
		clustered.D[i] = 3.5
	}
	zeroOff := randomTridiag(rng, 120)
	for i := range zeroOff.E {
		zeroOff.E[i] = 0
	}
	cases := []struct {
		name string
		tri  Tridiagonal
	}{
		{"wilkinson-w61", wilkinson(61)},
		{"wilkinson-w201", wilkinson(201)},
		{"glued-wilkinson", gluedWilkinson(4, 21, 1e-6)},
		{"glued-wilkinson-big", gluedWilkinson(6, 41, 1e-9)},
		{"clustered-deflating", clustered},
		{"zero-offdiagonals", zeroOff},
		{"all-zero", Tridiagonal{D: make([]float64, 100), E: make([]float64, 99)}},
		{"random", randomTridiag(rng, 300)},
		{"near-overflow", scaled(base, 1e300)},
		{"near-underflow", scaled(base, 1e-300)},
	}
	for _, tc := range cases {
		n := tc.tri.N()
		full, err := Solve(tc.tri, &Options{Workers: 3})
		if err != nil {
			t.Errorf("%s: full solve: %v", tc.name, err)
			continue
		}
		vo, err := Solve(tc.tri, &Options{Workers: 3, ValuesOnly: true})
		if err != nil {
			t.Errorf("%s: values-only solve: %v", tc.name, err)
			continue
		}
		checkVOResult(t, tc.name, n, vo)
		if vo.Stats.Tier != "task-flow" {
			t.Errorf("%s: values-only tier %q, want task-flow", tc.name, vo.Stats.Tier)
		}
		tol := voSpectrumTol(full.Values, voSpectrumUlps(n))
		for i := 0; i < n; i++ {
			if diff := math.Abs(vo.Values[i] - full.Values[i]); diff > tol {
				t.Errorf("%s: eigenvalue %d differs: full=%.17g vo=%.17g (|Δ|=%.3e > tol=%.3e)",
					tc.name, i, full.Values[i], vo.Values[i], diff, tol)
				break
			}
		}

		// Values() routes through the same lane; same bar.
		vals, err := Values(tc.tri)
		if err != nil {
			t.Errorf("%s: Values: %v", tc.name, err)
			continue
		}
		for i := range vals {
			if diff := math.Abs(vals[i] - full.Values[i]); diff > tol {
				t.Errorf("%s: Values()[%d] differs by %.3e (> %.3e)", tc.name, i, diff, tol)
				break
			}
		}
	}
}

// voChaosClasses are the task classes a values-only DAG actually submits —
// faults land on real tasks, not on eigenvector classes the lane never runs.
var voChaosClasses = []string{
	"STEDC", "ComputeDeflation", "LAED4", "ReduceW",
	"UpdateZ", "SortEigenvalues", "Dlamrg", "Scale",
}

// TestValuesOnlyChaosFallback injects panics and errors into every
// values-only task class with Fallback on: each solve must still serve a
// validated spectrum (the fired faults push it down the ladder to the Dsterf
// tier), the pool accountant must return to baseline, and no goroutines may
// leak — the lane inherits the full resilience contract.
func TestValuesOnlyChaosFallback(t *testing.T) {
	before := runtime.NumGoroutine()
	baseline := pool.InUseBytes()
	defer faultinject.Disable()
	rng := rand.New(rand.NewSource(2026))
	opts := func() *Options {
		return &Options{Workers: 4, MinPartition: 24, Fallback: true, ValuesOnly: true}
	}
	injected := 0
	for _, kind := range []faultinject.Kind{faultinject.KindPanic, faultinject.KindError} {
		for ci, class := range voChaosClasses {
			faultinject.Enable(int64(3000+100*ci)+int64(kind), faultinject.Probe{Class: class, Kind: kind, P: 0.15})
			n := 90 + rng.Intn(80)
			tri := randomTridiag(rng, n)
			res, err := SolveContext(context.Background(), tri, opts())
			checkAccountant(t, "vo class="+class, baseline)
			if err != nil {
				t.Fatalf("class=%s kind=%v: values-only solve failed despite fallback: %v", class, kind, err)
			}
			checkVOResult(t, "chaos "+class, n, res)
			if fired := faultinject.Fired()[class]; fired > 0 {
				injected++
				if res.Stats.Tier == "task-flow" {
					t.Errorf("class=%s kind=%v: fault fired but result still credited to task-flow", class, kind)
				}
				if !res.Stats.Validated {
					t.Errorf("class=%s kind=%v: degraded values-only result was not validated", class, kind)
				}
				if len(res.Stats.TierErrors) == 0 {
					t.Errorf("class=%s kind=%v: fault fired but no tier error recorded", class, kind)
				} else {
					var inj *faultinject.ErrInjected
					if !errors.As(res.Stats.TierErrors[0], &inj) {
						t.Errorf("class=%s kind=%v: tier error lost the injected cause: %v",
							class, kind, res.Stats.TierErrors[0])
					}
				}
				// Degraded values-only results are validated by Sturm counts,
				// not residuals — there are no vectors to form residuals with.
				if res.Stats.Residual != 0 || res.Stats.Orthogonality != 0 {
					t.Errorf("class=%s kind=%v: values-only result reports vector metrics (%g, %g)",
						class, kind, res.Stats.Residual, res.Stats.Orthogonality)
				}
			}
			faultinject.Disable()
		}
	}
	if injected == 0 {
		t.Fatal("no probe ever fired; the values-only chaos suite tested nothing")
	}
	t.Logf("values-only chaos: %d solves with at least one injected fault", injected)
	checkGoroutines(t, before)
}

// TestValuesOnlyWorkspaceBound: the lane's actual peak pooled footprint at
// n=4000 must stay within 2% of the full solve's admission charge — the
// O(n·depth) claim measured, not estimated. The peak is sampled from the pool
// accountant after every executed task via the Progress heartbeat.
func TestValuesOnlyWorkspaceBound(t *testing.T) {
	const n = 4000
	workers := 4
	tri := randomTridiag(rand.New(rand.NewSource(44)), n)
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
	res, err := SolveContext(context.Background(), tri, &Options{
		Workers: workers, ValuesOnly: true, Progress: progress,
	})
	if err != nil {
		t.Fatalf("values-only n=%d: %v", n, err)
	}
	checkVOResult(t, "workspace", n, res)

	voPeak := peak.Load() - base
	fullCharge := EstimateSolveBytes(n, workers)
	if voPeak <= 0 {
		t.Fatal("progress sampling observed no pooled workspace; the probe is broken")
	}
	if limit := fullCharge / 50; voPeak > limit {
		t.Errorf("values-only peak pooled workspace %d bytes exceeds 2%% of the full-solve charge (%d of %d)",
			voPeak, limit, fullCharge)
	}
	// The lane's own admission charge must cover what it actually used.
	if voEst := EstimateValuesOnlySolveBytes(n, workers); voPeak > voEst {
		t.Errorf("values-only peak %d bytes exceeds its admission estimate %d", voPeak, voEst)
	}
	t.Logf("n=%d: values-only peak=%d bytes, full-solve charge=%d (%.3f%%)",
		n, voPeak, fullCharge, 100*float64(voPeak)/float64(fullCharge))
}

// TestEstimateValuesOnlySolveBytesProperties: the per-class admission
// estimates must be monotone in n and never exceed the full-solve charge of
// the same job.
func TestEstimateValuesOnlySolveBytesProperties(t *testing.T) {
	for _, w := range []int{1, 4, 8} {
		if EstimateValuesOnlySolveBytes(0, w) != 0 || EstimateValuesOnlySolveBytes(-3, w) != 0 {
			t.Fatalf("workers=%d: non-positive n must estimate to 0", w)
		}
		prev := int64(0)
		for n := 1; n <= 6000; n += 37 {
			est := EstimateValuesOnlySolveBytes(n, w)
			if est <= 0 {
				t.Fatalf("workers=%d n=%d: non-positive estimate %d", w, n, est)
			}
			if est < prev {
				t.Fatalf("workers=%d: estimate not monotone at n=%d: %d < %d", w, n, est, prev)
			}
			prev = est
			if full := EstimateSolveBytes(n, w); est > full {
				t.Fatalf("workers=%d n=%d: values-only estimate %d exceeds full estimate %d", w, n, est, full)
			}
		}
	}
}

// TestServerValuesOnlyAdmissionConcurrency: under one memory budget sized to
// admit a single full solve of order n, the server must admit and complete a
// whole flood of values_only jobs of the same order concurrently — the ≥5×
// request-class headroom, asserted deterministically via the estimates and
// then exercised live with per-class stats.
func TestServerValuesOnlyAdmissionConcurrency(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	for _, n := range []int{512, 2000, 4000} {
		full := EstimateSolveBytes(n, workers)
		vo := EstimateValuesOnlySolveBytes(n, workers)
		if full < 5*vo {
			t.Fatalf("n=%d: full-solve charge %d admits fewer than 5 values-only jobs (%d each)", n, full, vo)
		}
	}

	const n, flood = 600, 32
	budget := EstimateSolveBytes(n, workers)
	if need := int64(flood) * EstimateValuesOnlySolveBytes(n, workers); need > budget {
		t.Fatalf("flood of %d values-only jobs needs %d bytes, over the single-full-solve budget %d",
			flood, need, budget)
	}
	s := NewServer(ServerConfig{
		MaxConcurrent: 4,
		MaxQueue:      flood + 4,
		MemoryBudget:  budget,
		StallWindow:   time.Minute,
	})
	defer s.Shutdown(context.Background())

	rng := rand.New(rand.NewSource(606))
	tris := make([]Tridiagonal, flood)
	for i := range tris {
		tris[i] = randomTridiag(rng, n)
	}
	errs := make([]error, flood)
	results := make([]*ServeResult, flood)
	var wg sync.WaitGroup
	for i := range tris {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Solve(context.Background(), tris[i], &Options{ValuesOnly: true})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("values-only job %d rejected or failed under the full-solve budget: %v", i, err)
		}
		if results[i].Result.Vectors != nil {
			t.Fatalf("values-only job %d returned an eigenvector block", i)
		}
	}
	st := s.Stats()
	if st.ValuesOnlyAdmitted != flood || st.ValuesOnlyCompleted != flood {
		t.Errorf("per-class counters: admitted=%d completed=%d, want %d/%d",
			st.ValuesOnlyAdmitted, st.ValuesOnlyCompleted, flood, flood)
	}
	if st.Rejected != 0 {
		t.Errorf("%d rejections in a flood the budget must fully admit", st.Rejected)
	}
	if st.ValuesOnlyAvgServiceNanos <= 0 {
		t.Error("values-only service-time EWMA never updated")
	}
}
