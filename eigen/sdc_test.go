package eigen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tridiag/internal/faultinject"
	"tridiag/internal/lapack"
	"tridiag/internal/pool"
)

// sdcFullClasses are the task kernel classes of the full (vectors) task-flow
// lane that carry a KindCorrupt hook on their output buffer; the SDC gate
// injects a silent bit flip into every one of them.
var sdcFullClasses = []string{
	"Scale", "STEDC", "SortEigenvectors", "ComputeDeflation", "PermuteV",
	"LAED4", "ComputeLocalW", "ReduceW", "CopyBackDeflated", "ComputeVect",
	"UpdateVect", "Dlamrg", "PackV",
}

// sdcVOClasses are the corrupt-hooked classes of the eigenvalue-only lane.
var sdcVOClasses = []string{
	"Scale", "STEDC", "SortEigenvalues", "ComputeDeflation", "LAED4",
	"ReduceW", "UpdateZ", "Dlamrg",
}

// sdcProbe arms a deterministic single-shot silent corruption of one task of
// the given class: the task SUCCEEDS and hands plausible-looking wrong data
// downstream — only the ABFT checks and the result audit stand between the
// flip and a wrong answer served to the caller.
func sdcProbe(seed int64, class string) {
	faultinject.Enable(seed, faultinject.Probe{
		Class: class, Kind: faultinject.KindCorrupt, P: 1, MaxFires: 1,
	})
}

// sdcLedgerCheck asserts the served result's corruption accounting: a result
// that was served must have healed everything it detected — detection
// without healing would mean a known-corrupt answer shipped. Detection
// itself is asserted per class across a lane's whole run, not per solve: a
// flip can land in provably-dead data (a K<=2 merge never reads its ẑ
// buffer; pooled scratch is dirty by contract) or perturb the spectrum below
// the audit tolerance — both are harmless by the test-side oracle, and the
// defense contract is detect-or-harmless, not detect-always.
func sdcLedgerCheck(t *testing.T, label string, st *SolveStats) {
	t.Helper()
	if st.CorruptionsHealed != st.CorruptionsDetected {
		t.Errorf("%s: served result detected %d corruptions but healed %d", label, st.CorruptionsDetected, st.CorruptionsHealed)
	}
}

// TestChaosSDCGate is the silent-data-corruption gate: a single-shot bit
// flip is injected into every corrupt-hooked kernel class, across the full,
// values-only and server lanes, over randomized matrices. Every solve must
// serve a verified-correct result (checked test-side, independently of the
// in-tree defenses), every fired flip must appear in the corruption ledger as
// detected-and-healed, the pool accountant must return to baseline, and no
// goroutines may leak. Zero silent wrong-answer escapes, by construction of
// the assertions: a flip the defenses missed fails the test-side check.
func TestChaosSDCGate(t *testing.T) {
	before := runtime.NumGoroutine()
	baseline := pool.InUseBytes()
	defer faultinject.Disable()

	const (
		fullPerClass   = 20 // full-lane solves per class
		serverPerClass = 10 // server-lane jobs per class
		voPerClass     = 60 // values-only solves per class
		valueTolScale  = 1e-8
	)

	// Full lane: every served result is re-verified test-side with the
	// residual and orthogonality of the ORIGINAL matrix — a check no in-tree
	// defense can influence.
	rng := rand.New(rand.NewSource(42))
	for ci, class := range sdcFullClasses {
		var fired, solvesFired, detected int64
		for it := 0; it < fullPerClass; it++ {
			seed := int64(1000*ci + it)
			sdcProbe(seed, class)
			tri := randomTridiag(rng, 64+rng.Intn(64))
			res, err := SolveContext(context.Background(), tri, chaosOptions(true))
			f := faultinject.Fired()[class]
			faultinject.Disable()
			checkAccountant(t, "full/"+class, baseline)
			if err != nil {
				t.Fatalf("full/%s it=%d: corruption was not healed: %v", class, it, err)
			}
			if r := Residual(tri, res); r > 1e-12 {
				t.Errorf("full/%s it=%d: WRONG ANSWER ESCAPED: residual %.3e (tier %s)", class, it, r, res.Stats.Tier)
			}
			if o := Orthogonality(res); o > 1e-12 {
				t.Errorf("full/%s it=%d: WRONG ANSWER ESCAPED: orthogonality %.3e (tier %s)", class, it, o, res.Stats.Tier)
			}
			sdcLedgerCheck(t, "full/"+class, res.Stats)
			fired += f
			detected += res.Stats.CorruptionsDetected
			if f > 0 {
				solvesFired++
			}
		}
		if fired == 0 {
			t.Errorf("full/%s: probe never fired in %d solves; the gate tested nothing for this class", class, fullPerClass)
		}
		if detected == 0 {
			t.Errorf("full/%s: %d flips injected, zero ever detected — the class has no working defense", class, fired)
		}
		t.Logf("full/%s: %d solves, %d with an injected flip, %d detections", class, fullPerClass, solvesFired, detected)
	}

	// Values-only lane: no vectors to verify, so the test-side oracle is a
	// clean (probe-free) solve of the same matrix; the spectra must agree to
	// rounding.
	rng = rand.New(rand.NewSource(43))
	voOpts := func() *Options {
		o := chaosOptions(true)
		o.ValuesOnly = true
		return o
	}
	for ci, class := range sdcVOClasses {
		var fired, detected int64
		for it := 0; it < voPerClass; it++ {
			seed := int64(2000*ci + it)
			tri := randomTridiag(rng, 64+rng.Intn(64))
			ref, err := SolveContext(context.Background(), tri, voOpts())
			if err != nil {
				t.Fatalf("vo/%s it=%d: clean reference solve failed: %v", class, it, err)
			}
			sdcProbe(seed, class)
			res, err := SolveContext(context.Background(), tri, voOpts())
			f := faultinject.Fired()[class]
			faultinject.Disable()
			checkAccountant(t, "vo/"+class, baseline)
			if err != nil {
				t.Fatalf("vo/%s it=%d: corruption was not healed: %v", class, it, err)
			}
			tol := valueTolScale * spectrumScale(ref.Values)
			for j := range ref.Values {
				if d := math.Abs(res.Values[j] - ref.Values[j]); d > tol {
					t.Errorf("vo/%s it=%d: WRONG ANSWER ESCAPED: eigenvalue %d off by %.3e (tier %s)", class, it, j, d, res.Stats.Tier)
					break
				}
			}
			sdcLedgerCheck(t, "vo/"+class, res.Stats)
			fired += f
			detected += res.Stats.CorruptionsDetected
		}
		if fired == 0 {
			t.Errorf("vo/%s: probe never fired in %d solves; the gate tested nothing for this class", class, voPerClass)
		}
		if detected == 0 {
			t.Errorf("vo/%s: %d flips injected, zero ever detected — the class has no working defense", class, fired)
		}
	}

	// Server lane: the flip lands inside a job served through eigen.Server,
	// whose retry and fallback ladder owns the recovery. Every job must still
	// serve a test-verified result, and the server's own ledger must show
	// every detection healed.
	rng = rand.New(rand.NewSource(44))
	srv := NewServer(ServerConfig{MaxConcurrent: 1, StallWindow: time.Minute, RetryBase: time.Millisecond})
	for ci, class := range sdcFullClasses {
		var fired int64
		st0 := srv.Stats()
		for it := 0; it < serverPerClass; it++ {
			sdcProbe(int64(3000*ci+it), class)
			tri := randomTridiag(rng, 64+rng.Intn(64))
			sr, err := srv.Solve(context.Background(), tri, &Options{Workers: 4, MinPartition: 24})
			f := faultinject.Fired()[class]
			faultinject.Disable()
			checkAccountant(t, "server/"+class, baseline)
			if err != nil {
				t.Fatalf("server/%s it=%d: corruption was not healed: %v (disposition %v)", class, it, err, sr.Disposition)
			}
			if r := Residual(tri, sr.Result); r > 1e-12 {
				t.Errorf("server/%s it=%d: WRONG ANSWER ESCAPED: residual %.3e (tier %s)", class, it, r, sr.Stats.Tier)
			}
			if o := Orthogonality(sr.Result); o > 1e-12 {
				t.Errorf("server/%s it=%d: WRONG ANSWER ESCAPED: orthogonality %.3e (tier %s)", class, it, o, sr.Stats.Tier)
			}
			sdcLedgerCheck(t, "server/"+class, sr.Stats)
			fired += f
		}
		st := srv.Stats()
		detected, healed := st.CorruptionsDetected-st0.CorruptionsDetected, st.CorruptionsHealed-st0.CorruptionsHealed
		if detected != healed {
			t.Errorf("server/%s: server detected %d corruptions but healed %d", class, detected, healed)
		}
		if fired == 0 {
			t.Errorf("server/%s: probe never fired in %d jobs; the gate tested nothing for this class", class, serverPerClass)
		}
		if detected == 0 {
			t.Errorf("server/%s: %d flips injected, zero ever detected — the class has no working defense", class, fired)
		}
	}
	if _, err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("server shutdown: %v", err)
	}

	checkGoroutines(t, before)
}

// TestChaosSDCGateInLeafMerges extends the SDC gate to the merges inside
// the leaf tasks, which the gate's 24-row leaves never run. At a 128-row
// leaf cutoff (QR leaves of at most 25 rows) a matrix of 96–128 rows is two
// STEDC tasks of 48–64 rows (core.LeafSizes). With one worker they run in
// submission order, and a leaf's corrupt hooks fire in a fixed order: each
// in-leaf merge's secular roots right after the secular solve, then its
// merged eigenvalues right before the trace check. A single-shot flip
// therefore lands on the first leaf's first merge's secular roots, or —
// when that merge's coupling is zero, so everything deflates and it has no
// secular roots — on its merged eigenvalues. Each flip must be detected
// inside the leaf, by the interlacing check (attributed to LAED4) or the
// trace check (Dlamrg), fail its STEDC task, and be healed by the ladder,
// in both lanes: every served result verifies test-side, the ledger shows
// the detection healed, and the pool accountant is back at its baseline.
func TestChaosSDCGateInLeafMerges(t *testing.T) {
	before := runtime.NumGoroutine()
	baseline := pool.InUseBytes()
	defer faultinject.Disable()
	rng := rand.New(rand.NewSource(45))
	for _, vo := range []bool{false, true} {
		for _, flip := range []struct {
			name, kernel string
			cut          bool // zero the first in-leaf merge's coupling
		}{{"secular root", "LAED4", false}, {"drifted eigenvalue", "Dlamrg", true}} {
			label := fmt.Sprintf("values-only=%v/%s", vo, flip.name)
			for it := 0; it < 10; it++ {
				n := 96 + rng.Intn(33)
				tri := randomTridiag(rng, n)
				if flip.cut {
					tri.E[lapack.PartitionSizes(n, lapack.DefaultSmallSize)[0]-1] = 0
				}
				opts := &Options{Workers: 1, MinPartition: 128, Fallback: true, ValuesOnly: vo}
				var ref *Result
				if vo {
					var err error
					if ref, err = SolveContext(context.Background(), tri, opts); err != nil {
						t.Fatalf("%s it=%d: clean reference solve failed: %v", label, it, err)
					}
				}
				sdcProbe(int64(5000+it), "STEDC")
				res, err := SolveContext(context.Background(), tri, opts)
				fired := faultinject.Fired()["STEDC"]
				faultinject.Disable()
				checkAccountant(t, label, baseline)
				if err != nil {
					t.Fatalf("%s it=%d: corruption was not healed: %v", label, it, err)
				}
				if fired != 1 {
					t.Fatalf("%s it=%d: probe fired %d times, want 1", label, it, fired)
				}
				if vo {
					tol := 1e-8 * spectrumScale(ref.Values)
					for j := range ref.Values {
						if d := math.Abs(res.Values[j] - ref.Values[j]); d > tol {
							t.Errorf("%s it=%d: WRONG ANSWER ESCAPED: eigenvalue %d off by %.3e (tier %s)", label, it, j, d, res.Stats.Tier)
							break
						}
					}
				} else {
					if r := Residual(tri, res); r > 1e-12 {
						t.Errorf("%s it=%d: WRONG ANSWER ESCAPED: residual %.3e (tier %s)", label, it, r, res.Stats.Tier)
					}
					if o := Orthogonality(res); o > 1e-12 {
						t.Errorf("%s it=%d: WRONG ANSWER ESCAPED: orthogonality %.3e (tier %s)", label, it, o, res.Stats.Tier)
					}
				}
				sdcLedgerCheck(t, label, res.Stats)
				if res.Stats.CorruptionsDetected == 0 || len(res.Stats.TierErrors) == 0 {
					t.Fatalf("%s it=%d: the flip was not detected (tier %s)", label, it, res.Stats.Tier)
				}
				cause := res.Stats.TierErrors[0]
				var ie *lapack.InvariantError
				if faultinject.ClassOf(cause) != "STEDC" || !errors.As(cause, &ie) || ie.Kernel != flip.kernel {
					t.Errorf("%s it=%d: detected as %v, want the in-leaf %s check failing its STEDC task", label, it, cause, flip.kernel)
				}
			}
		}
	}
	checkGoroutines(t, before)
}

// spectrumScale is the magnitude scale eigenvalue comparisons are relative
// to: the largest absolute eigenvalue, floored at 1 to keep tolerances
// meaningful for near-zero spectra.
func spectrumScale(values []float64) float64 {
	s := 1.0
	for _, v := range values {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}
