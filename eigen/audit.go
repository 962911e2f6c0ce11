package eigen

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"tridiag/internal/faultinject"
	"tridiag/internal/lapack"
	"tridiag/internal/simd"
)

// This file is the always-on result audit (DESIGN.md §18): every solve that
// is about to be returned — from any tier, including the clean first-choice
// path — is checked against the original matrix before the caller sees it.
// The audit is independent of every solver in the library: the Sturm-count
// inertia check only evaluates shifted LDLᵀ factorizations of the input, and
// the residual sweep only multiplies the input by the computed vectors, so a
// corrupted solver cannot validate its own corruption. A failed audit is
// classified as transient corruption (CorruptionError) and routed through the
// same retry/degrade ladders as an ABFT checksum failure: the next tier (or
// the server's retry policy) recomputes instead of shipping a wrong answer.

// CorruptionError reports a failed result audit: the computed spectrum or an
// eigenvector column disagrees with the input matrix beyond the validation
// thresholds. Like a checksum or invariant violation it is classified as
// transient corruption — recomputing (on the same tier or the next one) is
// expected to clear it — and carries a TaskClass for the server's circuit
// breakers and failure accounting.
type CorruptionError struct {
	// Check names the audit that failed: "spectrum", "residual" or "norm".
	Check  string
	Detail string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("eigen: result audit failed (%s): %s", e.Check, e.Detail)
}

// Corruption marks the failure as detected silent data corruption.
func (e *CorruptionError) Corruption() bool { return true }

// Transient reports true: a recompute is expected to clear it.
func (e *CorruptionError) Transient() bool { return true }

// TaskClass attributes audit failures to their own breaker class.
func (e *CorruptionError) TaskClass() string { return "audit" }

// IsCorruption reports whether err (or anything it wraps) was classified as
// detected silent data corruption — an ABFT checksum mismatch, a violated
// merge invariant, a failed result audit, or a cluster response-checksum
// mismatch. Use it to separate SDC detections from genuine numerical
// failures when inspecting SolveStats.TierErrors or server dispositions.
func IsCorruption(err error) bool { return faultinject.Corruption(err) }

// auditResult verifies a served result against the matrix it was computed
// from: the Sturm-count inertia check at spectrumSamples indices for every
// solve, plus the residual and unit-norm sweep over every eigenvector column
// for vector solves (only a full sweep deterministically catches a single
// corrupted column). Its cost is a few percent of the solve at most. Returns
// the worst normalized column residual measured (0 for values-only solves)
// and the first violation as a *CorruptionError.
func auditResult(t Tridiagonal, res *Result, o *Options) (worst float64, err error) {
	n := t.N()
	if n == 0 {
		return 0, nil
	}
	if verr := validateSpectrum(t, res.Values); verr != nil {
		return 0, &CorruptionError{Check: "spectrum", Detail: verr.Error()}
	}
	if res.Vectors == nil {
		return 0, nil
	}
	return auditVectors(t, res, o)
}

// auditVectors sweeps the eigenvector columns: each column j must
// satisfy ‖T·v_j − λ_j·v_j‖ ≤ maxResidual·‖T‖·n (the degraded-tier residual
// bar, per column) and |v_jᵀv_j − 1| ≤ maxOrthogonality·n (the diagonal of
// the orthogonality metric, which catches scaling corruption the residual is
// blind to on near-diagonal matrices). The sweep is O(n) per column — T is
// tridiagonal — and parallelized over the solve's worker budget.
func auditVectors(t Tridiagonal, res *Result, o *Options) (worst float64, err error) {
	n := t.N()
	nrm := lapack.Dlanst('M', n, t.D, t.E)
	if nrm == 0 {
		nrm = 1
	}
	rtol := maxResidual * float64(n) * nrm
	rtol2 := rtol * rtol // the sweep compares squared norms to skip per-column sqrts
	ntol := maxOrthogonality * float64(n)
	rscale := 1 / (nrm * float64(n))

	workers := o.Workers
	if p := runtime.GOMAXPROCS(0); workers <= 0 || workers > p {
		// The sweep is pure compute with no blocking, so fan-out past the
		// scheduler's parallelism only adds handoff cost.
		workers = p
	}
	if small := 64 * 1024; n*n < small {
		workers = 1 // below the point where goroutine fan-out pays for itself
	}

	var (
		mu       sync.Mutex
		firstErr error
	)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			localWorst := 0.0
			var lerr error
			for j := lo; j < hi; j++ {
				v := res.Vector(j)
				lam := res.Values[j]
				rnrm2, vnrm := simd.TridiagResidual(t.D, t.E, v, lam)
				if rnrm2 > localWorst {
					localWorst = rnrm2
				}
				if rnrm2 > rtol2 {
					lerr = &CorruptionError{Check: "residual", Detail: fmt.Sprintf(
						"column %d: ‖T·v−λ·v‖/(‖T‖·n) = %.3e exceeds %.1e", j, math.Sqrt(rnrm2)*rscale, maxResidual)}
					break
				}
				if d := math.Abs(vnrm - 1); d > ntol {
					lerr = &CorruptionError{Check: "norm", Detail: fmt.Sprintf(
						"column %d: |vᵀv − 1| = %.3e exceeds %.3e", j, d, ntol)}
					break
				}
			}
			mu.Lock()
			if localWorst > worst {
				worst = localWorst
			}
			if lerr != nil && firstErr == nil {
				firstErr = lerr
			}
			mu.Unlock()
		}(lo, hi)
	}
	wg.Wait()
	// worst accumulated as a squared 2-norm; normalize once on the way out.
	return math.Sqrt(worst) * rscale, firstErr
}
