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
//
// verify is the one step that decides whether a tier's result is served: the
// audit on every tier, plus pairwise orthogonality on a degraded one.

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

// verify checks a result about to be served against the matrix t it was
// computed from, running each check once. The audit (auditResult) runs on
// every tier unless DisableAudit is set. A degraded tier is always checked:
// the audit runs regardless of DisableAudit, and vector results add the
// pairwise orthogonality metric. Audit failures are *CorruptionError; an
// orthogonality failure is a plain validation error.
func verify(t Tridiagonal, res *Result, o *Options, degraded bool) error {
	if o.DisableAudit && !degraded {
		return nil
	}
	worst, err := auditResult(t, res, o)
	if err != nil {
		return err
	}
	st := res.Stats
	if !o.DisableAudit {
		st.Audited, st.AuditResidual = true, worst
	}
	if !degraded {
		return nil
	}
	st.Validated = true
	if res.Vectors != nil {
		// The column sweep measured the Residual metric at its bar; the
		// off-diagonal of VᵀV is the one check it does not cover.
		st.Residual, st.Orthogonality = worst, orthogonality(res, o.Progress)
		if st.Orthogonality > maxOrthogonality {
			return fmt.Errorf("validation failed: orthogonality %.3e exceeds %.0e", st.Orthogonality, maxOrthogonality)
		}
	}
	return nil
}

// auditResult verifies a served result against the matrix it was computed
// from: the Sturm-count inertia check at spectrumSamples indices for every
// solve, plus the residual and unit-norm sweep over every eigenvector column
// for vector solves (only a full sweep deterministically catches a single
// corrupted column). Its cost is a few percent of the solve at most. Returns
// the worst normalized column residual measured (0 for values-only solves)
// and the first violation as a *CorruptionError, a spectrum failure ahead of
// a column's.
func auditResult(t Tridiagonal, res *Result, o *Options) (worst float64, err error) {
	n := t.N()
	if n == 0 {
		return 0, nil
	}
	sc, serr := newSpectrumCheck(t, res.Values)
	if serr == nil {
		if res.Vectors != nil {
			// The Sturm counts run on the column sweep's workers.
			worst, err = auditVectors(t, res, o, sc)
		} else {
			for g := range sc.groups() {
				sc.count(g)
			}
		}
		serr = sc.verdict()
	}
	if serr != nil {
		return 0, &CorruptionError{Check: "spectrum", Detail: serr.Error()}
	}
	return worst, err
}

// sturmCountBelow4 returns, for each of four shifts x, the number of
// eigenvalues of the symmetric tridiagonal matrix (d, e) strictly below it,
// by counting negative pivots of the LDLᵀ recurrence
// t_i = (d_i − x) − e_{i−1}²/t_{i−1}. pivmin is the smallest admissible
// |pivot|; a tiny pivot is replaced by −pivmin (the LAPACK dlaneg safeguard)
// so the recurrence never divides by zero. The four recurrences share no
// state, so their long-latency pivot divisions pipeline instead of
// serializing; each lane is exactly one scalar count (pinned by
// TestSturmCountBelow4MatchesScalar).
func sturmCountBelow4(d, e []float64, x [4]float64, pivmin float64) [4]int {
	var c0, c1, c2, c3 int
	t0 := d[0] - x[0]
	t1 := d[0] - x[1]
	t2 := d[0] - x[2]
	t3 := d[0] - x[3]
	if math.Abs(t0) < pivmin {
		t0 = -pivmin
	}
	if math.Abs(t1) < pivmin {
		t1 = -pivmin
	}
	if math.Abs(t2) < pivmin {
		t2 = -pivmin
	}
	if math.Abs(t3) < pivmin {
		t3 = -pivmin
	}
	if t0 < 0 {
		c0++
	}
	if t1 < 0 {
		c1++
	}
	if t2 < 0 {
		c2++
	}
	if t3 < 0 {
		c3++
	}
	for i := 1; i < len(d); i++ {
		e2 := e[i-1] * e[i-1]
		di := d[i]
		t0 = (di - x[0]) - e2/t0
		t1 = (di - x[1]) - e2/t1
		t2 = (di - x[2]) - e2/t2
		t3 = (di - x[3]) - e2/t3
		if math.Abs(t0) < pivmin {
			t0 = -pivmin
		}
		if math.Abs(t1) < pivmin {
			t1 = -pivmin
		}
		if math.Abs(t2) < pivmin {
			t2 = -pivmin
		}
		if math.Abs(t3) < pivmin {
			t3 = -pivmin
		}
		if t0 < 0 {
			c0++
		}
		if t1 < 0 {
			c1++
		}
		if t2 < 0 {
			c2++
		}
		if t3 < 0 {
			c3++
		}
	}
	return [4]int{c0, c1, c2, c3}
}

// spectrumSamples is how many eigenvalue indices spectrumCheck probes.
// Each probe is two O(n) Sturm counts, so the whole check is O(n·samples) —
// negligible next to any solve — while still bracketing the spectrum's ends
// and a spread of interior eigenvalues.
const spectrumSamples = 32

// spectrumCheck checks a computed ascending spectrum w against the matrix
// t by Sturm counts at spectrumSamples indices (always including the first
// and last eigenvalue): for the i-th eigenvalue λᵢ, the inertia count at
// λᵢ+tol must include at least i+1 eigenvalues and the count at λᵢ−tol at
// most i. The tolerance is the spectrum analogue of the maxResidual bar:
// maxResidual · n · ‖T‖. It runs in three steps, so the audit of a vector
// solve can spread the counts over its column sweep's workers:
// newSpectrumCheck makes the O(n) checks and places the probes, count runs
// one group of four Sturm counts, and verdict judges the counts once every
// group has run. Groups write disjoint counts, so they may run concurrently.
type spectrumCheck struct {
	t      Tridiagonal
	w      []float64
	pivmin float64
	idx    []int     // the probed eigenvalue indices
	shifts []float64 // λᵢ+tol, λᵢ−tol for each probed index
	counts []int     // the Sturm count at each shift
}

// newSpectrumCheck checks that w is ascending (and, for the zero matrix,
// zero) and places the probes. A failure here needs no count.
func newSpectrumCheck(t Tridiagonal, w []float64) (*spectrumCheck, error) {
	n := t.N()
	sc := &spectrumCheck{t: t, w: w}
	if len(w) != n {
		return nil, fmt.Errorf("spectrum has %d values, want %d", len(w), n)
	}
	// Every comparison below is written to fail on NaN: a single bit flip
	// can turn a value in [1, 2) into NaN, and NaN compares false.
	for i := 1; i < n; i++ {
		if !(w[i] >= w[i-1]) {
			return nil, fmt.Errorf("eigenvalues not ascending at index %d", i)
		}
	}
	nrm := lapack.Dlanst('M', n, t.D, t.E)
	if nrm == 0 {
		// The zero matrix: every eigenvalue must be exactly zero.
		for i, v := range w {
			if v != 0 {
				return nil, fmt.Errorf("eigenvalue %d of the zero matrix is %g", i, v)
			}
		}
		return sc, nil
	}
	tol := maxResidual * float64(n) * nrm
	var maxE2 float64
	for _, v := range t.E {
		maxE2 = math.Max(maxE2, v*v)
	}
	sc.pivmin = math.Max(lapack.SafeMin, lapack.SafeMin*maxE2)

	samples := min(spectrumSamples, n)
	sc.idx = make([]int, samples)
	sc.shifts = make([]float64, 2*samples)
	sc.counts = make([]int, 2*samples)
	for s := 0; s < samples; s++ {
		// Even spread over [0, n-1], endpoints always included.
		i := 0
		if samples > 1 {
			i = s * (n - 1) / (samples - 1)
		}
		sc.idx[s] = i
		sc.shifts[2*s] = w[i] + tol
		sc.shifts[2*s+1] = w[i] - tol
	}
	return sc, nil
}

// groups returns the number of count groups.
func (sc *spectrumCheck) groups() int { return (len(sc.shifts) + 3) / 4 }

// count runs group g: the counts at four consecutive shifts, interleaved in
// one pass. The LDLᵀ recurrences are independent, so interleaving four
// chains pipelines the per-pivot division latency that dominates a single
// count (~4× over sequential counts on the always-on audit path).
func (sc *spectrumCheck) count(g int) {
	s := 4 * g
	var x [4]float64
	for l := range x {
		x[l] = sc.shifts[min(s+l, len(sc.shifts)-1)]
	}
	c := sturmCountBelow4(sc.t.D, sc.t.E, x, sc.pivmin)
	for l := 0; l < 4 && s+l < len(sc.shifts); l++ {
		sc.counts[s+l] = c[l]
	}
}

// verdict judges the counts; every group must have run.
func (sc *spectrumCheck) verdict() error {
	w := sc.w
	for s, i := range sc.idx {
		// At least i+1 eigenvalues at or below λᵢ+tol…
		if got := sc.counts[2*s]; got < i+1 {
			return fmt.Errorf("eigenvalue %d = %.6g: only %d eigenvalues below λ+tol, want ≥ %d", i, w[i], got, i+1)
		}
		// …and at most i strictly below λᵢ−tol.
		if got := sc.counts[2*s+1]; got > i {
			return fmt.Errorf("eigenvalue %d = %.6g: %d eigenvalues below λ−tol, want ≤ %d", i, w[i], got, i)
		}
	}
	return nil
}

// auditVectors sweeps the eigenvector columns: each column j must
// satisfy ‖T·v_j − λ_j·v_j‖ ≤ maxResidual·‖T‖·n (the degraded-tier residual
// bar, per column) and |v_jᵀv_j − 1| ≤ maxOrthogonality·n (the diagonal of
// the orthogonality metric, which catches scaling corruption the residual is
// blind to on near-diagonal matrices). The sweep is O(n) per column — T is
// tridiagonal — and parallelized over the solve's worker budget. Each
// worker first runs its share of sc's Sturm-count groups, so the spectrum
// check adds no serial step. Each column beats Options.Progress, so a
// watchdog sees the sweep progress.
func auditVectors(t Tridiagonal, res *Result, o *Options, sc *spectrumCheck) (worst float64, err error) {
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
	workers = (n + chunk - 1) / chunk // no worker without columns
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for g := w; g < sc.groups(); g += workers {
				sc.count(g)
			}
			localWorst := 0.0
			var lerr error
			for j := lo; j < hi; j++ {
				if o.Progress != nil {
					o.Progress()
				}
				v := res.Vector(j)
				lam := res.Values[j]
				rnrm2, vnrm := simd.TridiagResidual(t.D, t.E, v, lam)
				if rnrm2 > localWorst {
					localWorst = rnrm2
				}
				if !(rnrm2 <= rtol2) { // NaN fails too
					lerr = &CorruptionError{Check: "residual", Detail: fmt.Sprintf(
						"column %d: ‖T·v−λ·v‖/(‖T‖·n) = %.3e exceeds %.1e", j, math.Sqrt(rnrm2)*rscale, maxResidual)}
					break
				}
				if d := math.Abs(vnrm - 1); !(d <= ntol) {
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
