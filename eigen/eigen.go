// Package eigen is the public API of the tridiag library: symmetric
// tridiagonal and dense symmetric eigensolvers for multicore machines.
//
// The flagship solver is the task-flow divide & conquer algorithm of Pichon,
// Haidar, Faverge and Kurzak (IPDPS 2015), which decomposes each merge of
// Cuppen's D&C into panel-granular tasks scheduled out of order by a
// dependency-tracking runtime. MRRR and QR-iteration solvers are provided
// for comparison, along with a full dense symmetric driver (Householder
// tridiagonalization, tridiagonal eigensolve, back-transformation).
//
// Quick start:
//
//	t := eigen.Tridiagonal{D: d, E: e}
//	res, err := eigen.Solve(t, nil) // task-flow D&C on all cores
//	// res.Values ascending, res.Vectors column-major (res.Vector(j))
package eigen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"tridiag/internal/blas"
	"tridiag/internal/core"
	"tridiag/internal/faultinject"
	"tridiag/internal/lapack"
	"tridiag/internal/mrrr"
)

// Tridiagonal is a symmetric tridiagonal matrix: diagonal D (length n) and
// off-diagonal E (length n-1).
type Tridiagonal struct {
	D []float64
	E []float64
}

// ErrBadInput marks malformed problem input — a shape mismatch
// (len(E) != n-1) or non-finite entries — so service front ends can map it
// to a client error (HTTP 400) instead of an internal failure. Every
// validation and screening error wraps it; match with errors.Is.
var ErrBadInput = errors.New("eigen: invalid input")

// N returns the matrix order.
func (t Tridiagonal) N() int { return len(t.D) }

func (t Tridiagonal) validate() error {
	if len(t.E) != max(t.N()-1, 0) {
		return fmt.Errorf("%w: len(E)=%d, want n-1=%d", ErrBadInput, len(t.E), t.N()-1)
	}
	return nil
}

// Validate checks the shape invariant (len(E) == n-1) without touching the
// entries. Service front ends call it at admission so malformed requests
// are rejected as client errors before they consume a solve slot; the error
// wraps ErrBadInput.
func (t Tridiagonal) Validate() error { return t.validate() }

// screen rejects non-finite entries up front with an indexed error, so a NaN
// or Inf surfaces as a clean diagnostic at the API boundary instead of a
// numerical breakdown deep inside a solver kernel.
func (t Tridiagonal) screen() error {
	for i, v := range t.D {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: D[%d] is %v", ErrBadInput, i, v)
		}
	}
	for i, v := range t.E {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: E[%d] is %v", ErrBadInput, i, v)
		}
	}
	return nil
}

// Method selects the eigensolver algorithm.
type Method int

const (
	// MethodDC is the task-flow divide & conquer solver (the default).
	MethodDC Method = iota
	// MethodDCSequential is the sequential LAPACK-style DSTEDC.
	MethodDCSequential
	// MethodMRRR is the Multiple Relatively Robust Representations solver.
	MethodMRRR
	// MethodQR is the implicit QL/QR iteration (DSTEQR).
	MethodQR
)

func (m Method) String() string {
	switch m {
	case MethodDC:
		return "dc"
	case MethodDCSequential:
		return "dc-seq"
	case MethodMRRR:
		return "mrrr"
	case MethodQR:
		return "qr"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Options tunes the solvers; the zero value selects the task-flow D&C with
// library defaults on all available cores.
type Options struct {
	// Method selects the algorithm (default MethodDC).
	Method Method
	// Workers is the number of worker goroutines (<=0: GOMAXPROCS).
	Workers int
	// PanelSize is the D&C task panel width nb (<=0: adaptive, chosen per
	// merge from the merge width, post-deflation size and worker count).
	PanelSize int
	// MinPartition is the D&C task leaf cutoff (<=0: the default, 128
	// rows; a matrix of at most MinPartition rows is split once into two
	// leaf tasks when its halves exceed a QR leaf). Each leaf task solves
	// its block with the sequential divide and conquer over QR leaves of
	// min(MinPartition, 25) rows.
	MinPartition int
	// ValuesOnly computes eigenvalues without eigenvectors through the
	// values-only fast lane: the task-flow D&C propagates each merge's
	// rank-one z-vector from O(n) per-node carrier rows instead of the n×n
	// eigenvector matrix, so no eigenvector tasks run and the workspace is
	// O(n·depth) instead of O(n²). Result.Vectors is nil. MethodDC uses the
	// task-flow lane with Dsterf as the fallback tier; every other method
	// serves values-only requests with Dsterf directly (the root-free QR
	// iteration is itself the classical values-only algorithm). Results are
	// checked by Sturm counts alone: Residual and Orthogonality need vectors.
	ValuesOnly bool
	// Fallback enables tier-by-tier degradation: if the selected solver
	// fails (or its result fails verification), the solve is retried on the
	// next, more conservative tier of the method's ladder — task-flow D&C →
	// sequential DSTEDC → QR iteration — and the tier that served the result
	// is recorded in Result.Stats. Fallback never taxes the clean path: the
	// extra pairwise orthogonality check runs only for results produced by
	// a degraded tier.
	Fallback bool
	// DisableAudit turns off the always-on result audit (for benchmark
	// baselines, or callers running their own verification). The audit
	// verifies every solve that is about to be returned — from any tier,
	// including the clean first-choice path — against the input matrix
	// (sampled Sturm-count inertia check on the spectrum, plus a
	// residual/unit-norm sweep over the eigenvector columns for vector
	// solves). An audit failure is classified as transient corruption
	// (CorruptionError) and the solve moves to the next tier instead of
	// shipping a wrong answer.
	DisableAudit bool
	// Progress, when non-nil, is called after every executed task of a
	// task-flow solve, after every leaf and merge of the sequential dstedc
	// tier, at every tier transition, and once per column of the result
	// verification (the audit's column sweep and a degraded tier's pairwise
	// orthogonality check): the heartbeat external watchdogs (eigen.Server)
	// use to tell a stalled solve from a running one. It runs on worker
	// goroutines, so it must be concurrency-safe and cheap — storing a
	// timestamp into an atomic is the intended shape. The mrrr, qr and
	// dsterf tiers send no heartbeats; watchdog stall windows must cover the
	// longest of those runs.
	Progress func()
}

// SolveStats reports how a solve was served: the execution tier that
// produced the result, the errors of any tiers that failed before it, and
// the in-tier numerical rescues that degraded speed without failing the
// solve.
type SolveStats struct {
	// Method is the requested algorithm.
	Method Method
	// Tier names the execution tier that produced the result: "task-flow",
	// "dstedc", "mrrr", "qr" or "dsterf".
	Tier string
	// TierErrors holds one error per tier that failed (or failed
	// verification) before the serving tier; empty on the clean path. A
	// Server's fallback route starts it with the error that took the job
	// off its primary tier.
	TierErrors []error
	// Fallbacks counts in-tier numerical rescues: secular roots recomputed
	// by the guaranteed bisection safeguard and leaf QR solves retried via
	// Dsterf + inverse iteration. Zero on the clean path.
	Fallbacks int64
	// Validated reports whether the result was verified as a degraded
	// tier's (done whenever one served it, even with DisableAudit): the
	// audit's checks plus pairwise orthogonality. Residual and
	// Orthogonality hold the measured values (0 for values-only solves).
	Validated     bool
	Residual      float64
	Orthogonality float64
	// Audited reports whether the always-on result audit ran and passed for
	// the served result (false when Options.DisableAudit is set);
	// AuditResidual is the worst normalized column residual the audit
	// measured (0 for values-only solves — the spectrum check has no
	// residual).
	Audited       bool
	AuditResidual float64
	// CorruptionsDetected counts silent-corruption detections during this
	// solve: ABFT checksum mismatches, violated merge invariants and failed
	// result audits. CorruptionsHealed is how many of them were healed —
	// by an in-place task recompute or by a later tier serving an audited
	// result. On a successful solve the two are equal: every detection was
	// contained.
	CorruptionsDetected, CorruptionsHealed int64
}

// Degraded reports whether the result came from a lower tier or needed
// in-tier numerical rescues.
func (s *SolveStats) Degraded() bool {
	return len(s.TierErrors) > 0 || s.Fallbacks > 0
}

// Result holds an eigendecomposition: ascending eigenvalues and the matching
// orthonormal eigenvectors stored column-major with leading dimension N.
type Result struct {
	N       int
	Values  []float64
	Vectors []float64
	// Stats describes how the solve was served (tier, fallbacks,
	// validation); nil for results not produced by Solve/SolveContext.
	Stats *SolveStats
}

// Vector returns the j-th eigenvector (aliasing the result storage).
func (r *Result) Vector(j int) []float64 {
	return r.Vectors[j*r.N : j*r.N+r.N]
}

// Solve computes all eigenvalues and eigenvectors of the symmetric
// tridiagonal matrix t. The input is not modified.
func Solve(t Tridiagonal, opts *Options) (*Result, error) {
	return SolveContext(context.Background(), t, opts)
}

// Verification thresholds, the order of the paper's Figure 9 accuracy
// metrics (both are normalized by n).
const (
	maxResidual      = 1e-12
	maxOrthogonality = 1e-12
)

// ladders is the one tier table: each method's tiers, most capable first,
// for the full lane and the values-only lane. Every route runs a part of it
// (directRoute, fallbackRoute).
var ladders = map[Method][2][]string{
	MethodDC:           {{"task-flow", "dstedc", "qr"}, {"task-flow", "dsterf"}},
	MethodDCSequential: {{"dstedc", "qr"}, {"dsterf"}},
	MethodMRRR:         {{"mrrr", "qr"}, {"dsterf"}},
	MethodQR:           {{"qr"}, {"dsterf"}},
}

// ladder returns o's ladder for o's lane, nil for an unknown method.
func ladder(o *Options) []string {
	if o.ValuesOnly {
		return ladders[o.Method][1]
	}
	return ladders[o.Method][0]
}

// directRoute returns the tiers SolveContext runs for o: the whole ladder
// with Fallback, its first tier without (a Server's primary attempt).
func directRoute(o *Options) []string {
	tiers := ladder(o)
	if o.Fallback {
		return tiers
	}
	return tiers[:min(len(tiers), 1)]
}

// fallbackRoute returns a Server's fallback route for o: the ladder's
// sequential tiers, which run on the calling goroutine outside the task
// runtime and MRRR's worker pool, where no injected task fault reaches them.
func fallbackRoute(o *Options) []string {
	var seq []string
	for _, tier := range ladder(o) {
		if tier != "task-flow" && tier != "mrrr" {
			seq = append(seq, tier)
		}
	}
	return seq
}

// SolveContext is Solve bounded by a context: an already-cancelled context
// returns ctx.Err() before any task runs, and cancellation (or deadline
// expiry) during a task-flow solve aborts within one task granularity.
// Cancellation is never retried on a lower tier.
//
// Inputs are screened for NaN/Inf up front, and matrices with extreme norms
// (near overflow or underflow) are scaled into the safe range and the
// eigenvalues scaled back on return. The input is not modified.
func SolveContext(ctx context.Context, t Tridiagonal, opts *Options) (*Result, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	return solve(ctx, t, &o, directRoute(&o), nil)
}

// solve runs tiers in order until one serves a verified result. A non-nil
// prior is why the caller already left the method's first tier (a Server's
// failed primary attempt): it becomes TierErrors[0], and every tier run here
// is verified as degraded.
func solve(ctx context.Context, t Tridiagonal, o *Options, tiers []string, prior error) (*Result, error) {
	n := t.N()
	wrap := func(err error) error {
		return fmt.Errorf("eigen: Solve(n=%d, method=%s): %w", n, o.Method, err)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	if err := t.screen(); err != nil {
		return nil, wrap(err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(tiers) == 0 {
		return nil, fmt.Errorf("eigen: unknown method %v", o.Method)
	}
	res := &Result{
		N: n, Values: make([]float64, n),
		Stats: &SolveStats{Method: o.Method, Tier: tiers[0]},
	}
	if prior != nil {
		res.Stats.TierErrors = []error{prior}
	}
	if n == 0 {
		if !o.ValuesOnly {
			res.Vectors = []float64{}
		}
		return res, nil
	}

	// Master copies of the input, pre-scaled to the safe range when the
	// norm is within a square root of overflow or underflow (the existing
	// Scale path; the D&C core additionally normalizes internally).
	d, e, scale := preScale(t)
	ework := make([]float64, len(e))

	var lastErr error
	var unhealed int64 // corruption detections from failed tiers, healed when a later tier serves
	for ti, tier := range tiers {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if o.Progress != nil {
			// Tier transitions count as progress: a fallback tier starting
			// over must not be mistaken for a stall.
			o.Progress()
		}
		// Fresh inputs per attempt. A failed tier leaves partial data in
		// res.Vectors; every vector tier ignores it and writes every entry
		// (TestTiersIgnoreDirtyVectors), so a later tier reuses the matrix.
		copy(res.Values, d)
		copy(ework, e)
		ts, q, err := runTier(ctx, tier, n, o, res.Values, ework, res.Vectors, e)
		res.Vectors = q
		res.Stats.Fallbacks += ts.fallbacks
		res.Stats.CorruptionsDetected += ts.detected
		res.Stats.CorruptionsHealed += ts.healed
		unhealed += ts.detected - ts.healed
		if err != nil {
			if ctx.Err() != nil {
				// Cancelled, not broken: report the cancellation, never a
				// degraded retry.
				return nil, ctx.Err()
			}
			if faultinject.Corruption(err) && ts.detected == 0 {
				// A corruption-classified failure the tier's own counters did
				// not capture (e.g. a sequential tier): count the detection
				// here so the ledger stays complete.
				res.Stats.CorruptionsDetected++
				unhealed++
			}
		} else if err = verify(Tridiagonal{D: d, E: e}, res, o, ti > 0 || prior != nil); err != nil {
			// Verification runs in scaled units; every check is
			// scale-invariant, so its verdict stands after the scale-back.
			if faultinject.Corruption(err) {
				res.Stats.CorruptionsDetected++
				unhealed++
			}
		}
		if err != nil {
			lastErr = err
			res.Stats.TierErrors = append(res.Stats.TierErrors, fmt.Errorf("tier %s: %w", tier, err))
			continue
		}
		// The result is served: every corruption detected along the way was
		// contained by a recompute or a tier fallback.
		res.Stats.CorruptionsHealed += unhealed
		res.Stats.Tier = tier
		if scale != 1 {
			lapack.Dlascl(n, 1, 1, scale, res.Values, n)
		}
		return res, nil
	}
	return nil, wrap(fmt.Errorf("all tiers failed: %w", lastErr))
}

// preScale copies t's entries into fresh working arrays, scaling matrices
// with extreme norms (within a square root of overflow or underflow) into the
// safe range. The returned scale is 1 when no scaling was applied; callers
// must scale the computed eigenvalues back by it.
func preScale(t Tridiagonal) (d, e []float64, scale float64) {
	n := t.N()
	d = append([]float64(nil), t.D...)
	e = append([]float64(nil), t.E...)
	scale = 1.0
	if orgnrm := lapack.Dlanst('M', n, d, e); orgnrm != 0 {
		rmin := math.Sqrt(lapack.SafeMin)
		if orgnrm < rmin || orgnrm > 1/rmin {
			lapack.Dlascl(n, 1, orgnrm, 1, d, n)
			if n > 1 {
				lapack.Dlascl(n-1, 1, orgnrm, 1, e, n-1)
			}
			scale = orgnrm
		}
	}
	return d, e, scale
}

// tierStats is what one tier attempt reports up into SolveStats beyond its
// error: in-tier numerical rescues and the ABFT corruption detections/heals
// of the task-flow modes.
type tierStats struct {
	fallbacks int64
	detected  int64
	healed    int64
}

// coreTierStats harvests a core solve's ledger: ABFT checksum and invariant
// failures are detections; the runtime's in-place task retries count as heals
// only when the tier served (a retry that failed again aborted the tier).
func coreTierStats(cres *core.Result, err error) tierStats {
	var ts tierStats
	if cres == nil || cres.Stats == nil {
		return ts
	}
	ts.fallbacks = cres.Stats.Fallbacks()
	ab := cres.Stats.ABFT()
	ts.detected = ab.ChecksumFailures + ab.InvariantFailures
	if err == nil {
		ts.healed = ab.Retries
	}
	return ts
}

// runTier executes one tier: d/ework are working copies (overwritten), q
// receives the eigenvectors, eorig is the untouched off-diagonal for solvers
// that read rather than consume their input. It returns the matrix holding
// the eigenvectors: q, or, when q is nil on a full solve, the one the tier
// allocated. The task-flow tier lets core allocate it beside the leaves
// (core.Result.Q); the others allocate it up front. Values-only solves
// return nil.
func runTier(ctx context.Context, tier string, n int, o *Options, d, ework, q, eorig []float64) (tierStats, []float64, error) {
	if q == nil && !o.ValuesOnly && tier != "task-flow" {
		q = make([]float64, n*n)
	}
	switch tier {
	case "task-flow":
		ldq := n
		if o.ValuesOnly {
			ldq = 0 // q is nil: the lane carries O(n) rows, not the matrix
		}
		cres, err := core.SolveDCContext(ctx, n, d, ework, q, ldq, &core.Options{
			Workers:      o.Workers,
			PanelSize:    o.PanelSize,
			MinPartition: o.MinPartition,
			ValuesOnly:   o.ValuesOnly,
			Progress:     o.Progress,
		})
		if q == nil && cres != nil {
			q = cres.Q
		}
		return coreTierStats(cres, err), q, err
	case "dstedc":
		cres, err := core.SolveDCContext(ctx, n, d, ework, q, n, &core.Options{
			Mode:         core.ModeSequential,
			MinPartition: o.MinPartition,
			Progress:     o.Progress,
		})
		return coreTierStats(cres, err), q, err
	case "mrrr":
		w := make([]float64, n)
		err := mrrr.Solve(n, d, eorig, w, q, n, &mrrr.Options{Workers: o.Workers})
		copy(d, w)
		return tierStats{}, q, err
	case "qr":
		fellBack, err := lapack.DsteqrRobust(n, d, ework, q, n)
		var ts tierStats
		if fellBack {
			ts.fallbacks = 1
		}
		return ts, q, err
	case "dsterf":
		return tierStats{}, q, lapack.Dsterf(n, d, ework)
	}
	return tierStats{}, q, fmt.Errorf("unknown tier %q", tier)
}

// Values computes the eigenvalues only (ascending) through the values-only
// fast lane: the task-flow D&C with O(n·depth) workspace and no eigenvector
// tasks, falling back to the root-free QR iteration (Dsterf) if the lane
// fails. Equivalent to SolveContext with Options{ValuesOnly: true,
// Fallback: true} and returns just the spectrum.
func Values(t Tridiagonal) ([]float64, error) {
	res, err := Solve(t, &Options{ValuesOnly: true, Fallback: true})
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// SymEigen computes the full eigendecomposition of a dense symmetric matrix
// given in the lower triangle of the column-major n×n array a (leading
// dimension lda ≥ n): Householder tridiagonalization, tridiagonal
// eigensolve with the selected method, and back-transformation of the
// eigenvectors (skipped for ValuesOnly, whose Vectors are nil). a is
// overwritten with reduction data.
func SymEigen(n int, a []float64, lda int, opts *Options) (*Result, error) {
	if n < 0 || lda < n {
		return nil, fmt.Errorf("eigen: bad dimensions n=%d lda=%d", n, lda)
	}
	// Same worker default as Solve: all cores unless explicitly limited.
	workers := runtime.GOMAXPROCS(0)
	if opts != nil && opts.Workers > 0 {
		workers = opts.Workers
	}
	d := make([]float64, n)
	e := make([]float64, max(n-1, 1))
	tau := make([]float64, max(n-1, 1))
	if err := lapack.DsytrdParallel(n, a, lda, d, e, tau, 32, workers); err != nil {
		return nil, fmt.Errorf("eigen: SymEigen(n=%d): reduction: %w", n, err)
	}
	res, err := Solve(Tridiagonal{D: d, E: e[:max(n-1, 0)]}, opts)
	if err != nil {
		return nil, fmt.Errorf("eigen: SymEigen(n=%d): %w", n, err)
	}
	if res.Vectors != nil { // nil for ValuesOnly
		lapack.Dormtr(false, n, n, a, lda, tau, res.Vectors, n)
	}
	return res, nil
}

// SymGeneralized solves the generalized symmetric-definite eigenproblem
// A·x = λ·B·x with B positive definite: Cholesky B = L·Lᵀ, reduction to the
// standard problem L⁻¹·A·L⁻ᵀ·y = λ·y, tridiagonal D&C, and back-substitution
// x = L⁻ᵀ·y. a and b are n×n column-major full symmetric matrices (both
// overwritten). The returned eigenvectors are B-orthonormal (XᵀBX = I).
func SymGeneralized(n int, a []float64, lda int, b []float64, ldb int, opts *Options) (*Result, error) {
	if n < 0 || lda < n || ldb < n {
		return nil, fmt.Errorf("eigen: bad dimensions n=%d lda=%d ldb=%d", n, lda, ldb)
	}
	if err := lapack.Dpotrf(n, b, ldb, 32); err != nil {
		return nil, fmt.Errorf("eigen: B is not positive definite: %w", err)
	}
	lapack.Dsygst(n, a, lda, b, ldb)
	res, err := SymEigen(n, a, lda, opts)
	if err != nil {
		return nil, fmt.Errorf("eigen: SymGeneralized(n=%d): %w", n, err)
	}
	if res.Vectors != nil { // nil for ValuesOnly: the values are already λ
		// x_j = L⁻ᵀ y_j
		blas.DtrsmLeftLowerTrans(n, n, b, ldb, res.Vectors, n)
	}
	return res, nil
}

// Residual returns max_j ‖T v_j - λ_j v_j‖₂ / (‖T‖ n): the paper's
// Figure 9(b) metric for verifying a tridiagonal eigendecomposition.
func Residual(t Tridiagonal, r *Result) float64 {
	n := t.N()
	if n == 0 {
		return 0
	}
	nrm := lapack.Dlanst('M', n, t.D, t.E)
	if nrm == 0 {
		nrm = 1
	}
	worst := 0.0
	y := make([]float64, n)
	for j := 0; j < n; j++ {
		v := r.Vector(j)
		for i := 0; i < n; i++ {
			s := t.D[i] * v[i]
			if i > 0 {
				s += t.E[i-1] * v[i-1]
			}
			if i < n-1 {
				s += t.E[i] * v[i+1]
			}
			y[i] = s - r.Values[j]*v[i]
		}
		if nv := blas.Dnrm2(n, y, 1); nv > worst {
			worst = nv
		}
	}
	return worst / (nrm * float64(n))
}

// Orthogonality returns ‖I - VᵀV‖_max / n: the paper's Figure 9(a) metric.
func Orthogonality(r *Result) float64 { return orthogonality(r, nil) }

// orthogonality is Orthogonality calling beat, when non-nil, once per column
// of its O(n³) pairwise sweep: verify passes Options.Progress, so a watchdog
// sees a degraded tier's check progress.
func orthogonality(r *Result, beat func()) float64 {
	n := r.N
	worst := 0.0
	for j := 0; j < n; j++ {
		if beat != nil {
			beat()
		}
		for i := j; i < n; i++ {
			s := blas.Ddot(n, r.Vector(i), 1, r.Vector(j), 1)
			if i == j {
				s -= 1
			}
			if s < 0 {
				s = -s
			}
			if s > worst {
				worst = s
			}
		}
	}
	return worst / float64(max(n, 1))
}
