package lapack

import (
	"fmt"
	"math"
)

// Per-merge numerical invariants of the D&C merge kernels (DESIGN.md §18):
// cheap identities the exact arithmetic would satisfy, checked against
// rounding-aware bounds so silent data corruption in a kernel's output is
// caught at the merge that produced it instead of shipping to the client.

// InvariantError reports a violated merge invariant — an interlacing bound
// broken by a secular root, or the merged spectrum's trace drifting from the
// diagonal trace. Like a checksum mismatch it is classified as transient
// corruption: a recompute is expected to clear it, and the retry ladders
// count it as detected SDC rather than a numerical failure.
type InvariantError struct {
	Kernel string // task class attribution ("LAED4", "Dlamrg")
	Detail string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("lapack: merge invariant violated in %s: %s", e.Kernel, e.Detail)
}

// Corruption marks the failure as detected silent data corruption.
func (e *InvariantError) Corruption() bool { return true }

// Transient reports true: recomputing the merge is expected to clear it.
func (e *InvariantError) Transient() bool { return true }

// TaskClass attributes the violation to the kernel class whose output broke
// the invariant.
func (e *InvariantError) TaskClass() string { return e.Kernel }

// CheckInterlacing verifies the interlacing property of the secular roots in
// d[j0:j1] against the deflated poles: for the rank-one update D + ρ·z·zᵀ
// with ρ > 0, the j-th root satisfies Dlamda[j] ≤ λ_j ≤ Dlamda[j+1] (and
// λ_{K-1} ≤ Dlamda[K-1] + ρ). The bound is slacked by a few ulps of the
// bracket width — Dlaed4 and its bisection rescue both keep roots strictly
// inside the bracket, so a violation beyond rounding means the stored root
// (or a pole it was computed from) was corrupted after the solve. O(1) per
// root.
func (df *Deflation) CheckInterlacing(d []float64, j0, j1 int) error {
	k := df.K
	if k <= 1 {
		return nil
	}
	for j := j0; j < j1; j++ {
		lo := df.Dlamda[j]
		var hi float64
		if j+1 < k {
			hi = df.Dlamda[j+1]
		} else {
			hi = df.Dlamda[k-1] + df.Rho
		}
		// A few ulps of slack on each end: the root representation is
		// λ_j = Dlamda[j] + τ with τ computed to high relative accuracy, so
		// the stored sum can round to the pole itself but never cross it by
		// more than the bracket's rounding noise.
		slack := 16 * Eps * (math.Abs(lo) + math.Abs(hi) + df.Rho)
		if v := d[j]; !(v >= lo-slack && v <= hi+slack) { // NaN fails too
			return &InvariantError{
				Kernel: "LAED4",
				Detail: fmt.Sprintf("secular root %d = %.17g outside interlacing bracket [%.17g, %.17g]", j, v, lo, hi),
			}
		}
	}
	return nil
}

// TraceSum returns the compensated sum, the absolute-value sum and the
// absolute maximum of v, a merge's TraceBudget inputs: the invariant
// compares Σd across a merge against a ~256·eps tolerance, which naive
// n-term summation noise (O(n·eps·Σ|d|)) would exceed for large one-signed
// spectra; compensation makes the summation error O(eps·Σ|d|) independent
// of n.
func TraceSum(v []float64) (sum, absSum, maxAbs float64) {
	var c float64
	for _, x := range v {
		a := math.Abs(x)
		absSum += a
		if a > maxAbs {
			maxAbs = a
		}
		y := x - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum, absSum, maxAbs
}

// TraceBudget returns the trace-preservation invariant of this merge: the
// sum of the merged block's eigenvalues (K secular roots plus N−K deflated
// values) must equal traceIn + Rho, where traceIn is Σd over the block at
// merge entry (the deflation rotations preserve the diagonal sum exactly and
// the rank-one update adds ρ·‖z‖² = ρ) and dmax is |d|∞ at entry. The
// tolerance covers two legitimate drift sources: secular-root and summation
// rounding (O(eps) relative to the block's mass), and the rank-one mass the
// deflation threshold deliberately drops — Dlaed2's tolerance is
// 8·eps·max(|d|∞, |z|∞) with ‖z‖ = 1, so up to n dropped z entries (or the
// whole update, when ρ·|z|∞ is below threshold) discard O(n·eps·max(dmax, 1))
// of trace absolutely, even when the block's local values are far smaller.
func TraceBudget(traceIn, absIn, dmax, rho float64, n int) (want, tol float64) {
	want = traceIn + rho
	tol = 256*Eps*(absIn+float64(n)*math.Abs(rho)+math.Abs(traceIn)) +
		32*float64(n)*Eps*math.Max(dmax, 1)
	return want, tol
}

// CheckTrace verifies the merged spectrum in d[0:n] against the trace budget
// captured at merge entry. Called by the Dlamrg join, which is ordered after
// every writer of the block's eigenvalues.
func CheckTrace(d []float64, n int, want, tol float64) (defect float64, err error) {
	// Compensated summation: the tolerance is ~256·eps of the spectrum's
	// absolute mass, which naive n-term summation noise would exceed for
	// large one-signed spectra.
	var sum, c float64
	for _, v := range d[:n] {
		y := v - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	defect = math.Abs(sum - want)
	if !(defect <= tol) { // NaN fails too
		return defect, &InvariantError{
			Kernel: "Dlamrg",
			Detail: fmt.Sprintf("merged spectrum trace %.17g drifted from diagonal trace %.17g by %.3g (tolerance %.3g)", sum, want, defect, tol),
		}
	}
	return defect, nil
}

// VerifyUpdatePanel checks the ABFT checksum identity for the eigenvector
// panel q(:, j0:j1) written by UpdatePanel, against the checksum rows PackV
// built into the packed operands. GEMMs that ran unpacked are not covered
// (no checksums were built for them). Returns the number of verified GEMM
// outputs and the first checksum violation, attributed to the UpdateVect
// class.
func (df *Deflation) VerifyUpdatePanel(q []float64, ldq int, ws *MergeWorkspace, j0, j1 int) (checked int, err error) {
	k := df.K
	ncol := j1 - j0
	if ncol <= 0 || k == 0 {
		return 0, nil
	}
	n1 := df.N1
	c1 := df.Ctot[colTop]
	if ws.PackTop != nil && ws.PackTop.Checked() {
		checked++
		if err := ws.PackTop.Verify(ncol, 1, ws.S[j0*k:], k, q[j0*ldq:], ldq, "UpdateVect"); err != nil {
			return checked, err
		}
	}
	if ws.PackBot != nil && ws.PackBot.Checked() {
		checked++
		if err := ws.PackBot.Verify(ncol, 1, ws.S[j0*k+c1:], k, q[j0*ldq+n1:], ldq, "UpdateVect"); err != nil {
			return checked, err
		}
	}
	return checked, nil
}
