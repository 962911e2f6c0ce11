package lapack

import (
	"fmt"
	"math"

	"tridiag/internal/blas"
	"tridiag/internal/simd"
)

// SecularPanel solves the secular equation for secular indices [j0, j1)
// (the paper's LAED4 task), in both lanes. d[j] receives the eigenvalue λ_j,
// and porg[j], ptau[j] its representation λ_j = org + tau (Dlaed4OrgTau): the
// two doubles per root from which ComputeLocalW, ComputeVect and UpdateZ form
// each delta_i = (Dlamda[i]-org)-tau in-lane, so no delta column is ever
// stored. For K == 2 the pair holds instead the two eigenvector components
// Dlaed5 computes (in secular row order), and for K == 1 it is not read.
// porg and ptau may be nil when no later task reads the roots (the
// values-only lane's root merge).
//
// When Dlaed4's rational iteration fails to converge, the root is recomputed
// by the guaranteed-bracketed bisection instead of failing the merge. The
// panel returns how many secular-function evaluations it ran, the failed
// iterations and the bisections included, and how many roots the bisection
// rescued, so callers can account for degraded (slower but still correct)
// secular solves.
func (df *Deflation) SecularPanel(d, porg, ptau []float64, j0, j1 int) (evals, fallbacks int, err error) {
	k := df.K
	var v [2]float64 // Dlaed5's vector components when k == 2
	var delta []float64
	if k == 2 {
		delta = v[:]
	}
	for j := j0; j < j1; j++ {
		lam, org, tau, ne, err := Dlaed4OrgTau(k, j, df.Dlamda, df.W, delta, df.Rho)
		evals += ne
		if err != nil {
			lam, org, tau, ne, err = Dlaed4BisectOrgTau(k, j, df.Dlamda, df.W, delta, df.Rho)
			evals += ne
			if err != nil {
				return evals, fallbacks, fmt.Errorf("secular equation failed at index %d: %w", j, err)
			}
			fallbacks++
		}
		d[j] = lam
		if porg != nil {
			if k == 2 {
				org, tau = v[0], v[1]
			}
			porg[j], ptau[j] = org, tau
		}
	}
	return evals, fallbacks, nil
}

// LocalWPanel accumulates the factors of Gu's stabilization product of the
// roots [j0, j1) into wloc (the paper's ComputeLocalW task), reading each
// root as the (org, tau) pair SecularPanel recorded and forming its deltas
// in-lane — the same bits as the delta column Dlaed4 would have written.
// wloc must be initialized to 1; after all panels have been multiplied
// together, FinishW produces the stabilized ẑ. A no-op for K <= 2, where
// LAPACK skips the recomputation.
func (df *Deflation) LocalWPanel(porg, ptau, wloc []float64, j0, j1 int) {
	k := df.K
	if k <= 2 {
		return
	}
	for j := j0; j < j1; j++ {
		org, tau, dj := porg[j], ptau[j], df.Dlamda[j]
		simd.MulRatioDiff(wloc[:j], df.Dlamda[:j], org, tau, dj)
		wloc[j] *= (dj - org) - tau // the diagonal factor dlamda(j) - λ_j
		simd.MulRatioDiff(wloc[j+1:k], df.Dlamda[j+1:k], org, tau, dj)
	}
}

// FinishW combines the panel-local products into the stabilized secular
// weights ẑ, restoring the signs of the original W (the paper's ReduceW
// join task): wloc holds one K-long product per secular panel that ran,
// back to back, multiplied element-wise in panel order. It writes ẑ and
// the poles in grouped column order, what[g] = ẑ[GroupToSecular[g]] and
// poles[g] = Dlamda[GroupToSecular[g]] (both length K): the operands of
// VectorsPanel and UpdateZPanelVO, which form each secular eigenvector
// directly in the grouped row order of the GEMM operand and the carrier
// rows.
func (df *Deflation) FinishW(what, poles, wloc []float64) {
	k := df.K
	if k <= 2 {
		return
	}
	// Accumulate the cross-panel product in secular order in poles, which
	// is filled last, so no temporary slice is needed: both buffers are
	// per-merge pooled scratch.
	p := poles[:k]
	copy(p, wloc[:k])
	for o := k; o+k <= len(wloc); o += k {
		simd.MulInto(p, wloc[o:o+k])
	}
	simd.NegSqrtSign(p, p, df.W[:k])
	for g, i := range df.GroupToSecular {
		what[g] = p[i]
	}
	for g, i := range df.GroupToSecular {
		poles[g] = df.Dlamda[i]
	}
}

// VectorsPanel forms the normalized eigenvectors of the rank-one secular
// system for columns [j0, j1) of the k×k matrix s (the paper's ComputeVect
// task), rows in grouped order: one pass divides ẑ by the root's deltas,
// formed in-lane from (porg[j], ptau[j]), and sums the squares; a second
// scales the column. Each column is written once. what and poles are
// FinishW's grouped ẑ and poles (ignored for K <= 2).
func (df *Deflation) VectorsPanel(s, what, poles, porg, ptau []float64, j0, j1 int) {
	k := df.K
	if k == 1 {
		s[0] = 1
		return
	}
	for j := j0; j < j1; j++ {
		col := s[j*k : j*k+k]
		if k == 2 {
			// Dlaed5's normalized components, in secular row order.
			v := [2]float64{porg[j], ptau[j]}
			col[0], col[1] = v[df.GroupToSecular[0]], v[df.GroupToSecular[1]]
			continue
		}
		sumsq := simd.RatioSumSq(col, what[:k], poles[:k], porg[j], ptau[j])
		// The fused sum of squares is safe only while it stays well inside
		// the normal range; otherwise recompute with the scaled 2-norm.
		var inv float64
		if sumsq > 1e-280 && sumsq < 1e280 {
			inv = 1 / math.Sqrt(sumsq)
		} else {
			inv = 1 / blas.Dnrm2(k, col, 1)
		}
		for i := range col {
			col[i] *= inv
		}
	}
}

// PackV repacks the compressed GEMM operands Q2Top/Q2Bot into blocked-GEMM
// form (the PackV task): packed once per merge, every UpdateVect panel of
// the merge then reuses the packed operands instead of re-streaming Q2 from
// memory per panel. Each packed operand carries ABFT checksum rows, so every
// packed UpdateVect GEMM of the merge can be verified at O(m·n) cost
// (VerifyUpdatePanel). ncol is the typical panel width, used to judge
// whether the blocked path would be taken for that shape at all; operands
// whose shape the blocked kernel would decline stay unpacked (UpdatePanel
// falls back to the plain GEMM for them, unverified: the merge invariants
// and the solve-level audit cover them). Returns the packed-buffer bytes for
// traffic accounting (0 when nothing was packed).
func (df *Deflation) PackV(ws *MergeWorkspace, ncol int) (bytes int) {
	if df.K == 0 || ncol <= 0 {
		return 0
	}
	n1 := df.N1
	n2 := df.N - n1
	c12 := df.C12()
	c23 := df.C23()
	if c12 > 0 && blas.PackWorthwhile(n1, ncol, c12) {
		ws.PackTop = blas.PackAChecked(false, n1, c12, ws.Q2Top, n1)
		bytes += ws.PackTop.Bytes()
	}
	if c23 > 0 && blas.PackWorthwhile(n2, ncol, c23) {
		ws.PackBot = blas.PackAChecked(false, n2, c23, ws.Q2Bot, n2)
		bytes += ws.PackBot.Bytes()
	}
	return bytes
}

// UpdatePanel computes the final eigenvectors V(:, j0:j1) = Q2 * S(:, j0:j1)
// as two compressed GEMMs (the paper's UpdateVect task), writing into w
// over the whole window and widening the columns' spans to it. gemm allows
// the caller to substitute a multithreaded kernel (the fork/join baseline)
// — pass nil for the serial kernel. Operands pre-packed by PackV go through
// the blocked packed kernel instead; the returned counts say how many of
// the panel's GEMMs hit the packed fast path versus fell back.
func (df *Deflation) UpdatePanel(w Window, ws *MergeWorkspace, j0, j1 int, gemm GemmFunc) (packed, unpacked int) {
	if gemm == nil {
		gemm = blas.Dgemm
	}
	n1 := df.N1
	n2 := df.N - n1
	c1 := df.Ctot[colTop]
	c12 := df.C12()
	c23 := df.C23()
	k := df.K
	ncol := j1 - j0
	if ncol <= 0 || k == 0 {
		return 0, 0
	}
	q, ldq := w.Q, w.LDQ
	// Top block: rows 0..n1-1 from type-1/2 columns (S rows 0..c12-1).
	if c12 != 0 {
		if ws.PackTop != nil {
			blas.PackedGemm(ws.PackTop, ncol, 1, ws.S[j0*k:], k, 0, q[j0*ldq:], ldq)
			packed++
		} else {
			gemm(false, false, n1, ncol, c12, 1, ws.Q2Top, n1, ws.S[j0*k:], k, 0, q[j0*ldq:], ldq)
			unpacked++
		}
	} else {
		for j := j0; j < j1; j++ {
			clear(w.col(j)[:n1])
		}
	}
	// Bottom block: rows n1..n-1 from type-2/3 columns (S rows c1..c1+c23-1).
	if c23 != 0 {
		if ws.PackBot != nil {
			blas.PackedGemm(ws.PackBot, ncol, 1, ws.S[j0*k+c1:], k, 0, q[j0*ldq+n1:], ldq)
			packed++
		} else {
			gemm(false, false, n2, ncol, c23, 1, ws.Q2Bot, n2, ws.S[j0*k+c1:], k, 0, q[j0*ldq+n1:], ldq)
			unpacked++
		}
	} else {
		for j := j0; j < j1; j++ {
			clear(w.col(j)[n1:])
		}
	}
	for j := j0; j < j1; j++ {
		w.widen(j)
	}
	return packed, unpacked
}

// GemmFunc is the signature of blas.Dgemm, allowing a parallel substitute.
type GemmFunc func(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int)
