package lapack

import (
	"fmt"
	"math"

	"tridiag/internal/blas"
	"tridiag/internal/pool"
	"tridiag/internal/simd"
)

// Values-only (ValuesOnly) merge kernels.
//
// The eigenvalue-only lane never materializes eigenvector blocks, yet each
// D&C merge needs the z-vector of the NEXT merge up: z = (last row of the
// left child's Q, first row of the right child's Q). The lane therefore
// carries, per tree node, just the first and last rows of the node's
// notional eigenvector block — a 2-row carrier stored column-major with
// leading dimension 2 (fl[2*j] = first-row entry of column j, fl[2*j+1] =
// last-row entry). A merge consumes the inner rows of its children's
// carriers as z, applies the deflation Givens rotations to a 2×nm scratch
// holding the outer rows (Dlaed2DeflateRot's rot callback), and emits the
// parent carrier via two dot products per secular column against the
// secular eigenvector u_j, reconstructed on the fly from the stored
// (origin, tau) of the Dlaed4 root in O(k) scratch. Live state is O(n) per
// tree level; the O(n²) of the full path never appears.

// SecularPanelVO is the values-only LAED4 task: it solves the secular
// equation for secular indices [j0, j1), fused with the panel's LocalW
// stabilization update (the delta column exists only inside this loop, so
// the full path's separate ComputeLocalW task has nothing to read). For
// each j it records in porg[j]/ptau[j] what UpdateZPanelVO needs to
// reconstruct the secular eigenvector: for K > 2 the root's origin pole and
// offset (delta[i] = (Dlamda[i]-org)-tau, bit-identical to the Dlaed4
// recomputation), and for K <= 2 the two closed-form vector components
// Dlaed5 left in the delta column (org/tau are not meaningful there).
// wloc follows LocalWPanel's contract (initialized to 1, nil-able); the
// root merge passes wloc=porg=ptau=nil since no parent consumes them.
func (df *Deflation) SecularPanelVO(d, porg, ptau, wloc []float64, j0, j1 int) (fallbacks int, err error) {
	k := df.K
	col := pool.Get(k)
	defer pool.Put(col)
	for j := j0; j < j1; j++ {
		lam, org, tau, err := Dlaed4OrgTau(k, j, df.Dlamda, df.W, col[:k], df.Rho)
		if err != nil {
			lam, org, tau, err = Dlaed4BisectOrgTau(k, j, df.Dlamda, df.W, col[:k], df.Rho)
			if err != nil {
				return fallbacks, fmt.Errorf("secular equation failed at index %d: %w", j, err)
			}
			fallbacks++
		}
		d[j] = lam
		if porg != nil {
			if k == 1 {
				porg[j], ptau[j] = 1, 0
			} else if k == 2 {
				porg[j], ptau[j] = col[0], col[1]
			} else {
				porg[j], ptau[j] = org, tau
			}
		}
		if wloc != nil && k > 2 {
			// LocalWPanel's update, using the live delta column.
			dj := df.Dlamda[j]
			simd.MulRatioDiff(wloc[:j], col[:j], df.Dlamda[:j], dj)
			wloc[j] *= col[j]
			simd.MulRatioDiff(wloc[j+1:k], col[j+1:k], df.Dlamda[j+1:k], dj)
		}
	}
	return fallbacks, nil
}

// UpdateZPanelVO emits the parent carrier entries for secular columns
// [j0, j1): the first and last rows of V(:, j) = Q2·u_j, computed as two
// dot products against the children's rotated outer carrier rows gathered
// in grouped order (gtop: row 0 over the C12 top-block columns; gbot: row
// nm-1 over the C23 bottom-block columns — see GatherCarrierRows). u_j is
// rebuilt exactly as VectorsPanel builds S columns — same RatioSumSq, same
// normal-range guard, same GroupToSecular row mapping — from the
// (porg, ptau) stored by SecularPanelVO, in O(k) scratch. flp is the
// parent's carrier segment for this merge (leading dimension 2). what is
// the stabilized ẑ from FinishW (ignored for K <= 2).
func (df *Deflation) UpdateZPanelVO(what, porg, ptau, gtop, gbot, flp []float64, j0, j1 int) {
	k := df.K
	if k == 0 || j1 <= j0 {
		return
	}
	c1 := df.Ctot[colTop]
	c12 := df.C12()
	c23 := df.C23()
	u := pool.Get(k)
	defer pool.Put(u)
	var col, s []float64
	if k > 2 {
		col = pool.Get(k)
		defer pool.Put(col)
		s = pool.Get(k)
		defer pool.Put(s)
	}
	for j := j0; j < j1; j++ {
		switch {
		case k == 1:
			u[0] = 1
		case k == 2:
			// porg/ptau hold Dlaed5's components in secular row order;
			// permute into grouped order as VectorsPanel does.
			var tmp [2]float64
			tmp[0], tmp[1] = porg[j], ptau[j]
			u[0] = tmp[df.GroupToSecular[0]]
			u[1] = tmp[df.GroupToSecular[1]]
		default:
			simd.ShiftInto(col[:k], df.Dlamda, porg[j], ptau[j])
			sumsq := simd.RatioSumSq(s[:k], what[:k], col[:k])
			var inv float64
			if sumsq > 1e-280 && sumsq < 1e280 {
				inv = 1 / math.Sqrt(sumsq)
			} else {
				inv = 1 / blas.Dnrm2(k, s, 1)
			}
			for i := 0; i < k; i++ {
				u[i] = s[df.GroupToSecular[i]] * inv
			}
		}
		var f, l float64
		if c12 > 0 {
			f = blas.Ddot(c12, gtop, 1, u, 1)
		}
		if c23 > 0 {
			l = blas.Ddot(c23, gbot, 1, u[c1:], 1)
		}
		flp[2*j] = f
		flp[2*j+1] = l
	}
}

// GatherCarrierRows extracts, after the deflation rotations, the merge's
// two outer carrier rows from the 2×nm scratch g2 in grouped column order:
// gtop[g] = g2[0, Perm[g]] for the C12 top-block columns and
// gbot[g-c1] = g2[1, Perm[g]] for g in [Ctot[0], K) — the exact operands of
// the full path's two compressed GEMMs restricted to rows 0 and nm-1.
func (df *Deflation) GatherCarrierRows(g2, gtop, gbot []float64) {
	c1 := df.Ctot[colTop]
	for g := 0; g < df.C12(); g++ {
		gtop[g] = g2[2*df.Perm[g]]
	}
	for g := c1; g < df.K; g++ {
		gbot[g-c1] = g2[2*df.Perm[g]+1]
	}
}

// CopyBackValuesVO places the merge's deflated eigenvalues and rotated
// carrier columns in the values-only lane, where the full lane places its
// deflated vectors: deflated j goes to column Slot[j] of d and of the parent
// carrier segment flp — index arithmetic only, no column movement. The root
// merge, whose carrier has no consumer, passes nil g2 and flp.
func (df *Deflation) CopyBackValuesVO(d, g2, flp []float64) {
	for j, s := range df.Slot {
		d[s] = df.DeflD[j]
		if flp != nil {
			src := df.Perm[df.K+j]
			flp[2*s] = g2[2*src]
			flp[2*s+1] = g2[2*src+1]
		}
	}
}

// DsteqrCarrier is the values-only leaf: full eigenvalues of the m×m leaf
// plus the 2-row eigenvector carrier (first and last rows of the leaf's Q),
// computed by DsteqrRobust on pooled m×m scratch (Dsteqr initializes it to
// identity itself, so dirty pool memory is fine). The d/e trajectory — and
// hence d — is bit-identical to the full path's leaf. fl is the leaf's
// carrier segment with leading dimension 2.
func DsteqrCarrier(m int, d, e, fl []float64) (fellBack bool, err error) {
	if m == 1 {
		fl[0], fl[1] = 1, 1
		return false, nil
	}
	z := pool.Get(m * m)
	defer pool.Put(z)
	fellBack, err = DsteqrRobust(m, d, e, z, m)
	if err != nil {
		return fellBack, err
	}
	for j := 0; j < m; j++ {
		fl[2*j] = z[j*m]
		fl[2*j+1] = z[j*m+m-1]
	}
	return fellBack, nil
}
