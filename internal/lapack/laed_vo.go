package lapack

import (
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
// parent carrier with one fused pass per secular column (UpdateZPanelVO)
// that forms the secular eigenvector u_j in-lane from the Dlaed4 root's
// (origin, tau) — no delta column, no u column. Live state is O(n) per tree
// level; the O(n²) of the full path never appears.

// UpdateZPanelVO emits the parent carrier entries for secular columns
// [j0, j1): the first and last rows of V(:, j) = Q2·u_j. One simd.RatioDots
// pass per column forms u_j = ẑ/delta_j in grouped order, with delta_j
// formed in-lane from (porg[j], ptau[j]) as SecularPanel recorded them, and
// accumulates ‖u_j‖² and u_j's dot products with the children's rotated
// outer carrier rows (gtop: row 0, gbot: row nm-1, both zero-padded to
// length K by GatherCarrierRows); the two dots are then scaled by 1/‖u_j‖.
// flp is the parent's carrier segment for this merge (leading dimension 2).
// what and poles are FinishW's grouped ẑ and poles (ignored for K <= 2).
func (df *Deflation) UpdateZPanelVO(what, poles, porg, ptau, gtop, gbot, flp []float64, j0, j1 int) {
	k := df.K
	if k == 0 || j1 <= j0 {
		return
	}
	for j := j0; j < j1; j++ {
		var f, l float64
		switch k {
		case 1:
			f, l = gtop[0], gbot[0]
		case 2:
			// porg/ptau hold Dlaed5's components in secular row order;
			// permute into grouped order as VectorsPanel does.
			v := [2]float64{porg[j], ptau[j]}
			u0, u1 := v[df.GroupToSecular[0]], v[df.GroupToSecular[1]]
			f = gtop[0]*u0 + gtop[1]*u1
			l = gbot[0]*u0 + gbot[1]*u1
		default:
			ss, sx, sy := simd.RatioDots(what[:k], poles[:k], gtop[:k], gbot[:k], porg[j], ptau[j])
			if ss > 1e-280 && ss < 1e280 {
				inv := 1 / math.Sqrt(ss)
				f, l = sx*inv, sy*inv
			} else {
				f, l = df.carrierDotsScaled(what, poles, gtop, gbot, porg[j], ptau[j])
			}
		}
		flp[2*j] = f
		flp[2*j+1] = l
	}
}

// carrierDotsScaled is UpdateZPanelVO's guard for a column whose squared
// norm leaves the normal range: it forms u on pooled scratch, normalizes it
// with the scaled 2-norm (as VectorsPanel does) and only then takes the two
// carrier dots, so neither can overflow.
func (df *Deflation) carrierDotsScaled(what, poles, gtop, gbot []float64, org, tau float64) (f, l float64) {
	k := df.K
	u := pool.Get(k)
	defer pool.Put(u)
	simd.RatioSumSq(u, what[:k], poles[:k], org, tau)
	inv := 1 / blas.Dnrm2(k, u, 1)
	for i := range u {
		u[i] *= inv
	}
	return blas.Ddot(k, gtop, 1, u, 1), blas.Ddot(k, gbot, 1, u, 1)
}

// GatherCarrierRows extracts, after the deflation rotations, the merge's
// two outer carrier rows from the 2×nm scratch g2 in grouped column order,
// each zero-padded to length K: gtop[g] = g2[0, Perm[g]] for the C12
// top-block columns (g < C12) and gbot[g] = g2[1, Perm[g]] for the C23
// bottom-block columns (g ≥ Ctot[0]), 0 elsewhere — the exact operands of
// the full path's two compressed GEMMs restricted to rows 0 and nm-1, laid
// out so one pass over [0, K) serves both.
func (df *Deflation) GatherCarrierRows(g2, gtop, gbot []float64) {
	c1, c12 := df.Ctot[colTop], df.C12()
	for g := 0; g < df.K; g++ {
		gtop[g], gbot[g] = 0, 0
		if g < c12 {
			gtop[g] = g2[2*df.Perm[g]]
		}
		if g >= c1 {
			gbot[g] = g2[2*df.Perm[g]+1]
		}
	}
}

// CopyBackValuesVO places the merge's deflated eigenvalues and rotated
// carrier columns in the values-only lane, where the full lane places its
// deflated vectors: deflated j goes to column Slot[j] of d and of the parent
// carrier segment flp — index arithmetic only, no column movement. The root
// merge, whose carrier has no consumer, passes nil g2 and places the
// eigenvalues only.
func (df *Deflation) CopyBackValuesVO(d, g2, flp []float64) {
	for j, s := range df.Slot {
		d[s] = df.DeflD[j]
		if g2 != nil {
			src := df.Perm[df.K+j]
			flp[2*s] = g2[2*src]
			flp[2*s+1] = g2[2*src+1]
		}
	}
}

// DsteqrCarrier is the values-only QR leaf: full eigenvalues of the m×m
// leaf plus the 2-row eigenvector carrier (first and last rows of the
// leaf's Q), computed by DsteqrRobust on pooled m×m scratch (Dsteqr
// initializes it to identity itself, so dirty pool memory is fine). The d/e
// trajectory — and hence d — is bit-identical to the full path's leaf. fl
// is the leaf's carrier segment with leading dimension 2.
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

// DeflateCarrier is a values-only merge's deflation step on the 2×nm
// carrier window fl of its two solved children (the left one n1 wide): z
// receives the inner rows (the last row of the left child's block, the
// first row of the right child's), and the deflation scan runs with its
// Givens rotations applied to g2, a 2×nm copy of the outer rows (row 0
// lives only in the left block's columns, row nm-1 only in the right
// block's; the off-block rows are structural zeros). A merge whose carrier
// has no consumer passes nil g2 and skips the rotations.
func DeflateCarrier(nm, n1 int, d []float64, indxq []int, rho float64, fl, z, g2 []float64) (*Deflation, error) {
	for j := 0; j < n1; j++ {
		z[j] = fl[2*j+1]
	}
	for j := n1; j < nm; j++ {
		z[j] = fl[2*j]
	}
	var rot func(pj, nj int, c, s float64)
	if g2 != nil {
		for j := 0; j < n1; j++ {
			g2[2*j], g2[2*j+1] = fl[2*j], 0
		}
		for j := n1; j < nm; j++ {
			g2[2*j], g2[2*j+1] = 0, fl[2*j+1]
		}
		rot = func(pj, nj int, c, s float64) {
			blas.Drot(2, g2[2*pj:], 1, g2[2*nj:], 1, c, s)
		}
	}
	return Dlaed2DeflateRot(nm, n1, d, indxq, rho, z, rot)
}

// DstedcCarrier is the sequential divide and conquer of Dstedc over the
// 2-row carrier instead of q: on exit d holds the ascending eigenvalues and
// fl (leading dimension 2, 2n long) the first and last rows of their
// eigenvectors; e is destroyed. Its merges run the values-only lane's
// kernels inline, with the checks of run (nil: none).
func DstedcCarrier(n int, d, e, fl []float64, cfg *DCConfig, run *DCRun) error {
	if n <= 0 {
		return nil
	}
	return dcSolve(n, d, e, cfg, carrierDC(fl), run)
}

// carrierDC is the carrier lane of the sequential driver: the 2×n carrier
// of the whole problem.
type carrierDC []float64

// CarrierScratch returns the sizes, in elements, of the largest pooled
// buffers DstedcCarrier checks out on an order-n problem with the leaf
// cutoff of cfg: a QR leaf's m×m scratch, and a merge's two buffers
// (mergeWords, K ≤ n roots in one panel). Their pool classes bound the
// driver's pooled footprint; the closing sort's 2n gather is smaller.
func CarrierScratch(n int, cfg *DCConfig) []int {
	m := min(n, cfg.smallSize())
	deflate, secular := mergeWords(true, n, n, 1)
	return []int{m * m, deflate, secular}
}

func (fl carrierDC) leaf(d, e []float64, st, sz int) (bool, error) {
	return DsteqrCarrier(sz, d[st:st+sz], e[st:st+max(sz-1, 0)], fl[2*st:])
}

func (fl carrierDC) merge(d []float64, indxq []int, st, n1 int, cfg MergeConfig) *Merge {
	return NewCarrierMerge(fl[2*st:], n1, d, indxq, true, cfg)
}

// sort is SortOrder with the carrier's columns gathered along.
func (fl carrierDC) sort(n int, d []float64, indxq []int, orgnrm float64) {
	SortOrder(n, d, indxq, orgnrm)
	tmp := pool.Get(2 * n)
	defer pool.Put(tmp)
	for i, j := range indxq[:n] {
		tmp[2*i], tmp[2*i+1] = fl[2*j], fl[2*j+1]
	}
	copy(fl[:2*n], tmp)
}

// identity sets the carrier of the identity: row 0 is e_0ᵀ, row n-1 is
// e_{n-1}ᵀ.
func (fl carrierDC) identity(n int) {
	clear(fl[:2*n])
	fl[0], fl[2*n-1] = 1, 1
}
