package core

import (
	"tridiag/internal/blas"
	"tridiag/internal/lapack"
	"tridiag/internal/pool"
	"tridiag/internal/quark"
)

// valuesLane is the values-only solve (Options.ValuesOnly): the shared tree
// and joins with every eigenvector task class gone. No
// PermuteV/ComputeVect/UpdateVect/PackV/CopyBackDeflated tasks are submitted
// and no n×n block exists anywhere: each tree node carries only the first
// and last rows of its notional eigenvector block in the 2×n carrier fl
// (column-major, leading dimension 2 — see internal/lapack/laed_vo.go),
// which is exactly what the parent merge needs to form its z-vector.
// Deflation places carrier columns by index (CopyBackValuesVO, through the
// same Deflation.Slot as the full lane's deflated vectors), the secular
// panels fuse LAED4 with the LocalW stabilization update, and the UpdateZ
// panels replace the UpdateVect GEMMs with one fused pass per secular column
// (the vector and both carrier dots, formed in-lane from the root's (org,
// tau)). The lane holds no delta or eigenvector scratch. Live pooled state
// is O(nm) per in-flight merge — O(n·depth) across the solve — and
// eigenvalues are moved once, by a final O(n) gather at the root, instead of
// per-merge column sorts. The root merge's carrier has no consumer, so the
// whole stabilization/UpdateZ chain is skipped there: the root costs one
// deflation scan plus the secular solves.
type valuesLane struct {
	*flow
	fl []float64
}

// zero: d is already identically zero, nothing to do.
func (l *valuesLane) output() error { return nil }

func (l *valuesLane) zero() {}

// leaf computes the leaf eigenvalues plus the 2-row carrier; the d/e
// trajectory is bit-identical to the full lane's DsteqrRobust leaves.
func (l *valuesLane) leaf(nd *node) (bool, error) {
	st0, sz := nd.start, nd.size
	return lapack.DsteqrCarrier(sz, l.d[st0:st0+sz], l.e[st0:st0+max(sz-1, 0)], l.fl[2*st0:])
}

// deflate forms z from the children's inner carrier rows, runs the
// deflation scan with its Givens rotations applied to a pooled 2-row copy of
// the outer carrier rows, then places the deflated eigenvalues and carrier
// columns by index permutation — the work of the full lane's
// ComputeDeflation + every PermuteV + every CopyBackDeflated panel.
func (l *valuesLane) deflate(ms *mergeState, rho float64, z []float64) (*lapack.Deflation, error) {
	nm, n1 := ms.nm, ms.n1
	flm := l.fl[2*ms.start:] // this merge's 2×nm carrier window
	for j := 0; j < n1; j++ {
		z[j] = flm[2*j+1] // last row of the left child's block
	}
	for j := n1; j < nm; j++ {
		z[j] = flm[2*j] // first row of the right child's block
	}
	var g2 []float64
	var rot func(pj, nj int, c, s float64)
	if !ms.root {
		// The outer rows: row 0 lives only in the left block's columns,
		// row nm-1 only in the right block's (the off-block rows are
		// structural zeros). g2 is consumed within this task.
		g2 = pool.Get(2 * nm)
		defer pool.Put(g2)
		for j := 0; j < n1; j++ {
			g2[2*j], g2[2*j+1] = flm[2*j], 0
		}
		for j := n1; j < nm; j++ {
			g2[2*j], g2[2*j+1] = 0, flm[2*j+1]
		}
		rot = func(pj, nj int, c, s float64) {
			blas.Drot(2, g2[2*pj:], 1, g2[2*nj:], 1, c, s)
		}
	}
	df, err := lapack.Dlaed2DeflateRot(nm, n1, ms.dd, ms.ixq, rho, z, rot)
	if err != nil {
		return nil, err
	}
	if ms.root {
		df.CopyBackValuesVO(ms.dd, nil, nil)
		return df, nil
	}
	ms.takeSecular(df.K)
	ms.vgtop = pool.Get(df.K)
	ms.vgbot = pool.Get(df.K)
	df.GatherCarrierRows(g2, ms.vgtop, ms.vgbot)
	df.CopyBackValuesVO(ms.dd, g2, flm)
	return df, nil
}

// panels submits the LAED4 panels, each fused with its LocalW stabilization
// update (the same task reads the (org, tau) roots it just wrote, so there is
// no separate ComputeLocalW task), then ReduceW and the UpdateZ panels that
// emit the parent's carrier. The root skips the stabilization and the
// carrier, and records no roots.
func (l *valuesLane) panels(ms *mergeState) {
	for p := 0; p < ms.npanels; p++ {
		l.submitLAED4(ms, p, func(j0, j1 int) (int, int, error) {
			if ms.root {
				return ms.df.SecularPanel(ms.dd, nil, nil, j0, j1)
			}
			k := ms.df.K
			var wl []float64
			if k > 2 {
				// Reuse the panel's buffer on an ABFT retry re-invocation
				// (pool.Get only on the first pass keeps the accountant
				// honest); reinitializing to 1 makes the kernel idempotent.
				// Publish the buffer before running the kernel: if the
				// kernel panics, the post-shutdown release must see wl to
				// return it.
				if wl = ms.wlocs[p]; wl == nil {
					wl = pool.Get(k)
					ms.wlocs[p] = wl
				}
				for i := range wl {
					wl[i] = 1
				}
			}
			evals, nfb, err := ms.df.SecularPanel(ms.dd, ms.porg, ms.ptau, j0, j1)
			if err == nil && wl != nil {
				ms.df.LocalWPanel(ms.porg, ms.ptau, wl, j0, j1)
			}
			return evals, nfb, err
		})
	}
	if ms.root {
		return
	}
	// Workspace consumers: the UpdateZ panels; the last one to finish
	// recycles the merge's O(nm) pooled state through done().
	ms.pending.Store(int32(ms.npanels))
	l.submitReduceW(ms)

	// UpdateZ: the parent carrier entries per secular panel — the
	// values-only replacement for the UpdateVect GEMMs (one fused pass per
	// column: the secular vector, its norm and its dots with the gathered
	// outer carrier rows).
	flm := l.fl[2*ms.start:]
	for p := 0; p < ms.npanels; p++ {
		label := ms.name("UpdateZ", p)
		l.rt.SubmitPrio("UpdateZ", label, ms.prio+prioUpdate, func() {
			defer ms.done()
			k := ms.df.K
			j0 := p * ms.nbSec
			j1 := min(j0+ms.nbSec, k)
			if j0 >= j1 {
				return
			}
			ms.df.UpdateZPanelVO(ms.what, ms.poles, ms.porg, ms.ptau, ms.vgtop, ms.vgbot, flm, j0, j1)
			l.st.countTask("UpdateZ", label, int64(j1-j0)*int64(k))
			// Corrupt this panel's carrier columns; the parent merge's
			// corrupted z makes the final spectrum inconsistent with the
			// original matrix, which the solve-level inertia audit flags.
			corruptHook("UpdateZ", flm[2*j0:2*j1])
		}, quark.Gather(ms.hS), quark.Gather(ms.parent.hV), quark.ReadWrite(ms.hSec[p]))
	}
}

// sort is the values-only analogue of SortEigenvectors: the same
// lapack.SortOrder on d alone, one O(n) gather through the root's merge
// permutation plus the closing insertion pass.
func (l *valuesLane) sort(root *node, orgnrm float64) {
	const class = "SortEigenvalues"
	n := l.n
	l.rt.Submit(class, "sort", func() {
		lapack.SortOrder(n, l.d, l.indxq, orgnrm)
		l.st.countTask(class, "sort", int64(n))
		corruptHook(class, l.d[:n])
	}, quark.ReadWrite(root.hV), quark.ReadWrite(root.hD))
}

func (l *valuesLane) release() { pool.Put(l.fl) }
