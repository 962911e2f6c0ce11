package core

import (
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

// leaf computes the leaf eigenvalues plus the 2-row carrier with the
// sequential divide and conquer over the carrier (lapack.DstedcCarrier).
func (l *valuesLane) leaf(nd *node, run *lapack.DCRun) error {
	st0, sz := nd.start, nd.size
	return lapack.DstedcCarrier(sz, l.d[st0:st0+sz], l.e[st0:st0+max(sz-1, 0)], l.fl[2*st0:], l.o.dcConfig(nil), run)
}

// merge builds the carrier lane's merge over the merge's window of the
// carrier. Its Deflate step places the deflated eigenvalues and carrier
// columns by index permutation: the work of the full lane's PermuteV and
// CopyBackDeflated panels. The root's carrier has no consumer: it rotates
// nothing and keeps no roots.
func (l *valuesLane) merge(ms *mergeState, d []float64, indxq []int, cfg lapack.MergeConfig) *lapack.Merge {
	return lapack.NewCarrierMerge(l.fl[2*ms.start:], ms.n1, d, indxq, !ms.root, cfg)
}

func (l *valuesLane) deflate(ms *mergeState, rho float64) (int64, error) { return ms.m.Deflate(rho) }

// panels submits the LAED4 panels, each fused with its LocalW stabilization
// update (the Secular step of a carrier merge multiplies in the roots'
// factors itself, so there is no ComputeLocalW task), then ReduceW and the
// UpdateZ panels that emit the parent's carrier. The root skips the
// stabilization and the carrier.
func (l *valuesLane) panels(ms *mergeState) {
	m := ms.m
	for p := 0; p < ms.npanels; p++ {
		l.submitLAED4(ms, p)
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
	for p := 0; p < ms.npanels; p++ {
		label := ms.name("UpdateZ", p)
		l.rt.SubmitPrio("UpdateZ", label, ms.prio+prioUpdate, func() {
			defer ms.done()
			l.file("UpdateZ", label, m.UpdateZ(m.Panel(p)), nil)
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
