package core

import (
	"fmt"
	"math"

	"tridiag/internal/blas"
	"tridiag/internal/lapack"
	"tridiag/internal/pool"
	"tridiag/internal/quark"
)

// Values-only task flow (Options.ValuesOnly): the same D&C tree and join
// structure as submitTaskFlow with every eigenvector task class gone. No
// PermuteV/ComputeVect/UpdateVect/PackV/CopyBackDeflated tasks are submitted
// and no n×n block exists anywhere: each tree node carries only the first
// and last rows of its notional eigenvector block in the 2×n carrier fl
// (column-major, leading dimension 2 — see internal/lapack/laed_vo.go),
// which is exactly what the parent merge needs to form its z-vector.
// Deflation moves carrier columns by index permutation (CopyBackValuesVO)
// instead of column movement, the secular panels fuse LAED4 with the LocalW
// stabilization update, and the UpdateZ panels replace the UpdateVect GEMMs
// with two dot products per secular column. Live pooled state is O(nm) per
// in-flight merge — O(n·depth) across the solve — and eigenvalues are moved
// once, by a final O(n) gather at the root, instead of per-merge column
// sorts.
func submitTaskFlowVO(rt *quark.Runtime, n int, d, e, fl []float64, o *Options, st *Stats, merges *[]*mergeState) error {
	sizes := lapack.PartitionSizes(n, o.MinPartition)
	starts := make([]int, len(sizes)+1)
	for i, s := range sizes {
		starts[i+1] = starts[i] + s
	}

	orgnrm := lapack.Dlanst('M', n, d, e)
	if orgnrm == 0 {
		// Zero matrix: d is already identically zero, nothing to do.
		return nil
	}

	hScale := rt.Handle("scale")
	rt.Submit("Scale", "scale+partition", func() {
		if orgnrm != 1 {
			lapack.Dlascl(n, 1, orgnrm, 1, d, n)
			lapack.Dlascl(n-1, 1, orgnrm, 1, e, n-1)
		}
		// Rank-one tear at every internal boundary.
		for _, b := range starts[1 : len(starts)-1] {
			ae := math.Abs(e[b-1])
			d[b-1] -= ae
			d[b] -= ae
		}
		st.count("Scale", int64(n))
		corruptHook("Scale", d[:n])
	}, quark.Write(hScale))

	indxq := make([]int, n)

	// Leaf solves: full leaf eigenvalues plus the 2-row carrier; the d/e
	// trajectory is bit-identical to the full path's DsteqrRobust leaves.
	level := make([]*node, len(sizes))
	for i := range sizes {
		st0, sz := starts[i], sizes[i]
		nd := &node{start: st0, size: sz,
			hV: rt.Handle(fmt.Sprintf("V[%d:%d]", st0, st0+sz)),
			hD: rt.Handle(fmt.Sprintf("d[%d:%d]", st0, st0+sz))}
		level[i] = nd
		rt.Submit("STEDC", fmt.Sprintf("leaf[%d:%d]", st0, st0+sz), func() {
			fellBack, err := lapack.DsteqrCarrier(sz, d[st0:st0+sz], e[st0:st0+max(sz-1, 0)], fl[2*st0:])
			if err != nil {
				panic(err)
			}
			if fellBack {
				st.count("STEDCFallback", 1)
			}
			for j := 0; j < sz; j++ {
				indxq[st0+j] = j
			}
			st.count("STEDC", int64(sz)*int64(sz)*int64(sz))
			corruptHook("STEDC", d[st0:st0+sz])
		}, quark.Read(hScale), quark.Write(nd.hV), quark.Write(nd.hD))
	}

	// Merge levels, bottom-up. The unique merge of width n is the root: its
	// carrier has no consumer, so the whole stabilization/UpdateZ chain is
	// skipped there — the root costs one deflation scan plus the secular
	// solves.
	lvl := 0
	for len(level) > 1 {
		lvl++
		var next []*node
		for i := 0; i+1 < len(level); i += 2 {
			left, right := level[i], level[i+1]
			parent := &node{start: left.start, size: left.size + right.size,
				hV: rt.Handle(fmt.Sprintf("V[%d:%d]", left.start, left.start+left.size+right.size)),
				hD: rt.Handle(fmt.Sprintf("d[%d:%d]", left.start, left.start+left.size+right.size))}
			*merges = append(*merges, submitMergeVO(rt, parent, left, right, lvl, parent.size == n, d, e, fl, indxq, o, st))
			next = append(next, parent)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}

	// The values-only analogue of SortEigenvectors: one O(n) gather through
	// the root's merge permutation, the closing insertion sort, then the
	// scale-back.
	root := level[0]
	rt.Submit("SortEigenvalues", "sort", func() {
		tmp := pool.Get(n)
		defer pool.Put(tmp)
		for i := 0; i < n; i++ {
			tmp[i] = d[indxq[i]]
		}
		copy(d[:n], tmp[:n])
		lapack.SortAscending(n, d, nil, 0)
		if orgnrm != 1 {
			lapack.Dlascl(n, 1, 1, orgnrm, d, n)
		}
		st.count("SortEigenvalues", int64(n))
		corruptHook("SortEigenvalues", d[:n])
	}, quark.ReadWrite(root.hV), quark.ReadWrite(root.hD))
	return nil
}

// submitMergeVO submits one values-only merge: the Compute-deflation and
// ReduceW joins and the LAED4 panels of the full path, with the eigenvector
// panel classes replaced by the UpdateZ panels that emit the parent's 2-row
// carrier. isRoot drops the carrier chain entirely (no consumer above).
func submitMergeVO(rt *quark.Runtime, parent, left, right *node, lvl int, isRoot bool, d, e, fl []float64, indxq []int, o *Options, st *Stats) *mergeState {
	prio := lvl * prioStride
	start := parent.start
	nm := parent.size
	n1 := left.size
	nb := o.PanelSize
	if nb <= 0 {
		nb = adaptivePanelNB(nm, rt.Workers())
	}
	npanels := (nm + nb - 1) / nb
	ms := &mergeState{wlocs: make([][]float64, npanels), nbSec: nb}
	if !isRoot {
		// Workspace consumers: the UpdateZ panels; the last one to finish
		// recycles the merge's O(nm) pooled state through done().
		ms.pending.Store(int32(npanels))
	}

	dd := d[start : start+nm]
	flm := fl[2*start:] // this merge's 2×nm carrier window
	ixq := indxq[start : start+nm]
	rhoAddr := start + n1 - 1 // e index of the coupling element

	hS := rt.Handle(fmt.Sprintf("ws[%d:%d]", start, start+nm))
	hSec := make([]*quark.Handle, npanels)
	for p := 0; p < npanels; p++ {
		hSec[p] = rt.Handle(fmt.Sprintf("sec[%d]@%d", p, start))
	}
	name := func(kind string, p int) string {
		return fmt.Sprintf("%s[%d:%d]p%d", kind, start, start+nm, p)
	}

	// Compute deflation: z from the children's inner carrier rows, the
	// deflation scan with its Givens rotations applied to a pooled 2-row
	// copy of the outer carrier rows, then the deflated eigenvalues and
	// carrier columns placed by index permutation — the task that replaces
	// ComputeDeflation + every PermuteV + every CopyBackDeflated panel.
	rt.SubmitPrio("ComputeDeflation", fmt.Sprintf("deflate[%d:%d]", start, start+nm), prio+prioJoin, func() {
		rho := e[rhoAddr]
		// Trace invariant capture, as on the full path (see submitMerge).
		var traceIn, absIn, dmaxIn float64
		if !o.DisableABFT {
			traceIn, absIn, dmaxIn = kahanSum(dd)
		}
		z := pool.Get(nm)
		defer pool.Put(z)
		for j := 0; j < n1; j++ {
			z[j] = flm[2*j+1] // last row of the left child's block
		}
		for j := n1; j < nm; j++ {
			z[j] = flm[2*j] // first row of the right child's block
		}
		var g2 []float64
		var rot func(pj, nj int, c, s float64)
		if !isRoot {
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
		df, err := lapack.Dlaed2DeflateRot(nm, n1, dd, ixq, rho, z, rot)
		if err != nil {
			panic(err)
		}
		ms.df = df
		if !isRoot {
			ms.what = pool.Get(df.K)
			ms.porg = pool.Get(df.K)
			ms.ptau = pool.Get(df.K)
			ms.vgtop = pool.Get(df.C12())
			ms.vgbot = pool.Get(df.C23())
			df.GatherCarrierRows(g2, ms.vgtop, ms.vgbot)
			df.CopyBackValuesVO(dd, g2, flm)
		} else {
			for j := range df.DeflD {
				dd[df.K+j] = df.DeflD[j]
			}
		}
		if o.PanelSize <= 0 {
			ms.nbSec = secularPanelNB(df.K, npanels, rt.Workers())
		}
		if !o.DisableABFT {
			ms.traceWant, ms.traceTol = lapack.TraceBudget(traceIn, absIn, dmaxIn, df.Rho, nm)
			ms.abft = true
		}
		st.count("ComputeDeflation", int64(nm))
		ms.statIdx = st.recordMerge(lvl, nm, df.K, ms.nbSec)
		corruptHook("ComputeDeflation", df.Dlamda)
	}, quark.ReadWrite(parent.hV), quark.ReadWrite(parent.hD),
		quark.Read(left.hV), quark.Read(right.hV),
		quark.Read(left.hD), quark.Read(right.hD),
		quark.Write(hS))

	// LAED4 fused with the LocalW stabilization update: the delta column
	// exists only inside the panel loop here, so there is no separate
	// ComputeLocalW task (and nothing for one to read). The root skips the
	// stabilization (no ẑ consumer).
	for p := 0; p < npanels; p++ {
		p := p
		rt.SubmitPrio("LAED4", name("LAED4", p), prio+prioSecular, func() {
			k := ms.df.K
			j0 := p * ms.nbSec
			j1 := min(j0+ms.nbSec, k)
			if j0 >= j1 {
				return
			}
			var wl, porg, ptau []float64
			if !isRoot {
				porg, ptau = ms.porg, ms.ptau
				if k > 2 {
					// Reuse the panel's buffer on an ABFT retry re-invocation
					// (pool.Get only on the first pass keeps the accountant
					// honest); reinitializing to 1 makes the kernel idempotent.
					// Publish the buffer before running the kernel: if the
					// kernel panics, sweepLeaked must see wl to write it off
					// the accountant.
					if wl = ms.wlocs[p]; wl == nil {
						wl = pool.Get(k)
						ms.wlocs[p] = wl
					}
					for i := range wl {
						wl[i] = 1
					}
				}
			}
			nfb, err := ms.df.SecularPanelVO(dd, porg, ptau, wl, j0, j1)
			if err != nil {
				panic(err)
			}
			if nfb > 0 {
				st.count("LAED4Bisect", int64(nfb))
			}
			st.count("LAED4", int64(j1-j0)*int64(k))
			corruptHook("LAED4", dd[j0:j1])
			if !o.DisableABFT {
				st.count("ABFTInvariant", 1)
				if ierr := ms.df.CheckInterlacing(dd, j0, j1); ierr != nil {
					st.count("ABFTInvariantFail", 1)
					panic(ierr)
				}
			}
		}, quark.Gather(hS), quark.Gather(parent.hD), quark.ReadWrite(hSec[p]))
	}

	if !isRoot {
		// ReduceW: the second join, combining the panel products into ẑ.
		rt.SubmitPrio("ReduceW", fmt.Sprintf("ReduceW[%d:%d]", start, start+nm), prio+prioJoin, func() {
			ms.df.FinishW(ms.what, ms.wlocs...)
			for p, wl := range ms.wlocs {
				pool.Put(wl)
				ms.wlocs[p] = nil
			}
			st.count("ReduceW", int64(ms.df.K))
			corruptHook("ReduceW", ms.what)
		}, quark.ReadWrite(hS))

		// UpdateZ: the parent carrier entries per secular panel — the
		// values-only replacement for the UpdateVect GEMMs (two dots per
		// column against the gathered outer carrier rows).
		for p := 0; p < npanels; p++ {
			p := p
			rt.SubmitPrio("UpdateZ", name("UpdateZ", p), prio+prioUpdate, func() {
				defer ms.done()
				k := ms.df.K
				j0 := p * ms.nbSec
				j1 := min(j0+ms.nbSec, k)
				if j0 >= j1 {
					return
				}
				ms.df.UpdateZPanelVO(ms.what, ms.porg, ms.ptau, ms.vgtop, ms.vgbot, flm, j0, j1)
				st.count("UpdateZ", int64(j1-j0)*int64(k))
				// Corrupt this panel's carrier columns; the parent merge's
				// corrupted z makes the final spectrum inconsistent with the
				// original matrix, which the solve-level inertia audit flags.
				corruptHook("UpdateZ", flm[2*j0:2*j1])
			}, quark.Gather(hS), quark.Gather(parent.hV), quark.ReadWrite(hSec[p]))
		}
	}

	// Dlamrg: the sorting permutation for the merged spectrum. Values are
	// gathered once at the root (SortEigenvalues) instead of moving columns
	// per merge.
	rt.SubmitPrio("Dlamrg", fmt.Sprintf("Dlamrg[%d:%d]", start, start+nm), prio+prioDlamrg, func() {
		k := ms.df.K
		corruptHook("Dlamrg", dd)
		if ms.abft {
			st.count("ABFTInvariant", 1)
			defect, terr := lapack.CheckTrace(dd, nm, ms.traceWant, ms.traceTol)
			st.setMergeTraceDefect(ms.statIdx, defect)
			if terr != nil {
				st.count("ABFTInvariantFail", 1)
				panic(terr)
			}
		}
		if k == 0 {
			for i := 0; i < nm; i++ {
				ixq[i] = i
			}
			return
		}
		lapack.Dlamrg(k, nm-k, dd, 1, -1, ixq)
		st.count("Dlamrg", int64(nm))
	}, quark.ReadWrite(parent.hD))
	return ms
}
