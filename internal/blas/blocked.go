package blas

import (
	"math"

	"tridiag/internal/pool"
	"tridiag/internal/simd"
)

// gemmKernel names a micro-kernel of the 24×8 packed layout. All of them
// compute every element of C with the same arithmetic (ukernelGeneric's),
// so they agree bit for bit and the choice only changes the speed.
type gemmKernel int

const (
	kernelGeneric gemmKernel = iota // portable math.FMA reference
	kernelAVX2                      // four 12×4 ymm sub-tiles
	kernelAVX512                    // 24 zmm accumulators
)

// kernel is the micro-kernel the blocked GEMM runs, chosen once from the
// CPU level internal/simd detected (simd.SetSIMD does not change it). Tests
// switch it through withKernel.
var kernel = detectKernel()

// detectKernel picks the widest kernel the CPU and OS support.
func detectKernel() gemmKernel {
	switch simd.CPULevel() {
	case simd.LevelAVX512:
		return kernelAVX512
	case simd.LevelAVX2:
		return kernelAVX2
	}
	return kernelGeneric
}

// blockedWorthwhile reports whether the cache-blocked packed path should
// handle a GEMM of this shape. It needs an assembly micro-kernel (the
// register-tiled kernels in level3.go beat the portable one) and enough
// work to amortize the two pack passes. The row cut-off is measured, not
// derived from the tile: at the merge shapes of both lib workloads the
// packed path overtakes gemmNN between 8 and 12 rows with either kernel
// (DESIGN.md §9).
func blockedWorthwhile(m, n, k int) bool {
	if kernel == kernelGeneric {
		return false
	}
	if m < 12 || n < 4 || k < 8 {
		return false
	}
	return int64(m)*int64(n)*int64(k) >= 1<<15
}

// PackWorthwhile reports whether packing op(A) up front pays off for GEMMs
// of the given shape — the predicate callers use to decide whether to build
// a PackedA for repeated PackedGemm calls (n is the typical per-call column
// count). It mirrors the internal dispatch of Dgemm so a pre-packed call
// never lands on a slower path than the plain one.
func PackWorthwhile(m, n, k int) bool { return blockedWorthwhile(m, n, k) }

// gemmBlocked is the BLIS-style three-level cache-blocked GEMM: pack op(A)
// into micro-panels once, then stream KC×NC blocks of packed op(B) against
// MC×KC blocks of A through the register micro-kernel.
func gemmBlocked(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	pa := PackA(transA, m, k, a, lda)
	// Deferred so the pack buffer is returned (and the accountant credited)
	// even when a task panic unwinds through the kernel.
	defer pa.Release()
	packedGemm(pa, transB, n, alpha, b, ldb, beta, c, ldc)
}

// PackedGemm computes C = alpha*Ap*B + beta*C where Ap is a pre-packed
// operand (m×k from pa.Dims) and B is k×n column-major, non-transposed.
// Safe for concurrent calls sharing one PackedA: the B pack buffer is
// per-call (pooled) and C regions are the caller's responsibility.
func PackedGemm(pa *PackedA, n int, alpha float64, b []float64, ldb int, beta float64, c []float64, ldc int) {
	packedGemm(pa, false, n, alpha, b, ldb, beta, c, ldc)
}

func packedGemm(pa *PackedA, transB bool, n int, alpha float64, b []float64, ldb int, beta float64, c []float64, ldc int) {
	m, k := pa.m, pa.k
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 || k == 0 {
		scaleCols(m, n, beta, c, ldc)
		return
	}
	ncbMax := min(n, gemmNC)
	kbMax := min(k, gemmKC)
	bbuf := pool.Get(((ncbMax + gemmNR - 1) / gemmNR) * gemmNR * kbMax)
	defer pool.Put(bbuf)
	for jc := 0; jc < n; jc += gemmNC {
		ncb := min(gemmNC, n-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kb := min(gemmKC, k-pc)
			packB(transB, pc, jc, kb, ncb, b, ldb, bbuf)
			if pc == 0 {
				scaleCols(m, ncb, beta, c[jc*ldc:], ldc)
			}
			for ic := 0; ic < m; ic += gemmMC {
				mb := min(gemmMC, m-ic)
				macroKernel(pa, pc, kb, ic, mb, bbuf, ncb, alpha, c[ic+jc*ldc:], ldc)
			}
		}
	}
}

// macroKernel multiplies one MC×KC block of packed A against one KC×NC
// block of packed B, updating C(ic:ic+mb, jc:jc+ncb) micro-tile by
// micro-tile.
func macroKernel(pa *PackedA, pc, kb, ic, mb int, bbuf []float64, ncb int, alpha float64, c []float64, ldc int) {
	for jr := 0; jr < ncb; jr += gemmNR {
		nr := min(gemmNR, ncb-jr)
		bp := bbuf[(jr/gemmNR)*gemmNR*kb:]
		for ir := 0; ir < mb; ir += gemmMR {
			mr := min(gemmMR, mb-ir)
			ap := pa.buf[((ic+ir)/gemmMR)*gemmMR*pa.k+pc*gemmMR:]
			microTile(kb, ap, bp, c[ir+jr*ldc:], ldc, mr, nr, alpha)
		}
	}
}

// microTile updates the valid mr×nr corner of one micro-tile of C through
// the selected kernel. An assembly kernel always computes a full 24×8 tile,
// so an edge tile runs through it on a stack copy of its valid region: the
// panels are zero padded, the padded lanes are discarded, and every element
// of C keeps the one arithmetic of the full tiles.
func microTile(kb int, ap, bp []float64, c []float64, ldc, mr, nr int, alpha float64) {
	if kernel == kernelGeneric {
		ukernelGeneric(kb, ap, bp, c, ldc, mr, nr, alpha)
		return
	}
	if mr == gemmMR && nr == gemmNR {
		ukernelAsm(kernel, kb, ap, bp, c, ldc, alpha)
		return
	}
	var tile [gemmMR * gemmNR]float64
	for j := 0; j < nr; j++ {
		copy(tile[j*gemmMR:j*gemmMR+mr], c[j*ldc:j*ldc+mr])
	}
	ukernelAsm(kernel, kb, ap, bp, tile[:], gemmMR, alpha)
	for j := 0; j < nr; j++ {
		copy(c[j*ldc:j*ldc+mr], tile[j*gemmMR:j*gemmMR+mr])
	}
}

// ukernelGeneric is the portable micro-kernel and the bitwise reference of
// the assembly ones: each element of the mr×nr tile is one math.FMA chain
// over the kb packed k steps in k order, starting from zero, folded into C
// as c = fma(alpha, acc, c). It runs a row of the tile at a time, eight
// independent column chains in registers (the padded columns of an edge
// tile are computed on the zero padding and dropped). It is the kernel on
// hosts without AVX2.
func ukernelGeneric(kb int, ap, bp []float64, c []float64, ldc, mr, nr int, alpha float64) {
	ap = ap[: kb*gemmMR : kb*gemmMR]
	bp = bp[: kb*gemmNR : kb*gemmNR]
	for r := 0; r < mr; r++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for l := 0; l < kb; l++ {
			av := ap[l*gemmMR+r]
			b := bp[l*gemmNR : l*gemmNR+gemmNR : l*gemmNR+gemmNR]
			s0 = math.FMA(av, b[0], s0)
			s1 = math.FMA(av, b[1], s1)
			s2 = math.FMA(av, b[2], s2)
			s3 = math.FMA(av, b[3], s3)
			s4 = math.FMA(av, b[4], s4)
			s5 = math.FMA(av, b[5], s5)
			s6 = math.FMA(av, b[6], s6)
			s7 = math.FMA(av, b[7], s7)
		}
		acc := [gemmNR]float64{s0, s1, s2, s3, s4, s5, s6, s7}
		for j, s := range acc[:nr] {
			c[r+j*ldc] = math.FMA(alpha, s, c[r+j*ldc])
		}
	}
}
