package blas

import "tridiag/internal/pool"

// Cache-blocking parameters of the BLIS-style GEMM (see DESIGN.md §9).
// The micro-kernel computes an MR×NR tile of C; the macro loops tile the
// operands so one packed A block (MC×KC, 288 KiB) stays L2-resident while a
// packed B block (KC×NC, ≤1 MiB) streams from L3, and every inner-loop
// access is contiguous. KC also fixes each element's summation order (one
// FMA chain per KC block), so it is part of the bitwise contract.
const (
	gemmMR = 24  // micro-tile rows (one kernel call covers 24×8 of C)
	gemmNR = 8   // micro-tile columns
	gemmMC = 144 // rows per A block; multiple of gemmMR
	gemmKC = 256 // depth per block
	gemmNC = 512 // columns per B block; multiple of gemmNR
)

// PackedA is op(A) repacked for the blocked GEMM: row micro-panels of
// gemmMR rows, each storing its gemmMR values per k step contiguously
// (zero padded past row m), so the micro-kernel streams A at unit stride.
// A PackedA may be shared by any number of concurrent PackedGemm calls —
// the paper's UpdateVect task group packs Q2 once per merge and lets all
// panel GEMMs of the merge reuse it.
type PackedA struct {
	m, k int
	buf  []float64 // ceil(m/MR) panels × k steps × MR values
	// chk, when non-nil, holds the ABFT checksum rows of the operand
	// (PackAChecked): chk[0:k] the column sums, chk[k:2k] the absolute
	// column sums the Verify rounding bound is built from.
	chk []float64
}

// PackA packs op(A) (m×k, op controlled by transA) into micro-panel form.
// The buffer comes from the scratch pool; call Release when no GEMM will
// use it again.
func PackA(transA bool, m, k int, a []float64, lda int) *PackedA {
	panels := (m + gemmMR - 1) / gemmMR
	pa := &PackedA{m: m, k: k, buf: pool.Get(panels * gemmMR * k)}
	for ip := 0; ip < panels; ip++ {
		i0 := ip * gemmMR
		rows := min(gemmMR, m-i0)
		dst := pa.buf[ip*gemmMR*k:]
		if !transA {
			// op(A)[i, l] = a[i + l*lda]: column slices copy contiguously.
			for l := 0; l < k; l++ {
				src := a[i0+l*lda : i0+l*lda+rows]
				d := dst[l*gemmMR : l*gemmMR+gemmMR]
				copy(d, src)
				for r := rows; r < gemmMR; r++ {
					d[r] = 0
				}
			}
		} else {
			// op(A)[i, l] = a[l + i*lda]: rows of op(A) are source columns.
			for r := 0; r < rows; r++ {
				src := a[(i0+r)*lda : (i0+r)*lda+k]
				for l := 0; l < k; l++ {
					dst[l*gemmMR+r] = src[l]
				}
			}
			for r := rows; r < gemmMR; r++ {
				for l := 0; l < k; l++ {
					dst[l*gemmMR+r] = 0
				}
			}
		}
	}
	return pa
}

// Dims returns the (m, k) shape of the packed operand.
func (pa *PackedA) Dims() (m, k int) { return pa.m, pa.k }

// Bytes returns the size of the packed buffer, for traffic accounting.
func (pa *PackedA) Bytes() int { return 8 * len(pa.buf) }

// Release returns the pack buffer (and any checksum rows) to the scratch
// pool. The PackedA must not be used afterwards.
func (pa *PackedA) Release() {
	pool.Put(pa.buf)
	pa.buf = nil
	pool.Put(pa.chk)
	pa.chk = nil
}

// packB packs op(B)(pc:pc+kb, jc:jc+nb) into column micro-panels of gemmNR
// columns, each storing its gemmNR values per k step contiguously (zero
// padded past column nb), into buf (ceil(nb/NR)*NR*kb floats).
func packB(transB bool, pc, jc, kb, nb int, b []float64, ldb int, buf []float64) {
	panels := (nb + gemmNR - 1) / gemmNR
	for jp := 0; jp < panels; jp++ {
		j0 := jp * gemmNR
		cols := min(gemmNR, nb-j0)
		dst := buf[jp*gemmNR*kb:]
		if !transB {
			// op(B)[l, j] = b[l + j*ldb]: source columns are contiguous.
			for jj := 0; jj < cols; jj++ {
				src := b[pc+(jc+j0+jj)*ldb : pc+(jc+j0+jj)*ldb+kb]
				for l, v := range src {
					dst[l*gemmNR+jj] = v
				}
			}
		} else {
			// op(B)[l, j] = b[j + l*ldb]: source rows are contiguous.
			for l := 0; l < kb; l++ {
				src := b[jc+j0+(pc+l)*ldb : jc+j0+(pc+l)*ldb+cols]
				copy(dst[l*gemmNR:l*gemmNR+cols], src)
			}
		}
		for jj := cols; jj < gemmNR; jj++ {
			for l := 0; l < kb; l++ {
				dst[l*gemmNR+jj] = 0
			}
		}
	}
}
