package lapack

import "tridiag/internal/blas"

// Span is the row range [Lo, Hi) of q on which one eigenvector column is
// valid. The D&C drivers keep one span per column of q: a leaf's columns
// start with the leaf's block, and a merge widens a column's span to the
// merge window when it rewrites the column (UpdatePanel, a deflation
// rotation). Rows outside the span are structural zeros. Their storage may
// hold anything, such as a reused workspace's old contents, and no kernel
// reads it: the merge kernels take 0 there, and the closing sort
// (FinalSort) writes +0 there.
type Span struct{ Lo, Hi int }

// Window is the n×n diagonal block of q that one merge works on: rows and
// columns [Off, Off+N) of q, with the spans of its columns (Sp[c] belongs
// to the block's column c and counts rows of the whole q).
type Window struct {
	N, Off int
	Q      []float64 // q from the block's top-left entry on
	LDQ    int
	Sp     []Span
}

// NewWindow returns the n×n block of q at row and column off; sp holds the
// spans of all of q's columns.
func NewWindow(q []float64, ldq int, sp []Span, off, n int) Window {
	return Window{N: n, Off: off, Q: q[off+off*ldq:], LDQ: ldq, Sp: sp[off : off+n]}
}

// rows returns the valid rows of column c, counted from the block's first
// row.
func (w Window) rows(c int) (lo, hi int) {
	return w.Sp[c].Lo - w.Off, w.Sp[c].Hi - w.Off
}

// col returns column c of the block.
func (w Window) col(c int) []float64 { return w.Q[c*w.LDQ : c*w.LDQ+w.N] }

// widen sets column c's span to the whole window.
func (w Window) widen(c int) { w.Sp[c] = Span{w.Off, w.Off + w.N} }

// FormZ forms a merge's z vector: the last row of the left child's block
// (row n1-1) over columns [0, n1), then the first row of the right child's
// (row n1) over columns [n1, N). A row outside a column's span reads 0.
func (w Window) FormZ(n1 int, z []float64) {
	for c := range z[:w.N] {
		r := n1
		if c < n1 {
			r = n1 - 1
		}
		if lo, hi := w.rows(c); r >= lo && r < hi {
			z[c] = w.Q[r+c*w.LDQ]
		} else {
			z[c] = 0
		}
	}
}

// rot applies a deflation rotation to columns pj and nj over the whole
// window, as DLAED2 does. It first writes +0 over both columns' rows
// outside their spans, so the rotation sees the zeros the spans stand for
// and produces the same bits (a zero times a negative c or s rounds to −0,
// which a rotation over the spans alone would not reproduce), then widens
// both spans to the window.
func (w Window) rot(pj, nj int, c, s float64) {
	x, y := w.col(pj), w.col(nj)
	lo, hi := w.rows(pj)
	clearOutside(x, lo, hi)
	lo, hi = w.rows(nj)
	clearOutside(y, lo, hi)
	blas.Drot(w.N, x, 1, y, 1, c, s)
	w.widen(pj)
	w.widen(nj)
}

// clearOutside writes +0 over col outside rows [lo, hi) (clipped to col).
func clearOutside(col []float64, lo, hi int) {
	clearExcept(col, Span{0, len(col)}, lo, hi)
}

// clearExcept writes +0 over the rows of old that lie outside [lo, hi),
// both clipped to col, and returns how many entries it wrote. On a column
// that is +0 outside old, that leaves it +0 outside [lo, hi).
func clearExcept(col []float64, old Span, lo, hi int) int {
	a, b := max(old.Lo, 0), min(old.Hi, len(col))
	if a >= b {
		return 0
	}
	lo, hi = max(lo, a), min(hi, b)
	if lo >= hi {
		clear(col[a:b])
		return b - a
	}
	clear(col[a:lo])
	clear(col[hi:b])
	return lo - a + b - hi
}

// spanCopy writes src's rows [lo, hi) (clipped to dst) into dst and +0 over
// the rest of dst.
func spanCopy(dst, src []float64, lo, hi int) {
	clearOutside(dst, lo, hi)
	lo, hi = max(lo, 0), min(hi, len(dst))
	if lo < hi {
		copy(dst[lo:hi], src[lo:hi])
	}
}
