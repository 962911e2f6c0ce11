package lapack

import (
	"fmt"
	"math"

	"tridiag/internal/blas"
	"tridiag/internal/pool"
)

// Column types produced by the deflation scan, matching LAPACK DLAED2:
// type 1 columns are nonzero only in their first n1 rows (from the first
// subproblem), type 2 columns are dense (Givens-coupled across the cut),
// type 3 columns are nonzero only in their last n2 rows, and type 4 columns
// are deflated.
const (
	colTop = iota // 1 in LAPACK numbering
	colDense
	colBottom
	colDeflated
)

// Deflation holds the outcome of the deflation scan for one D&C merge: the
// size K of the surviving secular problem, the normalized rank-one weight
// Rho, the secular poles Dlamda and weights W (both ascending), the
// permutation that groups the eigenvector columns into the four type
// classes, and where each deflated vector ends up. It contains no
// eigenvector data; column movement is done separately (and, in the
// task-flow solver, per panel) via PermutePanel, CopyBackPanel and
// UpdatePanel.
//
// Deflated vectors are placed by index, not by copying them to a packed
// tail as LAPACK's DLAED2/DLAED3 do: the merge rewrites only columns [0, K)
// (UpdatePanel), so a deflated vector whose column is at or beyond K stays
// there, and one sitting below K moves once, to a column at or beyond K that
// a non-deflated vector vacated. MergeOrder then sorts the block through
// Slot, so the merged (λ, v) sequence is the one LAPACK's layout gives.
type Deflation struct {
	N, N1, K       int
	Rho            float64
	Dlamda         []float64 // len K: non-deflated eigenvalues, ascending
	W              []float64 // len K: secular weights (carry the original signs)
	Perm           []int     // len N: grouped position -> source column of Q
	GroupToSecular []int     // len K: grouped position -> secular index
	Ctot           [4]int    // column counts per type
	// DeflD holds the deflated eigenvalues, descending (LAPACK's tail
	// order; ascending when K == 0): DeflD[j] belongs to the vector in
	// source column Perm[K+j].
	DeflD []float64 // len N-K
	// Slot is the column deflated vector j ends up in: its own column
	// Perm[K+j] when that is at or beyond K, else a vacated column >= K.
	// When K == 0 it is Perm itself and nothing moves.
	Slot []int // len N-K
	// Move names, for each column below K, the deflated vector j sitting
	// there that must move out to Slot[j] before UpdatePanel overwrites the
	// column, or -1 when the column holds a non-deflated vector.
	Move []int // len K
}

// C12 returns the number of columns with a nonzero top block (types 1+2).
func (df *Deflation) C12() int { return df.Ctot[colTop] + df.Ctot[colDense] }

// C23 returns the number of columns with a nonzero bottom block (types 2+3).
func (df *Deflation) C23() int { return df.Ctot[colDense] + df.Ctot[colBottom] }

// Dlaed2Deflate performs the deflation phase of a D&C merge (LAPACK DLAED2
// without the eigenvector copies). On entry d[0:n1] and d[n1:n] hold the two
// children's eigenvalues, w is the merge's n×n block of the eigenvector
// matrix (block diagonal: every column's span lies in its child's rows),
// indxq sorts each child's eigenvalues ascending (second half holds indices
// local to the second child), rho is the off-diagonal coupling β, and z is
// the concatenation of the last row of Q1 and the first row of Q2
// (Window.FormZ).
//
// Givens rotations between deflatable close pairs are applied to w in place
// (Window.rot); z and d are used as scratch and destroyed.
func Dlaed2Deflate(w Window, n1 int, d []float64, indxq []int, rho float64, z []float64) (*Deflation, error) {
	return Dlaed2DeflateRot(w.N, n1, d, indxq, rho, z, w.rot)
}

// Dlaed2DeflateRot is Dlaed2Deflate with the eigenvector side effect
// abstracted: instead of rotating columns of an n×n q, each deflating pair
// (pj, nj) is reported to rot with its Givens coefficients. The full solver
// passes an n-length column rotation; the values-only lane rotates a 2-row
// first/last-row carrier instead, and the root merge (whose carrier is never
// consumed) passes nil to skip the work entirely. The scan itself — and the
// resulting d/z trajectory — is identical either way.
func Dlaed2DeflateRot(n, n1 int, d []float64, indxq []int, rho float64, z []float64, rot func(pj, nj int, c, s float64)) (*Deflation, error) {
	if n1 < 1 || n1 >= n {
		return nil, fmt.Errorf("lapack: Dlaed2Deflate: invalid cut %d of %d", n1, n)
	}
	n2 := n - n1
	df := &Deflation{
		N:              n,
		N1:             n1,
		Dlamda:         make([]float64, 0, n),
		W:              make([]float64, 0, n),
		Perm:           make([]int, n),
		GroupToSecular: nil,
	}

	// Normalize z to unit norm. z is the concatenation of two unit-norm
	// rows, so its norm is sqrt(2); a negative rho flips the second half.
	if rho < 0 {
		blas.Dscal(n2, -1, z[n1:], 1)
	}
	t := 1 / math.Sqrt2
	blas.Dscal(n, t, z, 1)
	rho = math.Abs(2 * rho)
	df.Rho = rho

	// Global indices for the second child's sorted order.
	for i := n1; i < n; i++ {
		indxq[i] += n1
	}

	// Merge the two sorted eigenvalue lists.
	dlamda := make([]float64, n) // scratch for the merged sort keys
	for i := 0; i < n; i++ {
		dlamda[i] = d[indxq[i]]
	}
	indxc := make([]int, n)
	Dlamrg(n1, n2, dlamda, 1, 1, indxc)
	indx := make([]int, n) // ascending order of all eigenvalues -> column
	for i := 0; i < n; i++ {
		indx[i] = indxq[indxc[i]]
	}

	// Deflation tolerance.
	imax := blas.Idamax(n, z, 1)
	jmax := blas.Idamax(n, d, 1)
	tol := 8 * Eps * math.Max(math.Abs(d[jmax]), math.Abs(z[imax]))

	coltyp := make([]int, n)
	for i := 0; i < n1; i++ {
		coltyp[i] = colTop
	}
	for i := n1; i < n; i++ {
		coltyp[i] = colBottom
	}

	indxp := make([]int, n) // positions 0..k-1 non-deflated asc; k..n-1 deflated desc
	k := 0
	k2 := n

	if rho*math.Abs(z[imax]) <= tol {
		// Everything deflates: columns are simply sorted ascending.
		df.K = 0
		df.DeflD = make([]float64, n)
		for j := 0; j < n; j++ {
			df.Perm[j] = indx[j]
			df.DeflD[j] = d[indx[j]]
			coltyp[indx[j]] = colDeflated
		}
		df.Ctot[colDeflated] = n
		df.GroupToSecular = []int{}
		df.Slot = df.Perm
		return df, nil
	}

	pj := -1
	for j := 0; j < n; j++ {
		nj := indx[j]
		if rho*math.Abs(z[nj]) <= tol {
			// Deflate due to small z component.
			k2--
			coltyp[nj] = colDeflated
			indxp[k2] = nj
			continue
		}
		if pj < 0 {
			pj = nj
			continue
		}
		// Check if the two eigenvalues are close enough to deflate.
		s := z[pj]
		c := z[nj]
		tau := Dlapy2(c, s)
		tdiff := d[nj] - d[pj]
		c /= tau
		s = -s / tau
		if math.Abs(tdiff*c*s) <= tol {
			// Deflation is possible: rotate the pair so z[pj] becomes 0.
			z[nj] = tau
			z[pj] = 0
			if coltyp[nj] != coltyp[pj] {
				coltyp[nj] = colDense
			}
			coltyp[pj] = colDeflated
			if rot != nil {
				rot(pj, nj, c, s)
			}
			t := d[pj]*c*c + d[nj]*s*s
			d[nj] = d[pj]*s*s + d[nj]*c*c
			d[pj] = t
			// Insert pj into the (descending) deflated tail, keeping order.
			k2--
			i := 0
			for {
				if k2+i+1 < n && d[pj] < d[indxp[k2+i+1]] {
					indxp[k2+i] = indxp[k2+i+1]
					i++
				} else {
					indxp[k2+i] = pj
					break
				}
			}
			pj = nj
		} else {
			// Record pj as a non-deflated eigenvalue.
			df.Dlamda = append(df.Dlamda, d[pj])
			df.W = append(df.W, z[pj])
			indxp[k] = pj
			k++
			pj = nj
		}
	}
	// Record the last non-deflated eigenvalue.
	df.Dlamda = append(df.Dlamda, d[pj])
	df.W = append(df.W, z[pj])
	indxp[k] = pj
	k++
	df.K = k

	// Count column types and compute the grouped permutation, which places
	// type-1 columns first, then type-2, type-3 and finally the deflated
	// type-4 columns.
	var ctot [4]int
	for _, js := range indxp[:k] {
		ctot[coltyp[js]]++
	}
	ctot[colDeflated] = n - k
	df.Ctot = ctot

	var psm [4]int
	psm[0] = 0
	psm[1] = ctot[0]
	psm[2] = ctot[0] + ctot[1]
	psm[3] = k
	df.GroupToSecular = make([]int, k)
	for j := 0; j < n; j++ {
		js := indxp[j]
		ct := coltyp[js]
		df.Perm[psm[ct]] = js
		if ct != colDeflated {
			df.GroupToSecular[psm[ct]] = j
		}
		psm[ct]++
	}

	// Deflated eigenvalues in their final order (descending).
	df.DeflD = make([]float64, n-k)
	for j := 0; j < n-k; j++ {
		df.DeflD[j] = d[df.Perm[k+j]]
	}

	// Placement: a deflated vector stays in its own column unless that is
	// below K; those take, in column order, the columns >= K that
	// non-deflated vectors vacate (there are exactly as many of each).
	// indxp is dead once Perm is built, so Slot and Move reuse it.
	df.Slot, df.Move = indxp[:n-k], indxp[n-k:]
	for c := range df.Move {
		df.Move[c] = -1
	}
	for j := range df.Slot {
		src := df.Perm[k+j]
		df.Slot[j] = src
		if src < k {
			df.Move[src] = j
		}
	}
	v := k
	for _, j := range df.Move {
		if j < 0 {
			continue
		}
		for coltyp[v] == colDeflated {
			v++
		}
		df.Slot[j] = v
		v++
	}
	return df, nil
}

// MergeWorkspace holds the compressed eigenvector storage for one merge:
// Q2Top packs the first n1 rows of the grouped type-1 and type-2 columns,
// Q2Bot the last n2 rows of the type-2 and type-3 columns, and S the k×k
// matrix of secular eigenvectors, each column written once by VectorsPanel
// (LAPACK stores Dlaed4's delta columns there first; this solver carries
// each root as two doubles instead, see SecularPanel). Deflated vectors
// need no buffer: they stay in q (see Deflation.Slot).
//
// PackTop/PackBot, when non-nil, hold Q2Top/Q2Bot repacked for the blocked
// GEMM (see Deflation.PackV): packed once per merge, shared read-only by
// every UpdateVect panel of that merge.
type MergeWorkspace struct {
	Q2Top   []float64 // n1 × c12
	Q2Bot   []float64 // n2 × c23
	S       []float64 // k × k
	PackTop *blas.PackedA
	PackBot *blas.PackedA
}

// NewMergeWorkspace takes buffers sized for the given deflation outcome
// from the scratch pool; contents are unspecified and every consumer fully
// overwrites what it reads. Call Release when the merge is finished to
// recycle the buffers.
func NewMergeWorkspace(df *Deflation) *MergeWorkspace {
	n1, n2 := df.N1, df.N-df.N1
	k := df.K
	return &MergeWorkspace{
		Q2Top: pool.Get(n1 * df.C12()),
		Q2Bot: pool.Get(n2 * df.C23()),
		S:     pool.Get(max(k*k, 1)),
	}
}

// Release returns the workspace buffers (and any packed operands) to the
// scratch pool. The workspace must not be used afterwards.
func (ws *MergeWorkspace) Release() {
	if ws.PackTop != nil {
		ws.PackTop.Release()
		ws.PackTop = nil
	}
	if ws.PackBot != nil {
		ws.PackBot.Release()
		ws.PackBot = nil
	}
	pool.Put(ws.Q2Top)
	pool.Put(ws.Q2Bot)
	pool.Put(ws.S)
	ws.Q2Top, ws.Q2Bot, ws.S = nil, nil, nil
}

// PermutePanel copies the non-deflated columns among grouped columns
// [g0, g1) of w into the compressed workspace (the paper's PermuteV task):
// the first n1 rows of type-1/2 columns into Q2Top, the last n2 rows of
// type-2/3 columns into Q2Bot. Only a column's span rows are read; the rest
// of its workspace slot gets +0. Deflated columns (g >= K) are not copied;
// they stay in w (see Slot). Returns the number of words written.
func (df *Deflation) PermutePanel(w Window, ws *MergeWorkspace, g0, g1 int) (words int) {
	n1 := df.N1
	n2 := df.N - n1
	c1 := df.Ctot[colTop]
	c12 := df.C12()
	for g := g0; g < min(g1, df.K); g++ {
		c := df.Perm[g]
		src := w.col(c)
		lo, hi := w.rows(c)
		if g < c12 {
			spanCopy(ws.Q2Top[g*n1:g*n1+n1], src, lo, hi)
			words += n1
		}
		if g >= c1 {
			spanCopy(ws.Q2Bot[(g-c1)*n2:(g-c1)*n2+n2], src[n1:], lo-n1, hi-n1)
			words += n2
		}
	}
	return words
}

// PermutedColumn returns the compressed-workspace destination of grouped
// column g — the region PermutePanel writes for it, nil for a deflated
// column. Fault-injection hooks use it to corrupt exactly the slice one
// PermuteV panel owns, without racing against concurrent panels writing
// their own columns. For type-2 columns (split across Q2Top and Q2Bot) the
// top half is returned.
func (df *Deflation) PermutedColumn(ws *MergeWorkspace, g int) []float64 {
	n1 := df.N1
	n2 := df.N - n1
	c1 := df.Ctot[colTop]
	switch {
	case g < df.C12():
		return ws.Q2Top[g*n1 : g*n1+n1]
	case g < df.K:
		return ws.Q2Bot[(g-c1)*n2 : (g-c1)*n2+n2]
	}
	return nil
}

// CopyBackPanel empties columns [c0, c1) ∩ [0, K) of w before UpdatePanel
// overwrites them (the paper's CopyBackDeflated task): each deflated vector
// sitting there moves, with its eigenvalue and its span, to its Slot
// column. Only the span rows are copied; the Slot column's other rows
// become structural zeros, and the rows of its old span that the new one
// does not cover get +0, so a q that was +0 outside every span stays so
// (DESIGN.md §12). That column held a non-deflated vector, so PermutePanel
// must have read it first. Deflated vectors at or beyond K never move.
// Returns the number of words copied.
func (df *Deflation) CopyBackPanel(w Window, d []float64, c0, c1 int) (words int) {
	for c := c0; c < min(c1, df.K); c++ {
		j := df.Move[c]
		if j < 0 {
			continue
		}
		s := df.Slot[j]
		lo, hi := w.rows(c)
		olo, ohi := w.rows(s)
		clearExcept(w.col(s), Span{olo, ohi}, lo, hi)
		copy(w.col(s)[lo:hi], w.col(c)[lo:hi])
		w.Sp[s] = w.Sp[c]
		d[s] = df.DeflD[j]
		words += hi - lo
	}
	return words
}

// MergeOrder builds indxq, the permutation sorting the merged block's
// eigenvalues ascending (the Dlamrg join), once the K secular roots sit in
// d[0:K] and each deflated eigenvalue in d[Slot[j]]. It merges the ascending
// roots with the deflated values taken from j = N-K-1 down to 0, the order
// Dlamrg(K, N-K, d, 1, -1) reads them in on LAPACK's layout, and keeps
// Dlamrg's tie rule: a root goes before an equal deflated value. When
// K == 0 the deflated values are already ascending and indxq is Slot.
func (df *Deflation) MergeOrder(d []float64, indxq []int) {
	k := df.K
	if k == 0 {
		copy(indxq, df.Slot)
		return
	}
	i, j := 0, len(df.Slot)-1
	for o := range indxq[:df.N] {
		if j < 0 || (i < k && d[i] <= d[df.Slot[j]]) {
			indxq[o] = i
			i++
		} else {
			indxq[o] = df.Slot[j]
			j--
		}
	}
}
