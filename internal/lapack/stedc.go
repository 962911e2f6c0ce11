package lapack

import (
	"fmt"
	"math"

	"tridiag/internal/pool"
)

// Dlaed1 performs one merge step of the divide & conquer algorithm
// (LAPACK DLAED1, tridiagonal eigenvector case): the two solved subproblems
// d[0:cutpnt]/d[cutpnt:n] with block-diagonal eigenvectors in w (n = w.N)
// are combined through the rank-one modification with weight rho.
//
// On exit d[0:k] and w's first k columns hold the secular eigenpairs, the
// deflated pairs sit in the columns Deflation.Slot names, w's spans
// describe the new columns, and indxq is the permutation sorting d
// ascending. gemm may be nil (serial) or a parallel substitute.
func Dlaed1(w Window, cutpnt int, d []float64, indxq []int, rho float64, gemm GemmFunc) error {
	n := w.N
	if cutpnt < 1 || cutpnt >= n {
		return fmt.Errorf("lapack: Dlaed1: invalid cutpnt %d of %d", cutpnt, n)
	}
	z := pool.Get(n)
	defer pool.Put(z)
	w.FormZ(cutpnt, z)

	df, err := Dlaed2Deflate(w, cutpnt, d, indxq, rho, z)
	if err != nil {
		return err
	}
	if df.K == 0 {
		df.MergeOrder(d, indxq)
		return nil
	}
	k := df.K
	ws := NewMergeWorkspace(df)
	defer ws.Release()
	df.PermutePanel(w, ws, 0, k)

	// The roots as (org, tau) pairs, Gu's product, and FinishW's grouped ẑ
	// and poles.
	sec := pool.Get(5 * k)
	defer pool.Put(sec)
	porg, ptau, wloc := sec[:k], sec[k:2*k], sec[2*k:3*k]
	what, poles := sec[3*k:4*k], sec[4*k:5*k]
	if _, _, err := df.SecularPanel(d, porg, ptau, 0, k); err != nil {
		return err
	}
	for i := range wloc {
		wloc[i] = 1
	}
	df.LocalWPanel(porg, ptau, wloc, 0, k)
	df.FinishW(what, poles, wloc)
	df.VectorsPanel(ws.S, what, poles, porg, ptau, 0, k)
	df.CopyBackPanel(w, d, 0, k)
	df.UpdatePanel(w, ws, 0, k, gemm)
	df.MergeOrder(d, indxq)
	return nil
}

// DCConfig tunes the divide & conquer drivers.
type DCConfig struct {
	// SmallSize is the leaf cutoff (the paper's "minimal partition size"):
	// subproblems of at most this size are solved directly by Dsteqr.
	SmallSize int
	// Gemm substitutes the matrix-product kernel of the merge update; nil
	// means the serial blas.Dgemm. Vendor-library behaviour (fork/join
	// multithreaded BLAS under a sequential algorithm) is modelled by
	// passing a parallel GEMM here.
	Gemm GemmFunc
	// Progress, when non-nil, is called after every leaf solve and every
	// merge: the heartbeat a no-progress watchdog listens for.
	Progress func()
}

func (c *DCConfig) smallSize() int {
	if c == nil || c.SmallSize < 2 {
		return 25
	}
	return c.SmallSize
}

func (c *DCConfig) gemm() GemmFunc {
	if c == nil {
		return nil
	}
	return c.Gemm
}

func (c *DCConfig) progress() {
	if c != nil && c.Progress != nil {
		c.Progress()
	}
}

// Dstedc computes all eigenvalues and eigenvectors of a symmetric
// tridiagonal matrix using the divide & conquer method (LAPACK
// DSTEDC/DLAED0, sequential task order). On exit d holds the ascending
// eigenvalues, q (n×n) the eigenvectors; e is destroyed. The entry
// contents of q are ignored: callers may reuse a dirty workspace, and
// every entry of q is written. On a non-nil error the contents of d and q
// are unspecified.
func Dstedc(n int, d, e []float64, q []float64, ldq int, cfg *DCConfig) error {
	if n < 0 {
		return fmt.Errorf("lapack: Dstedc: negative n")
	}
	if n == 0 {
		return nil
	}
	if ldq < n {
		return fmt.Errorf("lapack: Dstedc: ldq=%d < n=%d", ldq, n)
	}
	smlsiz := cfg.smallSize()
	if n <= smlsiz {
		return Dsteqr(CompIdentity, n, d, e, q, ldq)
	}

	// Scale the matrix to unit max-norm.
	orgnrm := Dlanst('M', n, d, e)
	if orgnrm == 0 {
		// Zero matrix: eigenvalues are zero, eigenvectors the identity.
		for j := 0; j < n; j++ {
			col := q[j*ldq : j*ldq+n]
			for i := range col {
				col[i] = 0
			}
			col[j] = 1
		}
		return nil
	}
	Dlascl(n, 1, orgnrm, 1, d, n)
	Dlascl(n-1, 1, orgnrm, 1, e, n-1)

	sizes := PartitionSizes(n, smlsiz)
	// Subtract the rank-one coupling at each internal boundary.
	starts := make([]int, len(sizes)+1)
	for i, s := range sizes {
		starts[i+1] = starts[i] + s
	}
	for _, b := range starts[1 : len(starts)-1] {
		ae := math.Abs(e[b-1])
		d[b-1] -= ae
		d[b] -= ae
	}

	// Solve the leaf subproblems; a QR non-convergence on a leaf retries
	// via Dsterf + inverse iteration instead of failing the whole solve. A
	// leaf's columns are valid on its block's rows only (sp): the rest of
	// q is never zeroed, the merge kernels read 0 there, and the final sort
	// writes +0 there.
	indxq := make([]int, n)
	sp := make([]Span, n)
	for i, st := range starts[:len(starts)-1] {
		sz := sizes[i]
		for j := st; j < st+sz; j++ {
			sp[j] = Span{st, st + sz}
		}
		if _, err := DsteqrRobust(sz, d[st:st+sz], e[st:st+max(sz-1, 0)], q[st+st*ldq:], ldq); err != nil {
			return fmt.Errorf("leaf [%d,%d): %w", st, st+sz, err)
		}
		for j := 0; j < sz; j++ {
			indxq[st+j] = j
		}
		cfg.progress()
	}

	// Merge pairwise, bottom-up.
	for len(sizes) > 1 {
		var nsizes []int
		var nstarts []int
		for i := 0; i+1 < len(sizes); i += 2 {
			st := starts[i]
			cut := sizes[i]
			msz := sizes[i] + sizes[i+1]
			rho := e[st+cut-1]
			if err := Dlaed1(NewWindow(q, ldq, sp, st, msz), cut, d[st:st+msz], indxq[st:st+msz], rho, cfg.gemm()); err != nil {
				return fmt.Errorf("merge [%d,%d): %w", st, st+msz, err)
			}
			cfg.progress()
			nsizes = append(nsizes, msz)
			nstarts = append(nstarts, st)
		}
		if len(sizes)%2 == 1 {
			nsizes = append(nsizes, sizes[len(sizes)-1])
			nstarts = append(nstarts, starts[len(sizes)-1])
		}
		sizes = nsizes
		starts = append(nstarts, n)
	}

	// Final sort into ascending order (the paper's SortEigenvectors task),
	// one segment.
	SortOrder(n, d, indxq, orgnrm)
	fs := NewFinalSort(n, indxq, q, ldq, sp, 1)
	defer fs.Release()
	fs.Segment(0)
	return nil
}

// PartitionSizes splits n into the leaf sizes of the D&C tree by repeated
// halving until every piece is at most smlsiz (LAPACK DLAED0 partitioning:
// all leaves end up within a factor of two of each other).
func PartitionSizes(n, smlsiz int) []int {
	sizes := []int{n}
	for sizes[len(sizes)-1] > smlsiz {
		next := make([]int, 0, 2*len(sizes))
		for _, s := range sizes {
			next = append(next, s/2, (s+1)/2)
		}
		sizes = next
		// All entries halve together (LAPACK semantics): loop condition
		// checks the largest, which is the last (ceil halves go second).
	}
	return sizes
}
