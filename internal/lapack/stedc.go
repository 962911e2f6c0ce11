package lapack

import (
	"fmt"
	"math"
)

// Dlaed1 performs one merge step of the divide & conquer algorithm
// (LAPACK DLAED1, tridiagonal eigenvector case): the two solved subproblems
// d[0:cutpnt]/d[cutpnt:n] with block-diagonal eigenvectors in w (n = w.N)
// are combined through the rank-one modification with weight rho, by an
// unchecked Merge run inline.
//
// On exit d[0:k] and w's first k columns hold the secular eigenpairs, the
// deflated pairs sit in the columns Deflation.Slot names, w's spans
// describe the new columns, and indxq is the permutation sorting d
// ascending. gemm may be nil (serial) or a parallel substitute.
func Dlaed1(w Window, cutpnt int, d []float64, indxq []int, rho float64, gemm GemmFunc) error {
	if cutpnt < 1 || cutpnt >= w.N {
		return fmt.Errorf("lapack: Dlaed1: invalid cutpnt %d of %d", cutpnt, w.N)
	}
	_, err := NewVectorMerge(w, cutpnt, d, indxq, MergeConfig{Gemm: gemm}).Run(rho)
	return err
}

// DefaultSmallSize is the sequential drivers' default leaf cutoff, LAPACK's
// SMLSIZ.
const DefaultSmallSize = 25

// DCConfig tunes the divide & conquer drivers.
type DCConfig struct {
	// SmallSize is the leaf cutoff (the paper's "minimal partition size"):
	// subproblems of at most this size are solved directly by Dsteqr
	// (default DefaultSmallSize).
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
		return DefaultSmallSize
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

// DCRun is one checked run of a sequential driver (DstedcChecked,
// DstedcCarrier): the task flow's leaf task passes one so that the merges
// inside its leaf keep the flow's checks and reach its statistics. Its
// merges are checked (MergeConfig.Checked), and the first failed check
// fails the driver with its error. Plain Dstedc and Dlaed1 run no checks.
type DCRun struct {
	// Corrupt, when non-nil, is every merge's fault hook
	// (MergeConfig.Corrupt).
	Corrupt func(class string, data []float64)

	// Filled in by the driver.
	Merges   []MergeRecord // one per merge that ran, in order
	Ops      int64         // Σ m³ over the QR leaves plus the merges' step counts
	FellBack int           // QR leaves retried through Dsterf + inverse iteration
}

// leaf counts one QR leaf of m rows.
func (r *DCRun) leaf(m int, fellBack bool) {
	if r == nil {
		return
	}
	r.Ops += int64(m) * int64(m) * int64(m)
	if fellBack {
		r.FellBack++
	}
}

// merged files merge m's record and its steps' count.
func (r *DCRun) merged(m *Merge, ops int64) {
	if r != nil {
		r.Merges = append(r.Merges, m.Record())
		r.Ops += ops
	}
}

// dcLane is what the sequential driver's two lanes do differently: the
// eigenvector lane (Dstedc) keeps the vectors in q, the carrier lane
// (DstedcCarrier) only their first and last rows.
type dcLane interface {
	// leaf solves block [st, st+sz) of (d, e) in place: eigenvalues
	// ascending, the lane's vectors in the same order.
	leaf(d, e []float64, st, sz int) (fellBack bool, err error)
	// merge returns the lane's merge of the solved blocks [st, st+n1) and
	// [st+n1, st+len(d)), whose eigenvalues and order are d and indxq.
	merge(d []float64, indxq []int, st, n1 int, cfg MergeConfig) *Merge
	// sort puts d[0:n] in ascending order through indxq, scales it back by
	// orgnrm and moves the vectors along.
	sort(n int, d []float64, indxq []int, orgnrm float64)
	// identity sets the vectors of the zero matrix.
	identity(n int)
}

// dcSolve is the sequential divide and conquer (LAPACK DSTEDC/DLAED0 in
// sequential task order) over one lane: scale, tear at every internal
// boundary, solve the leaves, merge pairwise bottom-up, sort. A matrix of
// at most the leaf cutoff is one leaf, solved unscaled.
func dcSolve(n int, d, e []float64, cfg *DCConfig, lane dcLane, run *DCRun) error {
	smlsiz := cfg.smallSize()
	if n <= smlsiz {
		fellBack, err := lane.leaf(d, e, 0, n)
		run.leaf(n, fellBack)
		return err
	}

	// Scale the matrix to unit max-norm.
	orgnrm := Dlanst('M', n, d, e)
	if orgnrm == 0 {
		lane.identity(n)
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
	// via Dsterf + inverse iteration instead of failing the whole solve.
	indxq := make([]int, n)
	for i, st := range starts[:len(starts)-1] {
		sz := sizes[i]
		fellBack, err := lane.leaf(d, e, st, sz)
		run.leaf(sz, fellBack)
		if err != nil {
			return fmt.Errorf("leaf [%d,%d): %w", st, st+sz, err)
		}
		for j := 0; j < sz; j++ {
			indxq[st+j] = j
		}
		cfg.progress()
	}

	// Merge pairwise, bottom-up; each merge runs its steps inline.
	mcfg := MergeConfig{Gemm: cfg.gemm()}
	if run != nil {
		mcfg.Checked, mcfg.Corrupt = true, run.Corrupt
	}
	for level := 1; len(sizes) > 1; level++ {
		var nsizes []int
		var nstarts []int
		for i := 0; i+1 < len(sizes); i += 2 {
			st := starts[i]
			cut := sizes[i]
			msz := sizes[i] + sizes[i+1]
			mcfg.Level = level
			m := lane.merge(d[st:st+msz], indxq[st:st+msz], st, cut, mcfg)
			ops, err := m.Run(e[st+cut-1])
			run.merged(m, ops)
			if err != nil {
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

	lane.sort(n, d, indxq, orgnrm)
	return nil
}

// Dstedc computes all eigenvalues and eigenvectors of a symmetric
// tridiagonal matrix using the divide & conquer method (LAPACK
// DSTEDC/DLAED0, sequential task order). On exit d holds the ascending
// eigenvalues, q (n×n) the eigenvectors; e is destroyed. The entry
// contents of q are ignored: callers may reuse a dirty workspace, and
// every entry of q is written. On a non-nil error the contents of d and q
// are unspecified.
func Dstedc(n int, d, e []float64, q []float64, ldq int, cfg *DCConfig) error {
	return DstedcChecked(n, d, e, q, ldq, cfg, nil)
}

// DstedcChecked is Dstedc with the merge checks of run (nil: none), which
// also collects the solve's merge records.
func DstedcChecked(n int, d, e []float64, q []float64, ldq int, cfg *DCConfig, run *DCRun) error {
	if n < 0 {
		return fmt.Errorf("lapack: Dstedc: negative n")
	}
	if n == 0 {
		return nil
	}
	if ldq < n {
		return fmt.Errorf("lapack: Dstedc: ldq=%d < n=%d", ldq, n)
	}
	return dcSolve(n, d, e, cfg, &vectorDC{q: q, ldq: ldq, sp: make([]Span, n)}, run)
}

// vectorDC is the eigenvector lane of the sequential driver. A leaf's
// columns are valid on its block's rows only (sp): the rest of q is never
// zeroed, the merge kernels read 0 there, and the final sort writes +0
// there.
type vectorDC struct {
	q   []float64
	ldq int
	sp  []Span
}

func (l *vectorDC) leaf(d, e []float64, st, sz int) (bool, error) {
	for j := st; j < st+sz; j++ {
		l.sp[j] = Span{st, st + sz}
	}
	return DsteqrRobust(sz, d[st:st+sz], e[st:st+max(sz-1, 0)], l.q[st+st*l.ldq:], l.ldq)
}

func (l *vectorDC) merge(d []float64, indxq []int, st, n1 int, cfg MergeConfig) *Merge {
	return NewVectorMerge(NewWindow(l.q, l.ldq, l.sp, st, len(d)), n1, d, indxq, cfg)
}

// sort is the paper's SortEigenvectors task in one segment.
func (l *vectorDC) sort(n int, d []float64, indxq []int, orgnrm float64) {
	SortOrder(n, d, indxq, orgnrm)
	fs := NewFinalSort(n, indxq, l.q, l.ldq, l.sp, 1, false)
	defer fs.Release()
	fs.Segment(0)
}

func (l *vectorDC) identity(n int) {
	for j := 0; j < n; j++ {
		col := l.q[j*l.ldq : j*l.ldq+n]
		clear(col)
		col[j] = 1
	}
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
