package lapack

import "tridiag/internal/pool"

// SortOrder is the first half of a D&C solve's closing sort (the paper's
// SortEigenvectors): it puts d[0:n] in ascending order and scales it back
// by scale (the solve's orgnrm, 1 for none). The order is LAPACK DSTEDC's
// two steps folded into one permutation: the gather through the root
// merge's indxq (new position i receives old position indxq[i]), then the
// insertion pass that swaps the few-ulp inversions the secular roots of
// tight clusters can leave, each swap applied to the permutation instead of
// to two columns of q. On return indxq[i] names the column of q that holds
// d[i]'s eigenvector, which is what NewFinalSort takes. The values-only
// lane calls it alone. d is sorted before it is scaled, so the comparisons
// are LAPACK's.
func SortOrder(n int, d []float64, indxq []int, scale float64) {
	tmp := pool.Get(n)
	defer pool.Put(tmp)
	for i, j := range indxq[:n] {
		tmp[i] = d[j]
	}
	copy(d[:n], tmp[:n])
	for i := 1; i < n; i++ {
		for j := i; j > 0 && d[j] < d[j-1]; j-- {
			d[j], d[j-1] = d[j-1], d[j]
			indxq[j], indxq[j-1] = indxq[j-1], indxq[j]
		}
	}
	if scale != 1 {
		Dlascl(n, 1, 1, scale, d, n)
	}
}

// FinalSort is the second half of the closing sort: it moves the columns
// of q in place into the order SortOrder chose, so that the structural
// zeros the spans stand for become real ones. Each destination column gets
// its source's span rows, and +0 over the rows it may still hold outside
// them. On a caller's q those are all of its rows, since a reused q may
// hold anything: each moved column is written in full and a column that
// stays gets +0 outside its span. On a clean q, one that is +0 outside
// every column's span (a q the solve allocated, DESIGN.md §12), they are
// the old vector's span rows only, and a column that stays is not touched.
//
// The permutation is applied by following its cycles (O(n) scratch, no n×n
// shadow copy), split into segments that may run concurrently: the plan
// (NewFinalSort) lists the columns in cycle order and cuts that list into
// equal runs. A run that starts inside a cycle would overwrite the vector
// its predecessor run's last write reads, and the run holding the cycle's
// head overwrites the vector the cycle's closing write reads, so the plan
// saves those vectors first (at most two per cut). A cycle that lies
// inside one run needs no help: the run keeps its head in a pooled column
// buffer, as the serial cycle walk does. Call Release once every segment
// has run, or abandoned, to return the saved vectors to the pool.
type FinalSort struct {
	n, ldq int
	q      []float64
	sp     []Span
	perm   []int       // destination column i receives the vector in column perm[i]
	ord    []int       // the columns in cycle order: c, perm[c], perm[perm[c]], ...
	seg    []int       // segment s writes the destination columns ord[seg[s]:seg[s+1]]
	heads  []int       // the columns whose vectors the plan saved
	saved  [][]float64 // saved[h] holds heads[h]'s span rows, at their row positions
	clean  bool        // q is +0 outside every column's span
}

// NewFinalSort plans the column permutation perm (destination column i
// receives the vector in column perm[i]) of the n×n matrix q, whose column
// j is valid on rows sp[j], as segs segments. clean says that q is +0
// outside every column's span, so only span rows need writing. It reads q
// (the vectors it saves) and keeps q, sp and perm, which must stay
// unchanged until every segment has run.
func NewFinalSort(n int, perm []int, q []float64, ldq int, sp []Span, segs int, clean bool) *FinalSort {
	fs := &FinalSort{n: n, ldq: ldq, q: q, sp: sp, perm: perm[:n],
		ord: make([]int, n), seg: make([]int, segs+1), clean: clean}
	for s := range fs.seg {
		fs.seg[s] = s * n / segs
	}
	seen := make([]bool, n)
	pos, b := 0, 1 // b indexes the next cut to look at
	for c0 := range n {
		if seen[c0] {
			continue
		}
		start := pos
		for c := c0; !seen[c]; c = perm[c] {
			seen[c] = true
			fs.ord[pos] = c
			pos++
		}
		// A cut strictly inside the cycle [start, pos) splits it.
		for ; b < segs && fs.seg[b] < pos; b++ {
			if fs.seg[b] > start {
				fs.save(fs.ord[fs.seg[b]])
				fs.save(fs.ord[start])
			}
		}
	}
	return fs
}

// save copies column c's span rows into a pooled buffer, once.
func (fs *FinalSort) save(c int) {
	if fs.savedVec(c) != nil {
		return
	}
	buf := pool.Get(fs.n)
	lo, hi := fs.sp[c].Lo, fs.sp[c].Hi
	copy(buf[lo:hi], fs.q[c*fs.ldq+lo:c*fs.ldq+hi])
	fs.heads = append(fs.heads, c)
	fs.saved = append(fs.saved, buf)
}

// savedVec returns the plan's saved copy of column c's vector, nil if the
// plan did not save it.
func (fs *FinalSort) savedVec(c int) []float64 {
	for h, hc := range fs.heads {
		if hc == c {
			return fs.saved[h]
		}
	}
	return nil
}

// Segment writes the destination columns of segment s and returns its
// work in entries: n per column on a caller's q, every entry of which it
// sets, and the entries it writes on a clean q. Segments write disjoint
// columns, and each reads from q only columns that it overwrites itself
// later, so they may run concurrently.
func (fs *FinalSort) Segment(s int) int64 {
	n, q, ldq, sp, perm, ord := fs.n, fs.q, fs.ldq, fs.sp, fs.perm, fs.ord
	a, b := fs.seg[s], fs.seg[s+1]
	var head []float64 // the vector heading a cycle that closes in this segment
	defer func() { pool.Put(head) }()
	open := -1 // the column whose vector head holds
	var words int64
	for t := a; t < b; t++ {
		dst := ord[t]
		src := perm[dst]
		col := q[dst*ldq : dst*ldq+n]
		var from []float64 // nil when the vector is already in place
		if src != dst {
			if (t == a || perm[ord[t-1]] != dst) && fs.savedVec(dst) == nil {
				// dst heads a cycle that closes inside this segment: keep its
				// vector for the closing write.
				if head == nil {
					head = pool.Get(n)
				}
				hl, hh := sp[dst].Lo, sp[dst].Hi
				copy(head[hl:hh], col[hl:hh])
				open = dst
			}
			switch {
			case t+1 < b && ord[t+1] == src:
				from = q[src*ldq : src*ldq+n] // overwritten by this segment's next step
			case src == open:
				from = head
			default:
				from = fs.savedVec(src)
			}
		}
		// The rows col may hold outside the new span: the old vector's span
		// on a clean q, every row on a caller's.
		old := Span{0, n}
		if fs.clean {
			old = sp[dst]
		}
		lo, hi := sp[src].Lo, sp[src].Hi
		words += int64(clearExcept(col, old, lo, hi))
		if from != nil {
			copy(col[lo:hi], from[lo:hi])
			words += int64(hi - lo)
		}
	}
	if !fs.clean {
		return int64(n) * int64(b-a)
	}
	return words
}

// Release returns the plan's saved vectors to the pool. It is idempotent.
func (fs *FinalSort) Release() {
	for _, buf := range fs.saved {
		pool.Put(buf)
	}
	fs.heads, fs.saved = nil, nil
}
