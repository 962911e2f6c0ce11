package mrrr

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"tridiag/internal/lapack"
)

// Options tunes the MRRR solver.
type Options struct {
	// Workers bounds the number of concurrently processed subtrees /
	// eigenvalue chunks (<=0: 1). The parallelization mirrors MR³-SMP:
	// independent representation-tree nodes and eigenvector computations
	// are tasks over a bounded pool.
	Workers int
	// MinRelGap is the relative gap below which eigenvalues are considered
	// clustered (MR³'s minrgp, default 1e-3).
	MinRelGap float64
	// MaxDepth bounds the representation tree depth before falling back to
	// inverse iteration (default 10).
	MaxDepth int
}

func (o *Options) withDefaults() Options {
	var v Options
	if o != nil {
		v = *o
	}
	if v.Workers < 1 {
		v.Workers = 1
	}
	if v.MinRelGap <= 0 {
		v.MinRelGap = 1e-3
	}
	if v.MaxDepth < 1 {
		v.MaxDepth = 10
	}
	return v
}

// pool runs closures on at most cap workers; recursive submission degrades
// to inline execution, so bounded recursion cannot deadlock.
type pool struct {
	sem chan struct{}
	wg  sync.WaitGroup
}

func newPool(workers int) *pool { return &pool{sem: make(chan struct{}, workers)} }

func (p *pool) do(f func()) {
	select {
	case p.sem <- struct{}{}:
		p.wg.Add(1)
		go func() {
			defer func() { <-p.sem; p.wg.Done() }()
			f()
		}()
	default:
		f()
	}
}

func (p *pool) wait() { p.wg.Wait() }

// Solve computes all eigenvalues and eigenvectors of the symmetric
// tridiagonal matrix (d, e) by the MRRR algorithm: on exit w holds the
// ascending eigenvalues and z (n×n, leading dimension ldz) the
// corresponding eigenvectors. d and e are not modified.
func Solve(n int, d, e []float64, w []float64, z []float64, ldz int, opts *Options) error {
	o := opts.withDefaults()
	if n < 0 {
		return fmt.Errorf("mrrr: negative n")
	}
	if n == 0 {
		return nil
	}
	if ldz < n {
		return fmt.Errorf("mrrr: ldz=%d < n=%d", ldz, n)
	}
	for j := 0; j < n; j++ {
		col := z[j*ldz : j*ldz+n]
		for i := range col {
			col[i] = 0
		}
	}

	// Split into unreduced blocks at negligible off-diagonals.
	type block struct{ start, size int }
	var blocks []block
	bs := 0
	for i := 0; i < n-1; i++ {
		if math.Abs(e[i]) <= lapack.Eps*(math.Sqrt(math.Abs(d[i]))*math.Sqrt(math.Abs(d[i+1]))) {
			blocks = append(blocks, block{bs, i + 1 - bs})
			bs = i + 1
		}
	}
	blocks = append(blocks, block{bs, n - bs})

	p := newPool(o.Workers)
	var mu sync.Mutex
	var firstErr error
	for _, b := range blocks {
		b := b
		p.do(func() {
			err := solveBlock(b.size, d[b.start:b.start+b.size], e[b.start:], w[b.start:b.start+b.size],
				z[b.start+b.start*ldz:], ldz, &o, p)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("block [%d,%d): %w", b.start, b.start+b.size, err)
				}
				mu.Unlock()
			}
		})
	}
	p.wait()
	if firstErr != nil {
		return firstErr
	}

	// Merge the blocks into globally ascending order.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return w[idx[a]] < w[idx[b]] })
	wt := make([]float64, n)
	zt := make([]float64, n*n)
	for i, j := range idx {
		wt[i] = w[j]
		copy(zt[i*n:i*n+n], z[j*ldz:j*ldz+n])
	}
	copy(w, wt)
	for i := 0; i < n; i++ {
		copy(z[i*ldz:i*ldz+n], zt[i*n:i*n+n])
	}
	return nil
}

// repNode is one node of the representation tree: an LDLᵀ factorization of
// T - sigma*I, valid for a contiguous group of eigenvalue indices.
type repNode struct {
	dd, ll []float64
	sigma  float64 // accumulated shift relative to the original block
}

// qrFallback lazily computes one full QR eigendecomposition of a block,
// shared by every pathological cluster that needs the robust fallback.
type qrFallback struct {
	once sync.Once
	n    int
	d, e []float64
	lam  []float64
	q    []float64
	err  error
}

func (f *qrFallback) get() ([]float64, []float64, error) {
	f.once.Do(func() {
		f.lam = append([]float64(nil), f.d[:f.n]...)
		ee := append([]float64(nil), f.e[:max(f.n-1, 0)]...)
		f.q = make([]float64, f.n*f.n)
		f.err = lapack.Dsteqr(lapack.CompIdentity, f.n, f.lam, ee, f.q, f.n)
	})
	return f.lam, f.q, f.err
}

func solveBlock(n int, d, e []float64, w []float64, z []float64, ldz int, o *Options, p *pool) error {
	if n == 1 {
		w[0] = d[0]
		z[0] = 1
		return nil
	}
	gl, gu := gerschgorin(n, d, e)
	spdiam := gu - gl
	pmin := pivmin(n, e)
	atol := 2 * lapack.Ulp * math.Max(math.Abs(gl), math.Abs(gu))

	// Root representation: T - sigma*I positive definite, sigma just below
	// the spectrum.
	sigma := gl - spdiam*1e-3
	dd := make([]float64, n)
	ll := make([]float64, n-1)
	ok := false
	for try := 0; try < 8; try++ {
		if factorLDL(n, d, e, sigma, dd, ll) && allPositive(dd) {
			ok = true
			break
		}
		sigma -= spdiam * (1e-3 * float64(try+1))
	}
	if !ok {
		return fmt.Errorf("mrrr: could not form a positive definite root representation")
	}
	root := &repNode{dd: dd, ll: ll, sigma: sigma}

	// Eigenvalues of the root representation by dqds (LAPACK DLASQ's role in
	// DSTEMR): fast and accurate to high relative precision, so no bisection
	// refinement is needed before clustering. Falls back to bisection if the
	// qd iteration fails.
	lam := make([]float64, n)
	if err := rootEigenDqds(n, root, lam); err != nil {
		atolInit := math.Max(spdiam*1e-6, atol)
		countT := func(x float64) int { return negcountT(n, d, e, x, pmin) }
		countRoot := func(x float64) int { return negcountLDL(n, root.dd, root.ll, x, pmin) }
		h0 := 2*atolInit + spdiam*8*lapack.Eps
		chunk := max(1, n/(4*o.Workers))
		var wg sync.WaitGroup
		for c0 := 0; c0 < n; c0 += chunk {
			c0 := c0
			c1 := min(c0+chunk, n)
			wg.Add(1)
			p.do(func() {
				defer wg.Done()
				for i := c0; i < c1; i++ {
					x := bisectEig(i, gl, gu, atolInit, 1e-8, countT) - sigma
					lam[i] = refineEig(i, x, h0, atol/4, 8*lapack.Eps, countRoot)
				}
			})
		}
		wg.Wait()
	}

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// The dqds eigenvalues are already accurate relative to the root
	// representation, so root-level singletons skip re-refinement.
	fb := &qrFallback{n: n, d: d, e: e}
	return processNode(n, d, e, root, idx, lam, w, z, ldz, o, p, 0, spdiam, pmin, false, fb)
}

// allPositive reports whether every entry is strictly positive.
func allPositive(v []float64) bool {
	for _, x := range v {
		if x <= 0 {
			return false
		}
	}
	return true
}

// rootEigenDqds computes all eigenvalues of the positive definite root
// representation L·D·Lᵀ via the dqds algorithm on its qd arrays
// (q_i = d_i, e_i = l_i²·d_i).
func rootEigenDqds(n int, root *repNode, lam []float64) error {
	q := make([]float64, n)
	qe := make([]float64, max(n-1, 1))
	copy(q, root.dd)
	for i := 0; i < n-1; i++ {
		qe[i] = root.ll[i] * root.ll[i] * root.dd[i]
	}
	if err := lapack.DqdsEigen(n, q, qe); err != nil {
		return err
	}
	copy(lam, q)
	return nil
}

// refineEig brackets eigenvalue j around x0 (radius h0) and bisects it.
func refineEig(j int, x0, h0, atol, rtol float64, count func(float64) int) float64 {
	lo, hi := x0-h0, x0+h0
	for iter := 0; iter < 60 && count(lo) > j; iter++ {
		lo -= hi - lo
	}
	for iter := 0; iter < 60 && count(hi) < j+1; iter++ {
		hi += hi - lo
	}
	return bisectEig(j, lo, hi, atol, rtol, count)
}

// processNode classifies the node's eigenvalues into singletons and clusters
// by relative gaps, emits eigenvectors for singletons and recurses through a
// new shifted representation for each cluster.
func processNode(n int, d, e []float64, rep *repNode, idx []int, lam []float64,
	w []float64, z []float64, ldz int, o *Options, p *pool, depth int, spdiam, pmin float64, needRefine bool, fb *qrFallback) error {

	m := len(idx)
	count := func(x float64) int { return negcountLDL(n, rep.dd, rep.ll, x, pmin) }

	// Group by relative gaps.
	groups := make([][2]int, 0, m) // [start, end) into idx/lam
	gs := 0
	for i := 0; i < m-1; i++ {
		gap := lam[i+1] - lam[i]
		scale := math.Max(math.Abs(lam[i]), math.Abs(lam[i+1]))
		scale = math.Max(scale, spdiam*lapack.Eps)
		if gap >= o.MinRelGap*scale {
			groups = append(groups, [2]int{gs, i + 1})
			gs = i + 1
		}
	}
	groups = append(groups, [2]int{gs, m})

	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	for _, g := range groups {
		g := g
		size := g[1] - g[0]
		if size == 1 {
			i := g[0]
			bj := idx[i] // index within the block
			x0 := lam[i]
			wg.Add(1)
			p.do(func() {
				defer wg.Done()
				// Compute the vector; when the value still needs polishing
				// (it did not come from dqds on this representation), use
				// Rayleigh quotient iteration through the twisted
				// factorization (cubic convergence), with a bisection
				// safeguard if RQI wanders.
				zc := z[bj*ldz : bj*ldz+n]
				lx := x0
				if needRefine {
					guard := math.Max(1e-2*math.Abs(x0), 1e6*pmin)
					done := false
					for it := 0; it < 6; it++ {
						delta := getvec(n, rep.dd, rep.ll, lx, zc, pmin)
						if math.Abs(delta) <= 4*lapack.Eps*math.Abs(lx)+2*pmin {
							done = true
							break
						}
						cand := lx + delta
						if math.Abs(cand-x0) > guard {
							break // diverging towards a neighbour
						}
						lx = cand
					}
					if !done {
						lx = refineEig(bj, x0, math.Max(math.Abs(x0)*1e-6, pmin), 0, 4*lapack.Eps, count)
						getvec(n, rep.dd, rep.ll, lx, zc, pmin)
					}
				} else {
					getvec(n, rep.dd, rep.ll, lx, zc, pmin)
				}
				w[bj] = lx + rep.sigma
			})
			continue
		}

		// Cluster: build a child representation with a shift near the
		// cluster boundary to open up relative gaps.
		lams := lam[g[0]:g[1]]
		ids := idx[g[0]:g[1]]
		if depth >= o.MaxDepth {
			steinFallback(n, d, e, rep.sigma, lams, ids, w, z, ldz, fb)
			continue
		}
		if depth >= 2 && size > 32 {
			// A large cluster that has survived two levels of shifted
			// representations is pathologically degenerate; peeling it
			// level by level costs more bisection work than one robust QR
			// solve of the block (computed once and cached).
			steinFallback(n, d, e, rep.sigma, lams, ids, w, z, ldz, fb)
			continue
		}
		cw := lams[len(lams)-1] - lams[0]
		// The shift candidates step away from the cluster edge in units of
		// the average in-cluster gap; flooring only by pivmin (not by
		// spdiam·eps) lets the shift land close enough to open relative
		// gaps inside extremely tight clusters.
		gapScale := math.Max(cw/float64(size), 16*pmin)
		dp := make([]float64, n)
		lp := make([]float64, n-1)
		var tau float64
		okShift := false
		for _, f := range []float64{0.25, 0.5, 1, 2, 4, 16, 256} {
			for _, cand := range []float64{lams[0] - f*gapScale, lams[len(lams)-1] + f*gapScale} {
				growth, ok := stqds(n, rep.dd, rep.ll, cand, dp, lp)
				if ok && growth <= 64*math.Max(spdiam, math.Abs(cand)) {
					tau = cand
					okShift = true
					break
				}
			}
			if okShift {
				break
			}
		}
		if !okShift {
			steinFallback(n, d, e, rep.sigma, lams, ids, w, z, ldz, fb)
			continue
		}
		// Break numerically coincident eigenvalues with tiny random relative
		// perturbations of the child representation (LAPACK DLARRE's device
		// for glued/duplicate spectra): without it, exactly repeated
		// eigenvalues have zero relative gaps at every depth and the
		// recursion can never separate them.
		prng := rand.New(rand.NewSource(int64(depth)*1000003 + int64(ids[0])))
		for i := range dp {
			dp[i] *= 1 + 8*lapack.Eps*(prng.Float64()-0.5)
		}
		for i := range lp {
			lp[i] *= 1 + 8*lapack.Eps*(prng.Float64()-0.5)
		}
		child := &repNode{dd: append([]float64(nil), dp...), ll: append([]float64(nil), lp...), sigma: rep.sigma + tau}
		childCount := func(x float64) int { return negcountLDL(n, child.dd, child.ll, x, pmin) }
		// Moderate-precision bisection suffices here: it only drives the
		// child's gap classification and shift choices; the singleton RQI
		// polish restores full accuracy before the vectors are formed.
		clam := make([]float64, size)
		for i := 0; i < size; i++ {
			x := lams[i] - tau
			clam[i] = refineEig(ids[i], x, math.Max(math.Abs(x)*1e-2, cw+pmin), 0, 1e-6, childCount)
		}
		cid := append([]int(nil), ids...)
		wg.Add(1)
		p.do(func() {
			defer wg.Done()
			if err := processNode(n, d, e, child, cid, clam, w, z, ldz, o, p, depth+1, spdiam, pmin, true, fb); err != nil {
				fail(err)
			}
		})
	}
	wg.Wait()
	return firstErr
}

// steinFallback computes a pathological cluster's eigenpairs outside the
// representation tree. Small clusters use inverse iteration with
// reorthogonalization (lapack.SteinCluster, DSTEIN's kernel); large
// numerically-degenerate clusters — where inverse iteration cannot produce
// an orthogonal basis — fall back to QR iteration on the whole block and
// extract the cluster's columns. This is the robustness gap of MRRR that
// the paper points out ("MRRR ... can fail to provide an accurate solution
// in some cases"); the fallback trades the O(n³) QR cost for a correct
// basis.
func steinFallback(n int, d, e []float64, sigma float64, lams []float64, ids []int,
	w []float64, z []float64, ldz int, fb *qrFallback) {
	stein := func() {
		abs := make([]float64, len(lams))
		cols := make([][]float64, len(lams))
		for i := range lams {
			abs[i] = lams[i] + sigma
			cols[i] = z[ids[i]*ldz : ids[i]*ldz+n]
			w[ids[i]] = abs[i]
		}
		lapack.SteinCluster(n, d, e, abs, cols)
	}
	if len(ids) <= 8 {
		stein()
		return
	}
	lamQR, q, err := fb.get()
	if err != nil {
		// last resort: inverse iteration, orthogonality best-effort
		stein()
		return
	}
	for _, bj := range ids {
		w[bj] = lamQR[bj]
		copy(z[bj*ldz:bj*ldz+n], q[bj*n:bj*n+n])
	}
}
