package eigen

import (
	"fmt"

	"tridiag/internal/core"
	"tridiag/internal/mrrr"
	"tridiag/internal/svd"
)

// SolveRange computes eigenpairs il..iu (0-based, inclusive, counted in
// ascending eigenvalue order) of the symmetric tridiagonal matrix t, using
// the MRRR machinery — the subset capability the paper highlights as
// Θ(nk) for k eigenpairs. The returned Result holds iu-il+1 values and
// vectors.
func SolveRange(t Tridiagonal, il, iu int, opts *Options) (*Result, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	n := t.N()
	if il < 0 || iu >= n || il > iu {
		return nil, fmt.Errorf("eigen: bad index range [%d, %d] for n=%d", il, iu, n)
	}
	m := iu - il + 1
	var o Options
	if opts != nil {
		o = *opts
	}
	res := &Result{N: n, Values: make([]float64, m), Vectors: make([]float64, n*m)}
	err := mrrr.SolveRange(n, t.D, t.E, il, iu, res.Values, res.Vectors, n, &mrrr.Options{Workers: o.Workers})
	return res, err
}

// ValuesRange computes eigenvalues il..iu (0-based, inclusive, ascending)
// only. Narrow ranges use Sturm-count bisection; wide ranges (a quarter of
// the spectrum or more) route through the values-only D&C fast lane, which
// computes the whole spectrum in parallel with O(n·depth) workspace —
// neither path ever allocates an n×n eigenvector block.
func ValuesRange(t Tridiagonal, il, iu int) ([]float64, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	n := t.N()
	if il < 0 || iu >= n || il > iu {
		return nil, fmt.Errorf("eigen: bad index range [%d, %d] for n=%d", il, iu, n)
	}
	if m := iu - il + 1; 4*m >= n {
		// The bisection below resolves every eigenvalue of every unreduced
		// block before selecting, so once a sizable fraction of the spectrum
		// is requested the multicore values-only lane is strictly faster.
		res, err := Solve(t, &Options{ValuesOnly: true, Fallback: true})
		if err != nil {
			return nil, err
		}
		return append([]float64(nil), res.Values[il:iu+1]...), nil
	}
	return mrrr.ValuesRange(n, t.D, t.E, il, iu)
}

// SVDResult is a thin singular value decomposition A = U Σ Vᵀ.
type SVDResult struct {
	M, N int
	S    []float64 // descending singular values
	U    []float64 // m×n column-major left singular vectors
	V    []float64 // n×n column-major right singular vectors
}

// UCol returns the j-th left singular vector.
func (r *SVDResult) UCol(j int) []float64 { return r.U[j*r.M : j*r.M+r.M] }

// VCol returns the j-th right singular vector.
func (r *SVDResult) VCol(j int) []float64 { return r.V[j*r.N : j*r.N+r.N] }

// SVD computes the thin singular value decomposition of the m×n (m ≥ n)
// column-major matrix a (leading dimension lda) through bidiagonalization
// and the Golub–Kahan tridiagonal form solved with the task-flow D&C — the
// extension the paper's conclusion proposes. a is overwritten.
func SVD(m, n int, a []float64, lda int, opts *Options) (*SVDResult, error) {
	var co *core.Options
	if opts != nil {
		co = &core.Options{
			Workers:      opts.Workers,
			PanelSize:    opts.PanelSize,
			MinPartition: opts.MinPartition,
		}
	}
	r, err := svd.Decompose(m, n, a, lda, co)
	if err != nil {
		return nil, err
	}
	return &SVDResult{M: r.M, N: r.N, S: r.S, U: r.U, V: r.V}, nil
}
