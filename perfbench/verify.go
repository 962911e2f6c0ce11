package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"

	"tridiag/eigen"
	"tridiag/eigen/cluster"
)

// accuracyBar is the paper's Figure 9 bar, applied to every result: the
// residual max_j ‖T v_j − λ_j v_j‖ / (‖T‖ n) and the orthogonality
// ‖I − VᵀV‖_max / n must both stay at or below it, and so must each
// eigenvalue's distance to the true one, relative to ‖T‖ n.
const accuracyBar = 1e-12

// orthColumns is how many seeded columns the orthogonality check dots
// against every column: the full Gram matrix costs O(n³), as much as the
// solve it checks. The residual and unit-norm checks cover every column.
const orthColumns = 8

// normBound returns max_i |d_i| + |e_{i-1}| + |e_i|, an upper bound on ‖T‖₂.
func normBound(t eigen.Tridiagonal) float64 {
	var nrm float64
	for i, di := range t.D {
		r := math.Abs(di)
		if i > 0 {
			r += math.Abs(t.E[i-1])
		}
		if i < len(t.E) {
			r += math.Abs(t.E[i])
		}
		nrm = math.Max(nrm, r)
	}
	return nrm
}

// checkSpectrum verifies an ascending spectrum w of t with Sturm counts at
// every index j: at most j eigenvalues of t lie below w_j − tol and at least
// j+1 below w_j + tol, for tol = accuracyBar·n·‖T‖. The counts come from the
// LDLᵀ inertia of T − xI, exact up to rounding in the recurrence and
// independent of the algorithm that produced w.
func checkSpectrum(t eigen.Tridiagonal, w []float64) error {
	n := t.N()
	if len(w) != n {
		return fmt.Errorf("spectrum has %d values, want %d", len(w), n)
	}
	for j := 1; j < n; j++ {
		if !(w[j] >= w[j-1]) {
			return fmt.Errorf("spectrum not ascending at %d: %v after %v", j, w[j], w[j-1])
		}
	}
	tol := accuracyBar * float64(n) * normBound(t)
	e2 := make([]float64, len(t.E))
	maxE2 := 1.0
	for i, v := range t.E {
		e2[i] = v * v
		maxE2 = math.Max(maxE2, e2[i])
	}
	pivmin := 0x1p-1022 * maxE2
	xs := make([]float64, 2*n)
	for j, v := range w {
		xs[2*j], xs[2*j+1] = v-tol, v+tol
	}
	counts := sturmCounts(t.D, e2, pivmin, xs)
	for j := range w {
		if counts[2*j] > j || counts[2*j+1] < j+1 {
			return fmt.Errorf("eigenvalue %d = %v fails its Sturm count: %d eigenvalues below it-%.1e, %d below it+%.1e",
				j, w[j], counts[2*j], tol, counts[2*j+1], tol)
		}
	}
	return nil
}

// sturmCounts returns, for each shift x, the number of eigenvalues below x:
// the negative pivots of the LDLᵀ factorization of T − xI (e2 holds the
// squared off-diagonals). Eight shifts share one sweep, so the dependent
// divisions of different shifts overlap in the pipeline.
func sturmCounts(d, e2 []float64, pivmin float64, xs []float64) []int {
	const lanes = 8
	out := make([]int, len(xs))
	for b := 0; b < len(xs); b += lanes {
		m := min(lanes, len(xs)-b)
		var x, q [lanes]float64
		var c [lanes]int
		for l := range x {
			x[l] = xs[b+min(l, m-1)]
		}
		for i := range d {
			for l := range q {
				v := d[i] - x[l]
				if i > 0 {
					v -= e2[i-1] / q[l]
				}
				if math.Abs(v) < pivmin {
					v = -pivmin
				}
				c[l] += int(math.Float64bits(v) >> 63)
				q[l] = v
			}
		}
		copy(out[b:b+m], c[:m])
	}
	return out
}

// checkVectors verifies eigenvectors v (column-major, n×n) of t against the
// accuracy bar: every column's residual ‖T v_j − w_j v_j‖ and unit norm, and
// the inner products of orthColumns seeded columns with every column.
func checkVectors(t eigen.Tridiagonal, w, v []float64, rng *rand.Rand) error {
	n := t.N()
	if len(v) != n*n {
		return fmt.Errorf("eigenvector block has %d entries, want %d", len(v), n*n)
	}
	scale := normBound(t) * float64(n)
	for j := 0; j < n; j++ {
		col := v[j*n : (j+1)*n]
		var r2, v2 float64
		for i, x := range col {
			r := (t.D[i] - w[j]) * x
			if i > 0 {
				r += t.E[i-1] * col[i-1]
			}
			if i < n-1 {
				r += t.E[i] * col[i+1]
			}
			r2 += r * r
			v2 += x * x
		}
		if res := math.Sqrt(r2) / scale; !(res <= accuracyBar) {
			return fmt.Errorf("eigenvector %d: residual %.3e exceeds %.0e", j, res, accuracyBar)
		}
		if dev := math.Abs(v2-1) / float64(n); !(dev <= accuracyBar) {
			return fmt.Errorf("eigenvector %d: norm² deviates from 1 by %.3e", j, v2-1)
		}
	}
	for s := 0; s < min(orthColumns, n); s++ {
		j := rng.Intn(n)
		cj := v[j*n : (j+1)*n]
		for i := 0; i < n; i++ {
			if i == j {
				continue
			}
			ci := v[i*n : (i+1)*n]
			var dot float64
			for r := range ci {
				dot += ci[r] * cj[r]
			}
			if dev := math.Abs(dot) / float64(n); !(dev <= accuracyBar) {
				return fmt.Errorf("eigenvectors %d and %d: orthogonality %.3e exceeds %.0e", i, j, dev, accuracyBar)
			}
		}
	}
	return nil
}

// checkResult verifies a solve of t: the spectrum w always, the
// eigenvectors v when the request asked for them.
func checkResult(t eigen.Tridiagonal, w, v []float64, wantVectors bool, rng *rand.Rand) error {
	if err := checkSpectrum(t, w); err != nil {
		return err
	}
	if wantVectors {
		return checkVectors(t, w, v, rng)
	}
	return nil
}

// checkWire verifies a wire response's integrity seal: the serving worker's
// SpectrumChecksum must be present and match the values that arrived.
func checkWire(resp *cluster.SolveResponse) error {
	if resp.Checksum == 0 {
		return fmt.Errorf("response carries no spectrum checksum (disposition %q)", resp.Disposition)
	}
	if got := cluster.SpectrumChecksum(resp.Values); got != resp.Checksum {
		return fmt.Errorf("spectrum checksum %#x does not match the response seal %#x", got, resp.Checksum)
	}
	return nil
}

// checkResponse decodes a /solve response body for request r and verifies
// it: the integrity seal, the spectrum, and the eigenvectors when the
// request asked for them.
func checkResponse(r request, raw []byte, wantVectors bool, rng *rand.Rand) error {
	var resp cluster.SolveResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if err := checkWire(&resp); err != nil {
		return err
	}
	return checkResult(r.t, resp.Values, resp.Vectors, wantVectors, rng)
}

// tally counts attempted requests and failures: refusals, transport errors,
// non-200 responses and failed checks alike.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
}

func (t *tally) record(what string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
		}
	}
}

func (t *tally) successRate() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}
