package eigen

import (
	"fmt"
	"math"

	"tridiag/internal/lapack"
)

// This file holds the values-only validation path. A degraded tier serving a
// full eigendecomposition is checked with the Residual/Orthogonality pair;
// a values-only result has no vectors to form a residual with, so the
// spectrum is verified directly against the matrix via Sturm sequence
// counts: for the i-th computed eigenvalue λᵢ (ascending), the LDLᵀ inertia
// count at λᵢ+tol must include at least i+1 eigenvalues and the count at
// λᵢ−tol at most i. The check is independent of every eigenvalue algorithm
// in the library (it only evaluates the shifted factorization), so a broken
// solver cannot validate itself.

// sturmCountBelow returns the number of eigenvalues of the symmetric
// tridiagonal matrix (d, e) that are strictly below x, by counting negative
// pivots of the LDLᵀ recurrence t_i = (d_i − x) − e_{i−1}²/t_{i−1}. pivmin
// is the smallest admissible |pivot|; a tiny pivot is replaced by −pivmin
// (the LAPACK dlaneg safeguard) so the recurrence never divides by zero.
func sturmCountBelow(d, e []float64, x, pivmin float64) int {
	count := 0
	t := d[0] - x
	if math.Abs(t) < pivmin {
		t = -pivmin
	}
	if t < 0 {
		count++
	}
	for i := 1; i < len(d); i++ {
		t = (d[i] - x) - e[i-1]*e[i-1]/t
		if math.Abs(t) < pivmin {
			t = -pivmin
		}
		if t < 0 {
			count++
		}
	}
	return count
}

// sturmCountBelow4 runs four independent Sturm counts in one pass over the
// matrix, returning exactly what four sturmCountBelow calls would. The four
// recurrences share no state, so their long-latency pivot divisions
// pipeline instead of serializing.
func sturmCountBelow4(d, e []float64, x [4]float64, pivmin float64) [4]int {
	var c0, c1, c2, c3 int
	t0 := d[0] - x[0]
	t1 := d[0] - x[1]
	t2 := d[0] - x[2]
	t3 := d[0] - x[3]
	if math.Abs(t0) < pivmin {
		t0 = -pivmin
	}
	if math.Abs(t1) < pivmin {
		t1 = -pivmin
	}
	if math.Abs(t2) < pivmin {
		t2 = -pivmin
	}
	if math.Abs(t3) < pivmin {
		t3 = -pivmin
	}
	if t0 < 0 {
		c0++
	}
	if t1 < 0 {
		c1++
	}
	if t2 < 0 {
		c2++
	}
	if t3 < 0 {
		c3++
	}
	for i := 1; i < len(d); i++ {
		e2 := e[i-1] * e[i-1]
		di := d[i]
		t0 = (di - x[0]) - e2/t0
		t1 = (di - x[1]) - e2/t1
		t2 = (di - x[2]) - e2/t2
		t3 = (di - x[3]) - e2/t3
		if math.Abs(t0) < pivmin {
			t0 = -pivmin
		}
		if math.Abs(t1) < pivmin {
			t1 = -pivmin
		}
		if math.Abs(t2) < pivmin {
			t2 = -pivmin
		}
		if math.Abs(t3) < pivmin {
			t3 = -pivmin
		}
		if t0 < 0 {
			c0++
		}
		if t1 < 0 {
			c1++
		}
		if t2 < 0 {
			c2++
		}
		if t3 < 0 {
			c3++
		}
	}
	return [4]int{c0, c1, c2, c3}
}

// spectrumSamples is how many eigenvalue indices validateSpectrum probes.
// Each probe is two O(n) Sturm counts, so the whole check is O(n·samples) —
// negligible next to any solve — while still bracketing the spectrum's ends
// and a spread of interior eigenvalues.
const spectrumSamples = 32

// validateSpectrum checks a computed ascending spectrum w against the matrix
// t by Sturm counts at spectrumSamples indices (always including the first
// and last eigenvalue). The tolerance is the values-only analogue of the
// maxResidual bar: maxResidual · n · ‖T‖.
func validateSpectrum(t Tridiagonal, w []float64) error {
	n := t.N()
	if n == 0 {
		return nil
	}
	if len(w) != n {
		return fmt.Errorf("spectrum has %d values, want %d", len(w), n)
	}
	for i := 1; i < n; i++ {
		if w[i] < w[i-1] {
			return fmt.Errorf("eigenvalues not ascending at index %d", i)
		}
	}
	nrm := lapack.Dlanst('M', n, t.D, t.E)
	if nrm == 0 {
		// The zero matrix: every eigenvalue must be exactly zero.
		for i, v := range w {
			if v != 0 {
				return fmt.Errorf("eigenvalue %d of the zero matrix is %g", i, v)
			}
		}
		return nil
	}
	tol := maxResidual * float64(n) * nrm
	var maxE2 float64
	for _, v := range t.E {
		maxE2 = math.Max(maxE2, v*v)
	}
	pivmin := math.Max(lapack.SafeMin, lapack.SafeMin*maxE2)

	samples := min(spectrumSamples, n)
	// Gather every probe shift up front and run the counts four at a time:
	// the LDLᵀ recurrences are independent, so interleaving four chains
	// pipelines the per-pivot division latency that dominates a single
	// count (~4× over sequential counts on the always-on audit path).
	idx := make([]int, samples)
	shifts := make([]float64, 2*samples)
	for s := 0; s < samples; s++ {
		// Even spread over [0, n-1], endpoints always included.
		i := 0
		if samples > 1 {
			i = s * (n - 1) / (samples - 1)
		}
		idx[s] = i
		shifts[2*s] = w[i] + tol
		shifts[2*s+1] = w[i] - tol
	}
	counts := make([]int, len(shifts))
	for s := 0; s < len(shifts); s += 4 {
		var x [4]float64
		for l := 0; l < 4; l++ {
			if s+l < len(shifts) {
				x[l] = shifts[s+l]
			} else {
				x[l] = shifts[len(shifts)-1]
			}
		}
		c := sturmCountBelow4(t.D, t.E, x, pivmin)
		for l := 0; l < 4 && s+l < len(shifts); l++ {
			counts[s+l] = c[l]
		}
	}
	for s, i := range idx {
		// At least i+1 eigenvalues at or below λᵢ+tol…
		if got := counts[2*s]; got < i+1 {
			return fmt.Errorf("eigenvalue %d = %.6g: only %d eigenvalues below λ+tol, want ≥ %d", i, w[i], got, i+1)
		}
		// …and at most i strictly below λᵢ−tol.
		if got := counts[2*s+1]; got > i {
			return fmt.Errorf("eigenvalue %d = %.6g: %d eigenvalues below λ−tol, want ≤ %d", i, w[i], got, i)
		}
	}
	return nil
}
