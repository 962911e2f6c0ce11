package lapack

import (
	"fmt"
	"math"

	"tridiag/internal/blas"
)

// Dstein computes eigenvectors of the symmetric tridiagonal matrix (d, e)
// for the given eigenvalues w (ascending) by inverse iteration, in the role
// of LAPACK DSTEIN: the eigenvector route of last resort when the QR
// iteration fails to converge. Column j of z (n×n column-major, leading
// dimension ldz ≥ n) receives the eigenvector of w[j]. Eigenvalues closer
// than a cluster tolerance are grouped and their vectors reorthogonalized
// against each other, with tiny perturbations so the shifted factorizations
// differ.
func Dstein(n int, d, e []float64, w []float64, z []float64, ldz int) error {
	if n < 0 {
		return fmt.Errorf("lapack: Dstein: negative n=%d", n)
	}
	if n == 0 {
		return nil
	}
	if ldz < n {
		return fmt.Errorf("lapack: Dstein: ldz=%d < n=%d", ldz, n)
	}
	if n == 1 {
		z[0] = 1
		return nil
	}
	// Cluster tolerance: LAPACK DSTEIN reorthogonalizes eigenvectors whose
	// eigenvalues lie within 1e-3·‖T‖ of each other.
	ortol := 1e-3 * steinNorm(n, d, e)
	var cols [][]float64
	for g0 := 0; g0 < n; {
		g1 := g0 + 1
		for g1 < n && w[g1]-w[g1-1] <= ortol {
			g1++
		}
		cols = cols[:0]
		for j := g0; j < g1; j++ {
			cols = append(cols, z[j*ldz:j*ldz+n])
		}
		SteinCluster(n, d, e, w[g0:g1], cols)
		g0 = g1
	}
	return nil
}

// steinNorm is ‖T‖ by largest absolute entry, or 1 for the zero matrix.
func steinNorm(n int, d, e []float64) float64 {
	if nrm := Dlanst('M', n, d, e); nrm != 0 {
		return nrm
	}
	return 1
}

// SteinCluster runs inverse iteration on the tridiagonal (d, e) for one
// cluster of close eigenvalues lams, writing the eigenvector of lams[i] into
// cols[i][:n] and orthogonalizing it against the cluster's earlier vectors.
// Shifts perturbed in steps of 2·Eps·‖T‖ keep the factorizations of
// repeated eigenvalues distinct. The columns are slices so that Dstein's
// contiguous block and MRRR's fallback, which picks columns by index, both
// fit.
func SteinCluster(n int, d, e []float64, lams []float64, cols [][]float64) {
	eps := Eps
	sep := eps * steinNorm(n, d, e)
	for gi, lam := range lams {
		pert := lam + float64(gi)*2*sep
		x := cols[gi][:n]
		// Deterministic pseudo-random start vector (LAPACK uses dlarnv).
		seed := uint64(gi)*2654435761 + 9176
		reseed := func() {
			for i := 0; i < n; i++ {
				seed = seed*6364136223846793005 + 1442695040888963407
				x[i] = float64(int64(seed>>11))/float64(1<<52) - 1
			}
		}
		reseed()
		for iter := 0; iter < 8; iter++ {
			steinSolveShifted(n, d, e, pert, x)
			// Orthogonalize against the cluster's previous vectors.
			for _, prev := range cols[:gi] {
				dot := blas.Ddot(n, prev, 1, x, 1)
				blas.Daxpy(n, -dot, prev, 1, x, 1)
			}
			nrm := blas.Dnrm2(n, x, 1)
			if nrm == 0 {
				reseed()
				continue
			}
			grown := nrm > 1/(eps*float64(n)*10)
			blas.Dscal(n, 1/nrm, x, 1)
			if grown && iter >= 1 {
				break
			}
		}
	}
}

// steinSolveShifted solves (T - lam·I)·y = x in place by Gaussian
// elimination with partial pivoting on the tridiagonal (DGTSV-style),
// perturbing pivots too small to divide by safely.
func steinSolveShifted(n int, d, e []float64, lam float64, x []float64) {
	if n == 1 {
		p := d[0] - lam
		if p == 0 {
			p = SafeMin
		}
		x[0] /= p
		return
	}
	// Working copies of the three diagonals plus the fill-in band.
	dl := make([]float64, n-1)
	dd := make([]float64, n)
	du := make([]float64, n-1)
	du2 := make([]float64, n-2)
	for i := 0; i < n; i++ {
		dd[i] = d[i] - lam
	}
	copy(dl, e[:n-1])
	copy(du, e[:n-1])

	small := SafeMin / Eps
	for i := 0; i < n-1; i++ {
		if math.Abs(dd[i]) >= math.Abs(dl[i]) {
			// No row interchange.
			if math.Abs(dd[i]) < small {
				dd[i] = math.Copysign(small, dd[i])
				if dd[i] == 0 {
					dd[i] = small
				}
			}
			f := dl[i] / dd[i]
			dd[i+1] -= f * du[i]
			x[i+1] -= f * x[i]
			if i < n-2 {
				du2[i] = 0
			}
		} else {
			// Swap rows i and i+1.
			f := dd[i] / dl[i]
			dd[i] = dl[i]
			t := dd[i+1]
			dd[i+1] = du[i] - f*t
			if i < n-2 {
				du2[i] = du[i+1]
				du[i+1] = -f * du[i+1]
			}
			du[i] = t
			x[i], x[i+1] = x[i+1], x[i]-f*x[i+1]
		}
	}
	if math.Abs(dd[n-1]) < small {
		dd[n-1] = math.Copysign(small, dd[n-1])
		if dd[n-1] == 0 {
			dd[n-1] = small
		}
	}
	// Back substitution.
	x[n-1] /= dd[n-1]
	if n > 1 {
		x[n-2] = (x[n-2] - du[n-2]*x[n-1]) / dd[n-2]
	}
	for i := n - 3; i >= 0; i-- {
		x[i] = (x[i] - du[i]*x[i+1] - du2[i]*x[i+2]) / dd[i]
	}
}

// DsteqrRobust computes the full eigendecomposition of the symmetric
// tridiagonal matrix (d, e) like Dsteqr(CompIdentity, ...), but survives QR
// non-convergence: on Dsteqr failure it restores the input and retries with
// the root-free Dsterf for the eigenvalues followed by Dstein inverse
// iteration for the eigenvectors (the tiered-solver safety net of hybrid
// D&C implementations). It reports whether the fallback path produced the
// result, so callers can track degraded solves.
func DsteqrRobust(n int, d, e []float64, z []float64, ldz int) (fellBack bool, err error) {
	if n == 0 {
		return false, nil
	}
	// Dsteqr destroys d and e even on failure: keep pristine copies.
	d0 := append([]float64(nil), d[:n]...)
	e0 := append([]float64(nil), e[:max(n-1, 0)]...)
	if err := Dsteqr(CompIdentity, n, d, e, z, ldz); err == nil {
		return false, nil
	}
	copy(d, d0)
	copy(e, e0)
	if err := Dsterf(n, d, e[:max(n-1, 0)]); err != nil {
		copy(d, d0)
		copy(e, e0)
		return true, fmt.Errorf("lapack: DsteqrRobust: Dsterf fallback failed: %w", err)
	}
	if err := Dstein(n, d0, e0, d, z, ldz); err != nil {
		return true, err
	}
	return true, nil
}
