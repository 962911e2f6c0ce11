package mrrr

import (
	"math"

	"tridiag/internal/lapack"
)

// steinGroup computes eigenvectors for a group of (possibly pathologically
// clustered) eigenvalues by inverse iteration on the tridiagonal (d, e),
// reorthogonalizing within the group (LAPACK DSTEIN's role: the fallback
// path when the representation tree cannot separate a cluster).
func steinGroup(n int, d, e []float64, lams []float64, cols [][]float64) {
	eps := lapack.Eps
	nrmT := lapack.Dlanst('M', n, d, e)
	if nrmT == 0 {
		nrmT = 1
	}
	sep := eps * nrmT
	prev := make([][]float64, 0, len(cols))
	for gi, lam := range lams {
		// Perturb repeated eigenvalues slightly so the factorizations differ.
		pert := lam + float64(gi)*2*sep
		x := cols[gi]
		// Deterministic pseudo-random start vector (LAPACK uses dlarnv).
		seed := uint64(gi)*2654435761 + 12345
		for i := 0; i < n; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			x[i] = float64(int64(seed>>11))/float64(1<<52) - 1
		}
		for iter := 0; iter < 6; iter++ {
			solveShifted(n, d, e, pert, x)
			// Orthogonalize against previously computed group vectors.
			for _, p := range prev {
				var dot float64
				for i := 0; i < n; i++ {
					dot += p[i] * x[i]
				}
				for i := 0; i < n; i++ {
					x[i] -= dot * p[i]
				}
			}
			nrm := 0.0
			for _, v := range x[:n] {
				nrm += v * v
			}
			nrm = math.Sqrt(nrm)
			if nrm == 0 {
				// restart with a shifted seed
				for i := 0; i < n; i++ {
					seed = seed*6364136223846793005 + 1442695040888963407
					x[i] = float64(int64(seed>>11))/float64(1<<52) - 1
				}
				continue
			}
			grown := nrm > 1/(eps*float64(n)*10)
			for i := 0; i < n; i++ {
				x[i] /= nrm
			}
			if grown && iter >= 1 {
				break
			}
		}
		prev = append(prev, x)
	}
}

// solveShifted solves (T - lam*I) y = x in place by Gaussian elimination
// with partial pivoting on the tridiagonal (DGTSV-style), perturbing zero
// pivots.
func solveShifted(n int, d, e []float64, lam float64, x []float64) {
	if n == 1 {
		p := d[0] - lam
		if p == 0 {
			p = lapack.SafeMin
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

	small := lapack.SafeMin / lapack.Eps
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
