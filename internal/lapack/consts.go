// Package lapack implements the subset of LAPACK computational kernels that
// the divide & conquer and MRRR tridiagonal eigensolvers are built from. All
// matrices are column-major with an explicit leading dimension. Routine
// names and semantics follow their LAPACK counterparts so the task
// decomposition in internal/core can mirror the paper's Algorithm 1
// directly.
package lapack

import "math"

// Machine parameters for IEEE float64, matching LAPACK's DLAMCH values.
const (
	// Eps is the relative machine epsilon (DLAMCH('E'), unit roundoff).
	Eps = 0x1p-53
	// Ulp is the machine precision (DLAMCH('P') = eps*base).
	Ulp = 0x1p-52
	// SafeMin is the smallest number whose reciprocal does not overflow.
	SafeMin = 0x1p-1022
)

// RMin and RMax are the safe scaling range used by DLASCL-style rescaling.
var (
	RMin = math.Sqrt(SafeMin) / Ulp
	RMax = 1 / RMin
)

// Dlapy2 returns sqrt(x²+y²) without unnecessary overflow or underflow.
func Dlapy2(x, y float64) float64 {
	ax, ay := math.Abs(x), math.Abs(y)
	w := math.Max(ax, ay)
	z := math.Min(ax, ay)
	if z == 0 {
		return w
	}
	r := z / w
	return w * math.Sqrt(1+r*r)
}

// Sign transfers the sign of b onto |a| (Fortran SIGN intrinsic: b==0 counts
// as positive).
func Sign(a, b float64) float64 {
	if b >= 0 {
		return math.Abs(a)
	}
	return -math.Abs(a)
}
