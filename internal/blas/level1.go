// Package blas implements the subset of dense double-precision BLAS needed by
// the eigensolvers: vector kernels (level 1), matrix-vector kernels (level 2)
// and blocked matrix-matrix kernels (level 3), all on column-major storage.
// Signatures follow BLAS conventions (leading dimensions, unit/non-unit
// increments where required) so code translated from LAPACK maps directly.
package blas

import (
	"math"

	"tridiag/internal/simd"
)

// Ddot returns the dot product of the n-element vectors x and y.
func Ddot(n int, x []float64, incx int, y []float64, incy int) float64 {
	if n <= 0 {
		return 0
	}
	if incx == 1 && incy == 1 {
		var s0, s1, s2, s3 float64
		i := 0
		for ; i+4 <= n; i += 4 {
			s0 += x[i] * y[i]
			s1 += x[i+1] * y[i+1]
			s2 += x[i+2] * y[i+2]
			s3 += x[i+3] * y[i+3]
		}
		s := s0 + s1 + s2 + s3
		for ; i < n; i++ {
			s += x[i] * y[i]
		}
		return s
	}
	var s float64
	ix, iy := startIdx(n, incx), startIdx(n, incy)
	for i := 0; i < n; i++ {
		s += x[ix] * y[iy]
		ix += incx
		iy += incy
	}
	return s
}

// Daxpy computes y += alpha*x for n-element vectors.
func Daxpy(n int, alpha float64, x []float64, incx int, y []float64, incy int) {
	if n <= 0 || alpha == 0 {
		return
	}
	if incx == 1 && incy == 1 {
		x = x[:n]
		y = y[:n]
		for i := range x {
			y[i] += alpha * x[i]
		}
		return
	}
	ix, iy := startIdx(n, incx), startIdx(n, incy)
	for i := 0; i < n; i++ {
		y[iy] += alpha * x[ix]
		ix += incx
		iy += incy
	}
}

// Dscal scales the n-element vector x by alpha.
func Dscal(n int, alpha float64, x []float64, incx int) {
	if n <= 0 {
		return
	}
	if incx == 1 {
		x = x[:n]
		for i := range x {
			x[i] *= alpha
		}
		return
	}
	ix := startIdx(n, incx)
	for i := 0; i < n; i++ {
		x[ix] *= alpha
		ix += incx
	}
}

// Dcopy copies the n-element vector x into y.
func Dcopy(n int, x []float64, incx int, y []float64, incy int) {
	if n <= 0 {
		return
	}
	if incx == 1 && incy == 1 {
		copy(y[:n], x[:n])
		return
	}
	ix, iy := startIdx(n, incx), startIdx(n, incy)
	for i := 0; i < n; i++ {
		y[iy] = x[ix]
		ix += incx
		iy += incy
	}
}

// Dswap exchanges the n-element vectors x and y.
func Dswap(n int, x []float64, incx int, y []float64, incy int) {
	if n <= 0 {
		return
	}
	ix, iy := startIdx(n, incx), startIdx(n, incy)
	for i := 0; i < n; i++ {
		x[ix], y[iy] = y[iy], x[ix]
		ix += incx
		iy += incy
	}
}

// Dnrm2 returns the Euclidean norm of the n-element vector x, with scaling to
// avoid overflow and underflow (LAPACK-style two-pass-free algorithm).
func Dnrm2(n int, x []float64, incx int) float64 {
	if n <= 0 {
		return 0
	}
	if n == 1 {
		return math.Abs(x[startIdx(1, incx)])
	}
	scale, ssq := 0.0, 1.0
	ix := startIdx(n, incx)
	for i := 0; i < n; i++ {
		v := x[ix]
		ix += incx
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Idamax returns the index of the element of largest absolute value
// (0-based), or -1 if n <= 0.
func Idamax(n int, x []float64, incx int) int {
	if n <= 0 {
		return -1
	}
	best, bi := math.Abs(x[startIdx(n, incx)]), 0
	ix := startIdx(n, incx)
	for i := 0; i < n; i++ {
		if av := math.Abs(x[ix]); av > best {
			best, bi = av, i
		}
		ix += incx
	}
	return bi
}

// Drot applies the plane rotation (c, s) to the n-element vectors x and y:
// x_i, y_i = c*x_i + s*y_i, c*y_i - s*x_i. The unit-stride case runs
// simd.Rot, which rounds exactly as the strided loop below.
func Drot(n int, x []float64, incx int, y []float64, incy int, c, s float64) {
	if n <= 0 {
		return
	}
	if incx == 1 && incy == 1 {
		simd.Rot(x[:n], y[:n], c, s)
		return
	}
	ix, iy := startIdx(n, incx), startIdx(n, incy)
	for i := 0; i < n; i++ {
		xi, yi := x[ix], y[iy]
		x[ix] = c*xi + s*yi
		y[iy] = c*yi - s*xi
		ix += incx
		iy += incy
	}
}

// startIdx returns the BLAS starting offset for a vector of n elements with
// increment inc (negative increments walk the vector backwards).
func startIdx(n, inc int) int {
	if inc >= 0 {
		return 0
	}
	return (-n + 1) * inc
}
