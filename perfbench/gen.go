package main

import (
	"math"
	"math/rand"

	"tridiag/eigen"
)

// Workload input sizes. Each request's matrix is generated in O(n) from its
// own seeded stream, so no two requests carry the same matrix.
const (
	lowDeflN  = 1200 // perturbed Legendre: ~0% deflation, UpdateVect-bound
	highDeflN = 2000 // glued Wilkinson W21: ~80% deflation, leaf-bound
	valuesN   = 1000 // svc-mix values class: perturbed Legendre, values_only
)

// smallNs are the orders of svc-mix's small class.
var smallNs = [...]int{64, 128, 256}

// requestRNG returns the generator for request idx of a run seeded with
// seed: a splitmix64 mix of the two, so neighbouring seeds and indices give
// unrelated streams.
func requestRNG(seed int64, stream, idx int) *rand.Rand {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(stream)<<48 ^ uint64(idx)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

// perturbedLegendre is the Jacobi matrix of the Legendre polynomials (the
// Golub–Welsch Gauss–Legendre quadrature operator) with a 1e-6 relative
// perturbation of every off-diagonal and a diagonal of the same size. Its
// eigenvalues are the well-separated quadrature nodes and every eigenvector
// has weight on both halves of any split, so almost nothing deflates.
func perturbedLegendre(n int, rng *rand.Rand) eigen.Tridiagonal {
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := 1; i < n; i++ {
		fi := float64(i)
		e[i-1] = fi / math.Sqrt((2*fi-1)*(2*fi+1)) * (1 + 1e-6*(2*rng.Float64()-1))
	}
	for i := range d {
		d[i] = 0.5e-6 * (2*rng.Float64() - 1)
	}
	return eigen.Tridiagonal{D: d, E: e}
}

// gluedWilkinson chains Wilkinson W21+ blocks (diagonal |i-10|, unit
// couplings) with glue couplings of about 1e-10, the last block truncated to
// fit n. Each diagonal entry carries a 1e-5 seeded jitter and each glue its
// own strength. The blocks' near-degenerate pairs and the weak glue make
// most of every merge deflate: the paper's Fig. 4 regime.
func gluedWilkinson(n int, rng *rand.Rand) eigen.Tridiagonal {
	const block = 21
	d := make([]float64, n)
	e := make([]float64, n-1)
	for s := 0; s < n; s += block {
		bs := min(block, n-s)
		for i := 0; i < bs; i++ {
			d[s+i] = math.Abs(float64(i-bs/2)) + 1e-5*(2*rng.Float64()-1)
			if i < bs-1 {
				e[s+i] = 1
			}
		}
		if s+bs < n {
			e[s+bs-1] = 1e-10 * (0.5 + rng.Float64())
		}
	}
	return eigen.Tridiagonal{D: d, E: e}
}

// randomTridiagonal has entries uniform in [-1, 1]: svc-mix's small class.
func randomTridiagonal(n int, rng *rand.Rand) eigen.Tridiagonal {
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2*rng.Float64() - 1
	}
	for i := range e {
		e[i] = 2*rng.Float64() - 1
	}
	return eigen.Tridiagonal{D: d, E: e}
}
