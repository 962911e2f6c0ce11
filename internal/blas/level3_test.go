package blas

import (
	"math"
	"math/rand"
	"testing"
)

// naiveGemm is the reference O(mnk) triple loop.
func naiveGemm(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	at := func(i, l int) float64 {
		if transA {
			return a[l+i*lda]
		}
		return a[i+l*lda]
	}
	bt := func(l, j int) float64 {
		if transB {
			return b[j+l*ldb]
		}
		return b[l+j*ldb]
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			var s float64
			for l := 0; l < k; l++ {
				s += at(i, l) * bt(l, j)
			}
			c[i+j*ldc] = alpha*s + beta*c[i+j*ldc]
		}
	}
}

func randMat(rng *rand.Rand, r, c, ld int) []float64 {
	m := make([]float64, ld*c)
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			m[i+j*ld] = rng.NormFloat64()
		}
	}
	return m
}

func TestDgemmAllTransposeCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := []struct{ m, n, k int }{
		{1, 1, 1}, {3, 4, 5}, {4, 4, 4}, {7, 9, 5}, {16, 17, 18}, {33, 5, 21}, {5, 32, 7},
	}
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			for _, d := range dims {
				for _, coef := range []struct{ alpha, beta float64 }{{1, 0}, {-0.5, 1}, {2, 0.25}, {0, 0.5}} {
					ar, ac := d.m, d.k
					if ta {
						ar, ac = d.k, d.m
					}
					br, bc := d.k, d.n
					if tb {
						br, bc = d.n, d.k
					}
					lda, ldb, ldc := ar+2, br+1, d.m+3
					a := randMat(rng, ar, ac, lda)
					b := randMat(rng, br, bc, ldb)
					c := randMat(rng, d.m, d.n, ldc)
					want := append([]float64(nil), c...)
					naiveGemm(ta, tb, d.m, d.n, d.k, coef.alpha, a, lda, b, ldb, coef.beta, want, ldc)
					Dgemm(ta, tb, d.m, d.n, d.k, coef.alpha, a, lda, b, ldb, coef.beta, c, ldc)
					for j := 0; j < d.n; j++ {
						for i := 0; i < d.m; i++ {
							if !almostEqual(c[i+j*ldc], want[i+j*ldc], 1e-12) {
								t.Fatalf("Dgemm ta=%v tb=%v %v coef=%v at (%d,%d): got %v want %v",
									ta, tb, d, coef, i, j, c[i+j*ldc], want[i+j*ldc])
							}
						}
					}
				}
			}
		}
	}
}

func TestDgemmParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, n, k := 40, 50, 30
	a := randMat(rng, m, k, m)
	b := randMat(rng, k, n, k)
	c1 := randMat(rng, m, n, m)
	c2 := append([]float64(nil), c1...)
	Dgemm(false, false, m, n, k, 1.5, a, m, b, k, 0.5, c1, m)
	DgemmParallel(4, false, false, m, n, k, 1.5, a, m, b, k, 0.5, c2, m)
	for i := range c1 {
		if !almostEqual(c1[i], c2[i], 1e-12) {
			t.Fatalf("parallel mismatch at %d: %v vs %v", i, c1[i], c2[i])
		}
	}
}

func TestDgemmParallelTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, n, k := 30, 64, 20
	a := randMat(rng, m, k, m)
	b := randMat(rng, n, k, n)
	c1 := randMat(rng, m, n, m)
	c2 := append([]float64(nil), c1...)
	Dgemm(false, true, m, n, k, 1, a, m, b, n, 0, c1, m)
	DgemmParallel(3, false, true, m, n, k, 1, a, m, b, n, 0, c2, m)
	for i := range c1 {
		if !almostEqual(c1[i], c2[i], 1e-12) {
			t.Fatalf("parallel NT mismatch at %d", i)
		}
	}
}

func TestDsyr2kMatchesGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{1, 4, 9, 20} {
		for _, k := range []int{1, 3, 8} {
			a := randMat(rng, n, k, n)
			b := randMat(rng, n, k, n)
			c := randMat(rng, n, n, n)
			// symmetrize c so the full-matrix reference is well defined
			for j := 0; j < n; j++ {
				for i := 0; i < j; i++ {
					c[i+j*n] = c[j+i*n]
				}
			}
			want := append([]float64(nil), c...)
			naiveGemm(false, true, n, n, k, 0.5, a, n, b, n, 1, want, n)
			naiveGemm(false, true, n, n, k, 0.5, b, n, a, n, 1, want, n)
			Dsyr2k(n, k, 0.5, a, n, b, n, 1, c, n)
			for j := 0; j < n; j++ {
				for i := j; i < n; i++ {
					if !almostEqual(c[i+j*n], want[i+j*n], 1e-12) {
						t.Fatalf("Dsyr2k n=%d k=%d at (%d,%d): got %v want %v", n, k, i, j, c[i+j*n], want[i+j*n])
					}
				}
			}
		}
	}
}

func TestDgemvMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, trans := range []bool{false, true} {
		for _, d := range []struct{ m, n int }{{1, 1}, {5, 3}, {3, 5}, {16, 16}, {20, 7}} {
			lda := d.m + 1
			a := randMat(rng, d.m, d.n, lda)
			nx, ny := d.n, d.m
			if trans {
				nx, ny = d.m, d.n
			}
			x := randVec(rng, nx)
			y := randVec(rng, ny)
			want := append([]float64(nil), y...)
			for i := 0; i < ny; i++ {
				var s float64
				for l := 0; l < nx; l++ {
					if trans {
						s += a[l+i*lda] * x[l]
					} else {
						s += a[i+l*lda] * x[l]
					}
				}
				want[i] = 1.5*s + 0.5*want[i]
			}
			Dgemv(trans, d.m, d.n, 1.5, a, lda, x, 1, 0.5, y, 1)
			for i := range want {
				if !almostEqual(y[i], want[i], 1e-12) {
					t.Fatalf("Dgemv trans=%v %v at %d: got %v want %v", trans, d, i, y[i], want[i])
				}
			}
		}
	}
}

func TestDgerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, n, lda := 6, 4, 8
	a := randMat(rng, m, n, lda)
	x, y := randVec(rng, m), randVec(rng, n)
	want := append([]float64(nil), a...)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			want[i+j*lda] += 2 * x[i] * y[j]
		}
	}
	Dger(m, n, 2, x, 1, y, 1, a, lda)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if !almostEqual(a[i+j*lda], want[i+j*lda], 1e-12) {
				t.Fatalf("Dger at (%d,%d)", i, j)
			}
		}
	}
}

func TestDsymvMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 5, 12} {
		lda := n + 1
		a := randMat(rng, n, n, lda)
		x := randVec(rng, n)
		y := randVec(rng, n)
		// full symmetric reference from lower triangle
		full := make([]float64, n*n)
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				full[i+j*n] = a[i+j*lda]
				full[j+i*n] = a[i+j*lda]
			}
		}
		want := append([]float64(nil), y...)
		for i := 0; i < n; i++ {
			var s float64
			for l := 0; l < n; l++ {
				s += full[i+l*n] * x[l]
			}
			want[i] = 2*s - want[i]
		}
		Dsymv(n, 2, a, lda, x, 1, -1, y, 1)
		for i := range want {
			if !almostEqual(y[i], want[i], 1e-12) {
				t.Fatalf("Dsymv n=%d at %d: got %v want %v", n, i, y[i], want[i])
			}
		}
	}
}

func TestDsyr2kParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{17, 64, 129} {
		k := 16
		a := randMat(rng, n, k, n)
		b := randMat(rng, n, k, n)
		c1 := randMat(rng, n, n, n)
		c2 := append([]float64(nil), c1...)
		Dsyr2k(n, k, -1, a, n, b, n, 1, c1, n)
		Dsyr2kParallel(4, n, k, -1, a, n, b, n, 1, c2, n)
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				if math.Float64bits(c1[i+j*n]) != math.Float64bits(c2[i+j*n]) {
					t.Fatalf("n=%d at (%d,%d): %v vs %v", n, i, j, c1[i+j*n], c2[i+j*n])
				}
			}
		}
	}
}
