package blas

import (
	"math/rand"
	"testing"
)

// TestBlockedGemmMatchesNaive drives the cache-blocked path directly (below
// and above the dispatch threshold) across all transpose combos, odd m/n/k
// tails around the 24×8 micro-tile and the MC/KC/NC block boundaries,
// alpha/beta edge cases, and lda > m shapes: on the host's kernel
// ("dispatch"), on the portable one ("generic"), and on each other assembly
// kernel the host supports.
func TestBlockedGemmMatchesNaive(t *testing.T) {
	dims := []struct{ m, n, k int }{
		{1, 1, 1}, {8, 4, 16}, {7, 3, 5}, {9, 5, 17}, {16, 8, 32},
		{65, 9, 31}, {129, 130, 40}, {33, 7, 257}, {140, 19, 300}, {8, 4, 1},
		{23, 7, 255}, {24, 8, 256}, {25, 9, 257}, {47, 511, 40}, {48, 512, 17},
		{143, 513, 12}, {144, 9, 255}, {145, 8, 256}, {24, 513, 257},
	}
	coefs := []struct{ alpha, beta float64 }{{1, 0}, {-0.5, 1}, {2, 0.25}, {0, 0.5}}
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				for _, d := range dims {
					for _, coef := range coefs {
						ar, ac := d.m, d.k
						if ta {
							ar, ac = d.k, d.m
						}
						br, bc := d.k, d.n
						if tb {
							br, bc = d.n, d.k
						}
						lda, ldb, ldc := ar+3, br+1, d.m+2
						a := randMat(rng, ar, ac, lda)
						b := randMat(rng, br, bc, ldb)
						c := randMat(rng, d.m, d.n, ldc)
						want := append([]float64(nil), c...)
						naiveGemm(ta, tb, d.m, d.n, d.k, coef.alpha, a, lda, b, ldb, coef.beta, want, ldc)
						gemmBlocked(ta, tb, d.m, d.n, d.k, coef.alpha, a, lda, b, ldb, coef.beta, c, ldc)
						for j := 0; j < d.n; j++ {
							for i := 0; i < d.m; i++ {
								if !almostEqual(c[i+j*ldc], want[i+j*ldc], 1e-12) {
									t.Fatalf("blocked %v ta=%v tb=%v %v coef=%v at (%d,%d): got %v want %v",
										kernel, ta, tb, d, coef, i, j, c[i+j*ldc], want[i+j*ldc])
								}
							}
						}
					}
				}
			}
		}
	}
	t.Run("dispatch", run)
	for _, kern := range supportedKernels() {
		if kern != hostKernel {
			t.Run(kern.String(), func(t *testing.T) { withKernel(kern, func() { run(t) }) })
		}
	}
}

// TestPackedGemmMatchesDgemm packs A once and reuses it across several
// column panels of B/C — the per-merge reuse pattern of UpdateVect.
func TestPackedGemmMatchesDgemm(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, sh := range []struct{ m, k, n, nb int }{
		{60, 45, 96, 32}, {8, 8, 4, 4}, {130, 17, 65, 16}, {37, 300, 48, 13},
	} {
		lda, ldb, ldc := sh.m+1, sh.k, sh.m+4
		a := randMat(rng, sh.m, sh.k, lda)
		b := randMat(rng, sh.k, sh.n, ldb)
		c := randMat(rng, sh.m, sh.n, ldc)
		want := append([]float64(nil), c...)
		naiveGemm(false, false, sh.m, sh.n, sh.k, 1.25, a, lda, b, ldb, 0.5, want, ldc)

		pa := PackA(false, sh.m, sh.k, a, lda)
		if m, k := pa.Dims(); m != sh.m || k != sh.k {
			t.Fatalf("Dims: got (%d,%d) want (%d,%d)", m, k, sh.m, sh.k)
		}
		if pa.Bytes() <= 0 {
			t.Fatal("Bytes: want positive")
		}
		// Panelized calls against the shared pack, as UpdateVect issues them.
		for j0 := 0; j0 < sh.n; j0 += sh.nb {
			ncol := min(sh.nb, sh.n-j0)
			PackedGemm(pa, ncol, 1.25, b[j0*ldb:], ldb, 0.5, c[j0*ldc:], ldc)
		}
		pa.Release()
		for j := 0; j < sh.n; j++ {
			for i := 0; i < sh.m; i++ {
				if !almostEqual(c[i+j*ldc], want[i+j*ldc], 1e-12) {
					t.Fatalf("packed %v at (%d,%d): got %v want %v", sh, i, j, c[i+j*ldc], want[i+j*ldc])
				}
			}
		}
	}
}

// TestPackedGemmEdgeCases covers alpha=0, k=0 and transposed-A packing.
func TestPackedGemmEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, k, n := 13, 9, 6
	a := randMat(rng, k, m, k) // packed with transA: op(A) is m×k
	b := randMat(rng, k, n, k)
	c := randMat(rng, m, n, m)
	want := append([]float64(nil), c...)
	naiveGemm(true, false, m, n, k, -2, a, k, b, k, 0, want, m)
	pa := PackA(true, m, k, a, k)
	PackedGemm(pa, n, -2, b, k, 0, c, m)
	pa.Release()
	for i := range c {
		if !almostEqual(c[i], want[i], 1e-12) {
			t.Fatalf("transA packed at %d: got %v want %v", i, c[i], want[i])
		}
	}

	// alpha=0 scales C by beta without touching the packed operand.
	c2 := randMat(rng, m, n, m)
	want2 := append([]float64(nil), c2...)
	for i := range want2 {
		want2[i] *= 0.5
	}
	pa2 := PackA(false, m, k, randMat(rng, m, k, m), m)
	PackedGemm(pa2, n, 0, b, k, 0.5, c2, m)
	pa2.Release()
	for i := range c2 {
		if !almostEqual(c2[i], want2[i], 1e-12) {
			t.Fatalf("alpha=0 at %d", i)
		}
	}
}

// TestDgemmTTTiled re-checks the rewritten Aᵀ·Bᵀ path on shapes whose m/n
// parity hits every tail combination of the 2×2 tiling.
func TestDgemmTTTiled(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, d := range []struct{ m, n, k int }{
		{1, 1, 3}, {2, 2, 4}, {3, 3, 5}, {2, 3, 7}, {3, 2, 7}, {12, 11, 20}, {11, 12, 1},
	} {
		lda, ldb, ldc := d.k+2, d.n+1, d.m+1
		a := randMat(rng, d.k, d.m, lda)
		b := randMat(rng, d.n, d.k, ldb)
		for _, coef := range []struct{ alpha, beta float64 }{{1, 0}, {-1.5, 0.75}} {
			c := randMat(rng, d.m, d.n, ldc)
			want := append([]float64(nil), c...)
			naiveGemm(true, true, d.m, d.n, d.k, coef.alpha, a, lda, b, ldb, coef.beta, want, ldc)
			gemmTT(d.m, d.n, d.k, coef.alpha, a, lda, b, ldb, coef.beta, c, ldc)
			for j := 0; j < d.n; j++ {
				for i := 0; i < d.m; i++ {
					if !almostEqual(c[i+j*ldc], want[i+j*ldc], 1e-12) {
						t.Fatalf("gemmTT %v coef=%v at (%d,%d)", d, coef, i, j)
					}
				}
			}
		}
	}
}

// TestPackWorthwhileConsistent: a shape the packer accepts must also be one
// Dgemm would route to the blocked kernel, so pre-packing never selects a
// slower path than the plain call.
func TestPackWorthwhileConsistent(t *testing.T) {
	for _, sh := range [][3]int{{256, 256, 256}, {1000, 128, 900}, {4, 4, 4}, {16, 2, 64}} {
		m, n, k := sh[0], sh[1], sh[2]
		if PackWorthwhile(m, n, k) != blockedWorthwhile(m, n, k) {
			t.Fatalf("PackWorthwhile(%d,%d,%d) inconsistent with dispatch", m, n, k)
		}
	}
}
