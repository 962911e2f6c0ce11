package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// String names the kernel in sub-test, benchmark and failure output.
func (k gemmKernel) String() string {
	switch k {
	case kernelAVX2:
		return "avx2"
	case kernelAVX512:
		return "avx512"
	}
	return "generic"
}

// hostKernel is the kernel the package selected at start-up.
var hostKernel = kernel

// supportedKernels lists every kernel this host can run: the portable one,
// then each assembly kernel up to the detected one (an AVX-512 host also
// runs the AVX2 kernel).
func supportedKernels() []gemmKernel {
	ks := []gemmKernel{kernelGeneric}
	for k := kernelAVX2; k <= hostKernel; k++ {
		ks = append(ks, k)
	}
	return ks
}

// withKernel runs fn with the blocked GEMM on kernel kern.
func withKernel(kern gemmKernel, fn func()) {
	saved := kernel
	kernel = kern
	defer func() { kernel = saved }()
	fn()
}

// opMat materializes op(X) (r×c, op controlled by trans) column-major with
// leading dimension r.
func opMat(trans bool, r, c int, x []float64, ldx int) []float64 {
	out := make([]float64, r*c)
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			if trans {
				out[i+j*r] = x[j+i*ldx]
			} else {
				out[i+j*r] = x[i+j*ldx]
			}
		}
	}
	return out
}

// blockChains computes the bitwise contract's accumulators without any
// packing: for each gemmKC block of k, the m×n matrix whose (i, j) entry is
// the math.FMA chain over the block's l, in order, from zero.
func blockChains(transA, transB bool, m, n, k int, a []float64, lda int, b []float64, ldb int) [][]float64 {
	opA := opMat(transA, m, k, a, lda)
	opB := opMat(transB, k, n, b, ldb)
	var sums [][]float64
	for pc := 0; pc < k; pc += gemmKC {
		acc := make([]float64, m*n)
		for j := 0; j < n; j++ {
			cj := acc[j*m : j*m+m]
			for l := pc; l < min(pc+gemmKC, k); l++ {
				bv := opB[l+j*k]
				for i, av := range opA[l*m : l*m+m] {
					cj[i] = math.FMA(av, bv, cj[i])
				}
			}
		}
		sums = append(sums, acc)
	}
	return sums
}

// applyChains finishes the contract on C: scale by beta (zero when beta is
// 0), then fold each block's chain in as c = fma(alpha, acc, c).
func applyChains(sums [][]float64, m, n int, alpha, beta float64, c []float64, ldc int) {
	scaleCols(m, n, beta, c, ldc)
	if alpha == 0 {
		return
	}
	for _, acc := range sums {
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				c[i+j*ldc] = math.FMA(alpha, acc[i+j*m], c[i+j*ldc])
			}
		}
	}
}

// checkBitwise runs the blocked GEMM through every supported kernel and
// reports the first element whose bits differ from want.
func checkBitwise(t *testing.T, ta, tb bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c0, want []float64, ldc int) {
	t.Helper()
	for _, kern := range supportedKernels() {
		c := append([]float64(nil), c0...)
		withKernel(kern, func() {
			gemmBlocked(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
		})
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				if g, w := c[i+j*ldc], want[i+j*ldc]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%v kernel ta=%v tb=%v m=%d n=%d k=%d alpha=%v beta=%v at (%d,%d): got %v, FMA reference %v",
						kern, ta, tb, m, n, k, alpha, beta, i, j, g, w)
				}
			}
		}
	}
}

// TestGemmKernelsBitwiseIdentical pins the bitwise contract: every kernel
// the host supports must reproduce the math.FMA reference exactly across
// the micro-tile (24×8) and block (MC 144, KC 256, NC 512) boundaries, all
// transposes, alpha/beta variants and lda > m. The AVX2 kernel runs on
// AVX-512 hosts too, so a mismatch between the two shows up wherever the
// test runs on the wider one.
func TestGemmKernelsBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ks := []int{255, 256, 257}
	// Every tile and MC edge in m meets every tile edge in n, and the tile
	// edges in m meet the NC edge in n; k cycles so that every m and every n
	// meets each KC edge.
	var shapes [][3]int
	cross := func(ms, ns []int) {
		for im, m := range ms {
			for in, n := range ns {
				shapes = append(shapes, [3]int{m, n, ks[(im+in)%len(ks)]})
			}
		}
	}
	cross([]int{23, 24, 25, 47, 48, 143, 144, 145}, []int{7, 8, 9})
	cross([]int{23, 24, 25}, []int{511, 512, 513})
	shapes = append(shapes, [3]int{145, 513, 257})
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				ar, ac := m, k
				if ta {
					ar, ac = k, m
				}
				br, bc := k, n
				if tb {
					br, bc = n, k
				}
				lda, ldb, ldc := ar+3, br+1, m+2
				a := randMat(rng, ar, ac, lda)
				b := randMat(rng, br, bc, ldb)
				c0 := randMat(rng, m, n, ldc)
				sums := blockChains(ta, tb, m, n, k, a, lda, b, ldb)
				for _, alpha := range []float64{1, -0.5, 2} {
					for _, beta := range []float64{0, 0.25, 1} {
						want := append([]float64(nil), c0...)
						applyChains(sums, m, n, alpha, beta, want, ldc)
						checkBitwise(t, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c0, want, ldc)
					}
				}
			}
		}
	}
}

// FuzzGemmKernels checks random shapes, coefficients and transposes: every
// supported kernel must match the math.FMA reference bit for bit, and the
// result must agree with the naive triple loop within the rounding bound
// of a length-k dot product. The seed corpus lives in testdata/fuzz.
func FuzzGemmKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, m8, n8 uint8, k16 uint16, alpha, beta float64, ta, tb bool, seed int64) {
		if !(math.Abs(alpha) <= 1e6 && math.Abs(beta) <= 1e6) {
			t.Skip("coefficients outside the finite range the bound covers")
		}
		m, n, k := int(m8)%160+1, int(n8)%64+1, int(k16)%300+1
		rng := rand.New(rand.NewSource(seed))
		ar, ac := m, k
		if ta {
			ar, ac = k, m
		}
		br, bc := k, n
		if tb {
			br, bc = n, k
		}
		lda, ldb, ldc := ar+1, br+2, m+3
		a := randMat(rng, ar, ac, lda)
		b := randMat(rng, br, bc, ldb)
		c0 := randMat(rng, m, n, ldc)
		want := append([]float64(nil), c0...)
		applyChains(blockChains(ta, tb, m, n, k, a, lda, b, ldb), m, n, alpha, beta, want, ldc)
		checkBitwise(t, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c0, want, ldc)

		opA := opMat(ta, m, k, a, lda)
		opB := opMat(tb, k, n, b, ldb)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				var s, mass float64
				for l := 0; l < k; l++ {
					p := opA[i+l*m] * opB[l+j*k]
					s += p
					mass += math.Abs(p)
				}
				cv := c0[i+j*ldc]
				if beta == 0 {
					cv = 0
				}
				naive := alpha*s + beta*cv
				bound := 4*float64(k+2)*machEps*(math.Abs(alpha)*mass+math.Abs(beta*cv)) + 0x1p-1000
				if diff := math.Abs(want[i+j*ldc] - naive); diff > bound {
					t.Fatalf("m=%d n=%d k=%d alpha=%v beta=%v at (%d,%d): %v vs naive %v (|diff| %g > %g)",
						m, n, k, alpha, beta, i, j, want[i+j*ldc], naive, diff, bound)
				}
			}
		}
	})
}

// BenchmarkGemmKernels measures each kernel the host supports at the 256³
// reference shape (Dgemm's blocked path, packing A per call) and at the
// lib-lowdefl root merge's UpdateVect shape 600×150×600 (PackedGemm on an
// operand packed once, as the PackV/UpdateVect tasks run it).
func BenchmarkGemmKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, kern := range supportedKernels() {
		for _, sh := range []struct{ m, n, k int }{{256, 256, 256}, {600, 150, 600}} {
			a := randMat(rng, sh.m, sh.k, sh.m)
			bb := randMat(rng, sh.k, sh.n, sh.k)
			c := make([]float64, sh.m*sh.n)
			b.Run(fmt.Sprintf("%v/%dx%dx%d", kern, sh.m, sh.n, sh.k), func(b *testing.B) {
				withKernel(kern, func() {
					if sh.m == sh.n {
						for i := 0; i < b.N; i++ {
							gemmBlocked(false, false, sh.m, sh.n, sh.k, 1, a, sh.m, bb, sh.k, 0, c, sh.m)
						}
					} else {
						pa := PackA(false, sh.m, sh.k, a, sh.m)
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							PackedGemm(pa, sh.n, 1, bb, sh.k, 0, c, sh.m)
						}
						b.StopTimer()
						pa.Release()
					}
				})
				b.ReportMetric(2*float64(sh.m)*float64(sh.n)*float64(sh.k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
