package simd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func benchInputs(k int) (z, den []float64) {
	rng := rand.New(rand.NewSource(1))
	z = make([]float64, k)
	den = make([]float64, k)
	for i := range z {
		z[i] = 2*rng.Float64() - 1
		den[i] = 0.5 + rng.Float64()
		if i%2 == 0 {
			den[i] = -den[i]
		}
	}
	return z, den
}

func benchBoth(b *testing.B, k int, f func(z, den []float64)) {
	z, den := benchInputs(k)
	for _, mode := range []struct {
		name string
		on   bool
	}{{"scalar", false}, {"simd", true}} {
		b.Run(mode.name, func(b *testing.B) {
			if mode.on && !Available() {
				b.Skip("no AVX2+FMA")
			}
			defer SetSIMD(Available())
			SetSIMD(mode.on)
			b.SetBytes(int64(16 * k))
			for i := 0; i < b.N; i++ {
				f(z, den)
			}
		})
	}
}

// The secular kernels take the poles and one root's (org, tau); benchInputs'
// den serves as the poles, and the shift keeps every delta away from zero.
const benchOrg, benchTau = 0.1, 1e-8

func BenchmarkSecularSums(b *testing.B) {
	for _, k := range []int{64, 256, 1024} {
		b.Run(sizeName(k), func(b *testing.B) {
			benchBoth(b, k, func(z, den []float64) {
				SecularSums(z, den, benchOrg, benchTau, float64(len(z)), -1)
			})
		})
	}
}

func BenchmarkShiftedSumRatios(b *testing.B) {
	for _, k := range []int{64, 256, 1024} {
		b.Run(sizeName(k), func(b *testing.B) {
			benchBoth(b, k, func(z, den []float64) {
				ShiftedSumRatios(den, z, benchOrg, benchTau)
			})
		})
	}
}

func BenchmarkMulRatioDiff(b *testing.B) {
	w := make([]float64, 1024)
	for _, k := range []int{64, 256, 1024} {
		b.Run(sizeName(k), func(b *testing.B) {
			benchBoth(b, k, func(z, den []float64) {
				MulRatioDiff(w[:len(z)], den, benchOrg, benchTau, 0.3)
			})
		})
	}
}

func BenchmarkRatioSumSq(b *testing.B) {
	dst := make([]float64, 1024)
	for _, k := range []int{64, 256, 1024} {
		b.Run(sizeName(k), func(b *testing.B) {
			benchBoth(b, k, func(z, den []float64) {
				RatioSumSq(dst[:len(z)], z, den, benchOrg, benchTau)
			})
		})
	}
}

// BenchmarkRatioDots measures the values-only UpdateZ pass: one secular
// vector formed in-lane and dotted with two carrier rows.
func BenchmarkRatioDots(b *testing.B) {
	for _, k := range []int{64, 256, 1024} {
		b.Run(sizeName(k), func(b *testing.B) {
			benchBoth(b, k, func(z, den []float64) {
				RatioDots(z, den, z, den, benchOrg, benchTau)
			})
		})
	}
}

// BenchmarkShiftInto measures the delta column Dlaed4 writes at return when
// its caller passes one: one origin shift of a k-term column.
func BenchmarkShiftInto(b *testing.B) {
	for _, k := range []int{64, 256, 1024} {
		b.Run(sizeName(k), func(b *testing.B) {
			benchBoth(b, k, func(z, den []float64) {
				ShiftInto(z, den, 0.1, 1e-8)
			})
		})
	}
}

// BenchmarkRot measures blas.Drot's unit-stride body at the column heights
// of the Dsteqr leaves (about 31 rows on glued W21, up to the 48-row
// MinPartition) and of a wider rotation.
func BenchmarkRot(b *testing.B) {
	c, s := math.Cos(0.3), math.Sin(0.3)
	for _, n := range []int{31, 48, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchBoth(b, n, func(x, y []float64) {
				Rot(x, y, c, s)
			})
		})
	}
}

func sizeName(k int) string { return fmt.Sprintf("k=%d", k) }
