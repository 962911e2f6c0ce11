package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tridiag/internal/simd"
)

const tol = 1e-13

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func almostEqual(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

func TestDdot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 7, 64, 101} {
		x, y := randVec(rng, n), randVec(rng, n)
		var want float64
		for i := 0; i < n; i++ {
			want += x[i] * y[i]
		}
		if got := Ddot(n, x, 1, y, 1); !almostEqual(got, want, tol) {
			t.Errorf("Ddot n=%d: got %v want %v", n, got, want)
		}
	}
}

func TestDdotStrided(t *testing.T) {
	x := []float64{1, 99, 2, 99, 3}
	y := []float64{4, 5, 6}
	if got := Ddot(3, x, 2, y, 1); got != 1*4+2*5+3*6 {
		t.Errorf("strided Ddot: got %v", got)
	}
	// negative increment walks x backwards
	if got := Ddot(3, y, -1, y, 1); got != 6*4+5*5+4*6 {
		t.Errorf("negative-inc Ddot: got %v", got)
	}
}

func TestDaxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 5, 33} {
		x, y := randVec(rng, n), randVec(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = y[i] + 2.5*x[i]
		}
		Daxpy(n, 2.5, x, 1, y, 1)
		for i := range want {
			if !almostEqual(y[i], want[i], tol) {
				t.Fatalf("Daxpy n=%d i=%d: got %v want %v", n, i, y[i], want[i])
			}
		}
	}
}

func TestDaxpyZeroAlphaNoop(t *testing.T) {
	y := []float64{1, 2, 3}
	Daxpy(3, 0, []float64{9, 9, 9}, 1, y, 1)
	if y[0] != 1 || y[1] != 2 || y[2] != 3 {
		t.Errorf("alpha=0 modified y: %v", y)
	}
}

func TestDscalDcopyDswap(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	Dscal(4, -2, x, 1)
	if x[0] != -2 || x[3] != -8 {
		t.Errorf("Dscal: %v", x)
	}
	y := make([]float64, 4)
	Dcopy(4, x, 1, y, 1)
	if y[2] != -6 {
		t.Errorf("Dcopy: %v", y)
	}
	z := []float64{10, 20, 30, 40}
	Dswap(4, y, 1, z, 1)
	if y[0] != 10 || z[0] != -2 {
		t.Errorf("Dswap: y=%v z=%v", y, z)
	}
}

func TestDnrm2MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 17, 200} {
		x := randVec(rng, n)
		var ss float64
		for _, v := range x {
			ss += v * v
		}
		want := math.Sqrt(ss)
		if got := Dnrm2(n, x, 1); !almostEqual(got, want, tol) {
			t.Errorf("Dnrm2 n=%d: got %v want %v", n, got, want)
		}
	}
}

func TestDnrm2Extremes(t *testing.T) {
	big := math.MaxFloat64 / 4
	if got := Dnrm2(2, []float64{big, big}, 1); math.IsInf(got, 0) {
		t.Errorf("Dnrm2 overflowed: %v", got)
	}
	tiny := 1e-300
	got := Dnrm2(2, []float64{tiny, tiny}, 1)
	want := tiny * math.Sqrt2
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("Dnrm2 underflow: got %v want %v", got, want)
	}
	if Dnrm2(3, []float64{0, 0, 0}, 1) != 0 {
		t.Error("Dnrm2 of zero vector")
	}
}

func TestIdamax(t *testing.T) {
	if got := Idamax(5, []float64{1, -7, 3, 7, -2}, 1); got != 1 {
		t.Errorf("Idamax ties should pick first: got %d", got)
	}
	if got := Idamax(0, nil, 1); got != -1 {
		t.Errorf("Idamax empty: got %d", got)
	}
}

func TestDrotPreservesNorm(t *testing.T) {
	f := func(xs, ys [4]float64, theta float64) bool {
		c, s := math.Cos(theta), math.Sin(theta)
		x, y := xs[:], ys[:]
		for i := range x { // keep magnitudes bounded so x²+y² cannot overflow
			x[i] = math.Remainder(x[i], 1e6)
			y[i] = math.Remainder(y[i], 1e6)
			if math.IsNaN(x[i]) {
				x[i] = 0
			}
			if math.IsNaN(y[i]) {
				y[i] = 0
			}
		}
		n0 := Ddot(4, x, 1, x, 1) + Ddot(4, y, 1, y, 1)
		xc, yc := append([]float64(nil), x...), append([]float64(nil), y...)
		Drot(4, xc, 1, yc, 1, c, s)
		n1 := Ddot(4, xc, 1, xc, 1) + Ddot(4, yc, 1, yc, 1)
		return almostEqual(n0, n1, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDrotUnitStrideMatchesStrided checks that the unit-stride path
// (simd.Rot) rounds exactly as the strided scalar loop, for every length
// 0…33 (each tail shape around the 4-wide kernel), with the assembly kernel
// on and off, on ordinary values and on signed zeros, infinities, NaN and
// subnormals.
func TestDrotUnitStrideMatchesStrided(t *testing.T) {
	defer simd.SetSIMD(simd.Available())
	rng := rand.New(rand.NewSource(33))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -0x1p-1040}
	val := func(special bool) float64 {
		if special && rng.Intn(2) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for _, on := range []bool{false, true} {
		simd.SetSIMD(on)
		for n := 0; n <= 33; n++ {
			for _, special := range []bool{false, true} {
				x := make([]float64, n)
				y := make([]float64, n)
				xs := make([]float64, 2*n)
				ys := make([]float64, 3*n)
				for i := range x {
					x[i], y[i] = val(special), val(special)
					xs[2*i], ys[3*i] = x[i], y[i]
				}
				c, s := math.Cos(float64(n)), math.Sin(float64(n))
				Drot(n, x, 1, y, 1, c, s)
				Drot(n, xs, 2, ys, 3, c, s)
				for i := 0; i < n; i++ {
					if !same(x[i], xs[2*i]) || !same(y[i], ys[3*i]) {
						t.Fatalf("simd=%v n=%d i=%d: unit stride (%g, %g), strided (%g, %g)",
							simd.Active(), n, i, x[i], y[i], xs[2*i], ys[3*i])
					}
				}
			}
		}
	}
}
