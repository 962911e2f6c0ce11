package simd

import (
	"math"
	"math/rand"
	"testing"
)

// testLengths exercises every tail shape (0–3 leftover lanes), the empty and
// pure-tail lengths 0–3, and larger panels.
var testLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 64, 257, 1024}

type inputCase struct {
	name string
	gen  func(rng *rand.Rand, n int) (z, den []float64)
}

// specials are the IEEE edge values every kernel must treat the same on both
// dispatch paths: signed zeros, infinities, NaN and subnormals.
var specials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, 0x1p-1030, -0x1.8p-1060, math.MaxFloat64, -math.SmallestNonzeroFloat64 * 3}

// inputCases covers the regimes the secular phase actually sees: generic
// spectra, near-pole clustered denominators with gaps near eps, denormal
// z-components after deflation scaling, and extreme ±1e±300 magnitudes —
// plus IEEE special values mixed into ordinary ones.
var inputCases = []inputCase{
	{"random", func(rng *rand.Rand, n int) ([]float64, []float64) {
		z := make([]float64, n)
		den := make([]float64, n)
		for i := range z {
			z[i] = 2*rng.Float64() - 1
			den[i] = (0.5 + rng.Float64()) * sign1(rng)
		}
		return z, den
	}},
	{"clustered-poles", func(rng *rand.Rand, n int) ([]float64, []float64) {
		z := make([]float64, n)
		den := make([]float64, n)
		for i := range z {
			z[i] = 2*rng.Float64() - 1
			// Gaps within a few ulps of a pole: |den| in [eps, 16eps).
			den[i] = (1 + 15*rng.Float64()) * 0x1p-52 * sign1(rng)
		}
		return z, den
	}},
	{"denormal-z", func(rng *rand.Rand, n int) ([]float64, []float64) {
		z := make([]float64, n)
		den := make([]float64, n)
		for i := range z {
			z[i] = float64(1+rng.Intn(1<<20)) * 5e-324
			den[i] = (0.5 + rng.Float64()) * sign1(rng)
		}
		return z, den
	}},
	{"huge-1e300", func(rng *rand.Rand, n int) ([]float64, []float64) {
		z := make([]float64, n)
		den := make([]float64, n)
		for i := range z {
			z[i] = (0.5 + rng.Float64()) * 1e300 * sign1(rng)
			den[i] = (0.5 + rng.Float64()) * 1e300 * sign1(rng)
		}
		return z, den
	}},
	{"tiny-1e-300", func(rng *rand.Rand, n int) ([]float64, []float64) {
		z := make([]float64, n)
		den := make([]float64, n)
		for i := range z {
			z[i] = (0.5 + rng.Float64()) * 1e-300 * sign1(rng)
			den[i] = (0.5 + rng.Float64()) * sign1(rng)
		}
		return z, den
	}},
	{"ieee-specials", func(rng *rand.Rand, n int) ([]float64, []float64) {
		z := make([]float64, n)
		den := make([]float64, n)
		pick := func() float64 {
			if rng.Intn(3) == 0 {
				return (0.5 + rng.Float64()) * sign1(rng)
			}
			return specials[rng.Intn(len(specials))]
		}
		for i := range z {
			z[i], den[i] = pick(), pick()
		}
		return z, den
	}},
}

func sign1(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return -1
	}
	return 1
}

// sameBits reports whether a and b are the same float64 bit for bit, with
// every NaN equal to every other (the kernels promise the same operations,
// not the same NaN payloads).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// compareDispatch runs f for every input family and length, once with the
// assembly kernels forced off and once forced on, and requires the two
// results to be identical bit for bit.
func compareDispatch(t *testing.T, f func(z, den []float64) []float64) {
	if !Available() {
		t.Skip("no AVX2+FMA assembly kernels on this platform")
	}
	defer SetSIMD(Available())
	rng := rand.New(rand.NewSource(20150525))
	for _, tc := range inputCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range testLengths {
				z, den := tc.gen(rng, n)
				SetSIMD(false)
				want := f(append([]float64(nil), z...), append([]float64(nil), den...))
				SetSIMD(true)
				got := f(append([]float64(nil), z...), append([]float64(nil), den...))
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Errorf("n=%d out[%d]: SIMD=%g (%#x) scalar=%g (%#x)",
							n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		})
	}
}

func TestSecularSumsMatchesScalar(t *testing.T) {
	compareDispatch(t, func(z, den []float64) []float64 {
		// Forward ψ weights (w0=n, step -1) and descending-φ weights (w0=1,
		// step +1), both as used by Dlaed4.
		s1, d1, w1 := SecularSums(z, den, float64(len(z)), -1)
		s2, d2, w2 := SecularSums(z, den, 1, 1)
		return []float64{s1, d1, w1, s2, d2, w2}
	})
}

func TestShiftedSumRatiosMatchesScalar(t *testing.T) {
	compareDispatch(t, func(z, den []float64) []float64 {
		var org, tau float64
		if len(den) > 0 {
			org = den[0]
			tau = den[len(den)-1] * 0x1p-30
		}
		return []float64{
			ShiftedSumRatios(den, z, org, tau),
			SumRatios(z, den),
		}
	})
}

func TestShiftIntoMatchesScalar(t *testing.T) {
	compareDispatch(t, func(z, den []float64) []float64 {
		var org, tau float64
		if len(z) > 0 {
			org, tau = den[0], z[len(z)-1]*0x1p-20
		}
		dst := make([]float64, len(den))
		ShiftInto(dst, den, org, tau)
		// Dlaed4's per-iteration update: in place, origin 0.
		ShiftInto(z, z, 0, tau)
		return append(dst, z...)
	})
}

// TestShiftIntoZeroOriginIsSubtraction pins the identity Dlaed4's update
// relies on: ShiftInto(x, x, 0, eta) is x[j] - eta bit for bit on both
// dispatch paths, because x - 0 == x for every x, -0 included.
func TestShiftIntoZeroOriginIsSubtraction(t *testing.T) {
	defer SetSIMD(Available())
	rng := rand.New(rand.NewSource(3))
	x := append([]float64(nil), specials...)
	for len(x) < 37 {
		x = append(x, rng.NormFloat64()*math.Ldexp(1, rng.Intn(80)-40))
	}
	etas := append([]float64{0.5, -3, 1e-300, 0x1p-52}, specials...)
	for _, on := range []bool{false, true} {
		SetSIMD(on)
		for _, eta := range etas {
			got := append([]float64(nil), x...)
			ShiftInto(got, got, 0, eta)
			for j := range x {
				if want := x[j] - eta; !sameBits(got[j], want) {
					t.Errorf("simd=%v eta=%g: x=%g gave %g (%#x), x-eta=%g (%#x)",
						Active(), eta, x[j], got[j], math.Float64bits(got[j]), want, math.Float64bits(want))
				}
			}
		}
	}
}

func TestRotMatchesScalar(t *testing.T) {
	compareDispatch(t, func(z, den []float64) []float64 {
		var out []float64
		for _, cs := range [][2]float64{{math.Cos(0.3), math.Sin(0.3)}, {0, 1}, {1, 0}, {-0.6, 0.8}, {math.Copysign(0, -1), -1}} {
			x := append([]float64(nil), z...)
			y := append([]float64(nil), den...)
			Rot(x, y, cs[0], cs[1])
			out = append(append(out, x...), y...)
		}
		return out
	})
}

func TestMulRatioDiffMatchesScalar(t *testing.T) {
	compareDispatch(t, func(z, den []float64) []float64 {
		w := make([]float64, len(z))
		for i := range w {
			w[i] = 1 - float64(i%7)/3
		}
		MulRatioDiff(w, z, den, 0.25)
		return w
	})
}

func TestRatioSumSqMatchesScalar(t *testing.T) {
	compareDispatch(t, func(z, den []float64) []float64 {
		dst := make([]float64, len(z))
		s := RatioSumSq(dst, z, den)
		return append(dst, s)
	})
}

func TestMulIntoMatchesScalar(t *testing.T) {
	compareDispatch(t, func(z, den []float64) []float64 {
		dst := append([]float64(nil), z...)
		MulInto(dst, den)
		return dst
	})
}

func TestNegSqrtSignMatchesScalar(t *testing.T) {
	compareDispatch(t, func(z, den []float64) []float64 {
		// p must be ≤ 0 (a product of an even sign pattern negated), so feed
		// -|z·den| and use den as the sign carrier.
		p := make([]float64, len(z))
		for i := range p {
			p[i] = -math.Abs(z[i] * den[i])
		}
		dst := make([]float64, len(p))
		NegSqrtSign(dst, p, den)
		// Also the aliased form used by ReduceW (dst == p).
		NegSqrtSign(p, p, den)
		return append(dst, p...)
	})
}

// TestSecularSumsAgainstNaive checks the weighted-prefix rewrite against a
// literal transcription of LAPACK's per-term running accumulation on benign
// all-positive inputs (no cancellation), where reassociation error stays
// well under the acceptance bound.
func TestSecularSumsAgainstNaive(t *testing.T) {
	defer SetSIMD(Available())
	rng := rand.New(rand.NewSource(7))
	for _, n := range testLengths {
		z := make([]float64, n)
		den := make([]float64, n)
		for i := range z {
			z[i] = 0.5 + rng.Float64()
			den[i] = 0.5 + rng.Float64()
		}
		// Naive forward pass: psi += p; erretm += psi after every term.
		var psi, dpsi, erretm float64
		for j := 0; j < n; j++ {
			tj := z[j] / den[j]
			psi += z[j] * tj
			dpsi += tj * tj
			erretm += psi
		}
		for _, on := range []bool{false, true} {
			SetSIMD(on)
			s, ds, ws := SecularSums(z, den, float64(n), -1)
			rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(b), 1e-300) }
			if rel(s, psi) > 1e-13 || rel(ds, dpsi) > 1e-13 || rel(ws, erretm) > 1e-13 {
				t.Errorf("n=%d simd=%v: got (%g,%g,%g) want (%g,%g,%g)", n, on, s, ds, ws, psi, dpsi, erretm)
			}
		}
	}
}

// TestDescendingWeightMapping checks the φ mapping: LAPACK's descending loop
// over j=k-1..ii+1 with erretm += phi per term weights term j (ascending
// index) by j-ii, i.e. w0=1, wstep=+1 over the ascending slice.
func TestDescendingWeightMapping(t *testing.T) {
	defer SetSIMD(Available())
	rng := rand.New(rand.NewSource(11))
	n := 13
	z := make([]float64, n)
	den := make([]float64, n)
	for i := range z {
		z[i] = 0.5 + rng.Float64()
		den[i] = -(0.5 + rng.Float64())
	}
	var phi, erretm float64
	for j := n - 1; j >= 0; j-- {
		tj := z[j] / den[j]
		phi += z[j] * tj
		erretm += phi
	}
	for _, on := range []bool{false, true} {
		SetSIMD(on)
		s, _, ws := SecularSums(z, den, 1, 1)
		if math.Abs(s-phi) > 1e-13*math.Abs(phi) || math.Abs(ws-erretm) > 1e-13*math.Abs(erretm) {
			t.Errorf("simd=%v: got s=%g ws=%g want phi=%g erretm=%g", on, s, ws, phi, erretm)
		}
	}
}

func TestSetSIMD(t *testing.T) {
	defer SetSIMD(Available())
	SetSIMD(false)
	if Active() {
		t.Fatal("Active() true after SetSIMD(false)")
	}
	SetSIMD(true)
	if Active() != Available() {
		t.Fatalf("Active()=%v, want Available()=%v", Active(), Available())
	}
}
