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

// shiftScalars are the root representations (org, tau) the shifted kernels
// are compared under: ordinary values plus ±0, subnormals, ±Inf and NaN in
// either slot. The kernels form delta = (d-org)-tau in-lane, so a special
// scalar reaches every lane.
var shiftScalars = []float64{0, math.Copysign(0, -1), 5e-324, -0x1.8p-1060, math.Inf(1), math.Inf(-1), math.NaN(), 0.75, -1e-9}

// compareShifted is compareDispatch for the kernels that take the poles and
// one root's (org, tau) in place of a delta column: every input family and
// length, under every pair of shiftScalars, with the assembly off and on.
func compareShifted(t *testing.T, f func(z, d []float64, org, tau float64) []float64) {
	compareDispatch(t, func(z, den []float64) []float64 {
		var out []float64
		for _, org := range shiftScalars {
			for _, tau := range shiftScalars {
				out = append(out, f(append([]float64(nil), z...), append([]float64(nil), den...), org, tau)...)
			}
		}
		return out
	})
}

func TestSecularSumsMatchesScalar(t *testing.T) {
	compareShifted(t, func(z, d []float64, org, tau float64) []float64 {
		// Forward ψ weights (w0=n, step -1) and descending-φ weights (w0=1,
		// step +1), both as used by Dlaed4.
		s1, d1, w1 := SecularSums(z, d, org, tau, float64(len(z)), -1)
		s2, d2, w2 := SecularSums(z, d, org, tau, 1, 1)
		return []float64{s1, d1, w1, s2, d2, w2}
	})
}

func TestShiftedSumRatiosMatchesScalar(t *testing.T) {
	compareShifted(t, func(z, d []float64, org, tau float64) []float64 {
		return []float64{ShiftedSumRatios(d, z, org, tau)}
	})
}

func TestShiftIntoMatchesScalar(t *testing.T) {
	compareShifted(t, func(z, d []float64, org, tau float64) []float64 {
		dst := make([]float64, len(d))
		ShiftInto(dst, d, org, tau)
		// In place (dst == d).
		ShiftInto(z, z, org, tau)
		return append(dst, z...)
	})
}

// TestShiftedKernelsFormTheShift pins what the in-lane delta is: each
// shifted kernel computes the same bits as its delta-column form fed
// ShiftInto's output, on both dispatch paths. This is what lets Dlaed4 hand
// out (org, tau) instead of a delta column.
func TestShiftedKernelsFormTheShift(t *testing.T) {
	defer SetSIMD(Available())
	rng := rand.New(rand.NewSource(5))
	for _, on := range []bool{false, true} {
		SetSIMD(on)
		for _, n := range testLengths {
			z, d := inputCases[0].gen(rng, n)
			x, y := inputCases[0].gen(rng, n)
			org, tau := 0.25, 1e-7
			delta := make([]float64, n)
			ShiftInto(delta, d, org, tau)
			// With org = tau = 0 the in-lane shift is the identity, so each
			// kernel applied to delta is its delta-column form.
			s1, d1, w1 := SecularSums(z, d, org, tau, float64(n), -1)
			s2, d2, w2 := SecularSums(z, delta, 0, 0, float64(n), -1)
			if !sameBits(s1, s2) || !sameBits(d1, d2) || !sameBits(w1, w2) {
				t.Errorf("simd=%v n=%d: SecularSums (%g,%g,%g) from (org, tau), (%g,%g,%g) from delta", on, n, s1, d1, w1, s2, d2, w2)
			}
			u1, u2 := make([]float64, n), make([]float64, n)
			r1, r2 := RatioSumSq(u1, z, d, org, tau), RatioSumSq(u2, z, delta, 0, 0)
			q1, a1, b1 := RatioDots(z, d, x, y, org, tau)
			q2, a2, b2 := laneDots(u2, x, y)
			if !sameBits(r1, r2) || !sameBits(q1, q2) || !sameBits(a1, a2) || !sameBits(b1, b2) {
				t.Errorf("simd=%v n=%d: RatioSumSq %g/%g, RatioDots (%g,%g,%g)/(%g,%g,%g)", on, n, r1, r2, q1, a1, b1, q2, a2, b2)
			}
			for i := range u1 {
				if !sameBits(u1[i], u2[i]) {
					t.Fatalf("simd=%v n=%d: RatioSumSq dst[%d] %g from (org, tau), %g from delta", on, n, i, u1[i], u2[i])
				}
			}
			w1v, w2v := make([]float64, n), make([]float64, n)
			for i := range w1v {
				w1v[i], w2v[i] = 1, 1
			}
			MulRatioDiff(w1v, d, org, tau, 0.5)
			for i := range w2v {
				w2v[i] *= delta[i] / (d[i] - 0.5)
			}
			for i := range w1v {
				if !sameBits(w1v[i], w2v[i]) {
					t.Fatalf("simd=%v n=%d: MulRatioDiff w[%d] %g, want %g", on, n, i, w1v[i], w2v[i])
				}
			}
		}
	}
}

// laneDots is RatioDots over an already formed vector u, in the package's
// lane order: four accumulators over the 4-aligned prefix, combined as
// (l0+l2)+(l1+l3), then the tail.
func laneDots(u, x, y []float64) (ss, sx, sy float64) {
	var q, a, b [4]float64
	n4 := len(u) &^ 3
	for i := 0; i < n4; i++ {
		q[i%4] += u[i] * u[i]
		a[i%4] += x[i] * u[i]
		b[i%4] += y[i] * u[i]
	}
	ss, sx, sy = (q[0]+q[2])+(q[1]+q[3]), (a[0]+a[2])+(a[1]+a[3]), (b[0]+b[2])+(b[1]+b[3])
	for i := n4; i < len(u); i++ {
		ss += u[i] * u[i]
		sx += x[i] * u[i]
		sy += y[i] * u[i]
	}
	return ss, sx, sy
}

// TestShiftIntoZeroOriginIsSubtraction pins that ShiftInto with a zero
// origin is plain subtraction, x[j] - eta bit for bit on both dispatch
// paths (x - 0 == x for every x, -0 included): the δ-updating Dlaed4
// iteration kept as a reference in internal/lapack's tests relies on it.
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
	compareShifted(t, func(z, d []float64, org, tau float64) []float64 {
		w := make([]float64, len(z))
		for i := range w {
			w[i] = 1 - float64(i%7)/3
		}
		MulRatioDiff(w, d, org, tau, 0.25)
		return w
	})
}

func TestRatioSumSqMatchesScalar(t *testing.T) {
	compareShifted(t, func(z, d []float64, org, tau float64) []float64 {
		dst := make([]float64, len(z))
		s := RatioSumSq(dst, z, d, org, tau)
		return append(dst, s)
	})
}

func TestRatioDotsMatchesScalar(t *testing.T) {
	compareShifted(t, func(z, d []float64, org, tau float64) []float64 {
		// The carrier rows: one dense, one zero-padded on its first half as
		// UpdateZ's bottom row is.
		x := make([]float64, len(z))
		y := make([]float64, len(z))
		for i := range x {
			x[i] = 1 - float64(i%5)/2
			if i >= len(z)/2 {
				y[i] = z[len(z)-1-i]
			}
		}
		ss, sx, sy := RatioDots(z, d, x, y, org, tau)
		return []float64{ss, sx, sy}
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
			s, ds, ws := SecularSums(z, den, 0, 0, float64(n), -1)
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
		s, _, ws := SecularSums(z, den, 0, 0, 1, 1)
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
