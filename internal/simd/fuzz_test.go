package simd

import (
	"encoding/binary"
	"math"
	"testing"
)

// decodeKernelInput turns fuzz bytes into kernel operands: byte 0 is the
// slice length n, the next 16 bytes are the scalars a and b (little-endian
// float64, zero-filled when the input is short), and the remaining 8-byte
// words fill x, y and z in turn, reused cyclically (all zero when there are
// none). Any bit pattern is a valid operand: NaN, ±Inf, -0 and subnormals
// included.
func decodeKernelInput(data []byte) (x, y, z []float64, a, b float64) {
	next := func(k int) []byte {
		k = min(k, len(data))
		p := data[:k]
		data = data[k:]
		return p
	}
	word := func(p []byte) float64 {
		var buf [8]byte
		copy(buf[:], p)
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	}
	n := 0
	if p := next(1); len(p) == 1 {
		n = int(p[0])
	}
	a, b = word(next(8)), word(next(8))
	words := make([]float64, len(data)/8)
	for i := range words {
		words[i] = word(next(8))
	}
	xyz := make([]float64, 3*n)
	if len(words) > 0 {
		for i := range xyz {
			xyz[i] = words[i%len(words)]
		}
	}
	return xyz[:n:n], xyz[n : 2*n : 2*n], xyz[2*n:], a, b
}

// kernelOutputs runs every kernel of the package once on the operands
// (copying those a kernel writes in place) and returns all they produced in
// a fixed order. a and b are the root representation (org, tau) of the
// shifted kernels, with y as their poles. SecularSums gets the integer
// weights Dlaed4 passes; its contract requires exactly representable ones.
func kernelOutputs(x, y, z []float64, a, b float64) []float64 {
	n := len(x)
	cp := func(v []float64) []float64 { return append([]float64(nil), v...) }
	var out []float64
	s1, d1, w1 := SecularSums(x, y, a, b, float64(n), -1)
	s2, d2, w2 := SecularSums(x, y, a, b, 1, 1)
	out = append(out, s1, d1, w1, s2, d2, w2, ShiftedSumRatios(y, x, a, b))

	dst := make([]float64, n)
	ShiftInto(dst, y, a, b)
	out = append(out, dst...)
	u := cp(x)
	ShiftInto(u, u, 0, b)
	out = append(out, u...)

	u, v := cp(x), cp(y)
	Rot(u, v, a, b)
	out = append(append(out, u...), v...)

	u = cp(z)
	MulRatioDiff(u, y, a, b, a)
	out = append(out, u...)
	u = cp(z)
	MulRatioDiff(u, y, a, b, b)
	out = append(out, u...)
	out = append(out, RatioSumSq(dst, x, y, a, b))
	out = append(out, dst...)
	ss, sx, sy := RatioDots(x, y, z, x, a, b)
	out = append(out, ss, sx, sy)
	u = cp(x)
	MulInto(u, y)
	out = append(out, u...)
	NegSqrtSign(dst, x, y)
	out = append(out, dst...)

	if n > 0 {
		r2, v2 := TridiagResidual(y, z[:n-1], x, a)
		out = append(out, r2, v2)
	}
	dot, absdot := DotPairAbs(x, z, y)
	return append(out, dot, absdot, Sum(x))
}

// FuzzSIMDKernels checks the package's bit contract on arbitrary operands:
// every kernel gives the same bytes with the assembly kernels off and on
// (any NaN matching any NaN). The seed corpus in testdata/fuzz covers every
// tail length 0–3 and NaN, ±Inf, -0 and subnormal operands, and the
// shift-* files put ±0, subnormals, ±Inf and NaN in the shifted kernels'
// (org, tau); `make fuzz` searches further for a fixed time.
func FuzzSIMDKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if !Available() {
			t.Skip("no AVX2+FMA assembly kernels on this platform")
		}
		defer SetSIMD(Available())
		x, y, z, a, b := decodeKernelInput(data)
		SetSIMD(false)
		want := kernelOutputs(x, y, z, a, b)
		SetSIMD(true)
		got := kernelOutputs(x, y, z, a, b)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("n=%d a=%g b=%g: output %d is %g (%#x) with SIMD, %g (%#x) without",
					len(x), a, b, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	})
}
