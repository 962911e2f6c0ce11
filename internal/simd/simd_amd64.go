//go:build amd64

package simd

// cpuidProbe and xgetbvProbe are implemented in simd_amd64.s.
func cpuidProbe(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbvProbe() (eax, edx uint32)

var cpuLevel = detectLevel()

// detectLevel is the standard AVX usability test: AVX2 and FMA in CPUID and
// the OS saving the ymm state (XCR0 bits 1 and 2); AVX-512 also needs
// AVX512F and the OS saving the opmask and zmm state (XCR0 bits 5, 6, 7).
func detectLevel() Level {
	maxID, _, _, _ := cpuidProbe(0, 0)
	if maxID < 7 {
		return LevelNone
	}
	_, _, ecx1, _ := cpuidProbe(1, 0)
	_, ebx7, _, _ := cpuidProbe(7, 0)
	const (
		fma     = 1 << 12 // CPUID.1:ECX
		osxsave = 1 << 27 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		avx512f = 1 << 16 // CPUID.(7,0):EBX
	)
	if ecx1&osxsave == 0 || ecx1&fma == 0 || ebx7&avx2 == 0 {
		return LevelNone
	}
	switch xcr0, _ := xgetbvProbe(); {
	case xcr0&0xE6 == 0xE6 && ebx7&avx512f != 0:
		return LevelAVX512
	case xcr0&6 == 6:
		return LevelAVX2
	}
	return LevelNone
}

// The AVX2+FMA kernels (simd_amd64.s). Each processes exactly len/4 quads —
// the Go wrappers pass 4-aligned slices and handle the tails — and
// accumulates with separate multiply and add so the results are bitwise
// identical to the portable lane-ordered fallbacks (see the package comment).
//
//go:noescape
func secularSumsAVX(z, d []float64, org, tau, w0, wstep float64) (s, ds, ws float64)

//go:noescape
func shiftedSumAVX(d, z []float64, org, tau float64) float64

//go:noescape
func shiftIntoAVX(dst, d []float64, org, tau float64)

//go:noescape
func rotAVX(x, y []float64, c, s float64)

//go:noescape
func mulRatioDiffAVX(w, d []float64, org, tau, dj float64)

//go:noescape
func ratioSumSqAVX(dst, num, d []float64, org, tau float64) float64

//go:noescape
func ratioDotsAVX(num, d, x, y []float64, org, tau float64) (ss, sx, sy float64)

//go:noescape
func mulIntoAVX(dst, src []float64)

//go:noescape
func negSqrtSignAVX(dst, p, sgn []float64)

//go:noescape
func tridiagResidualAVX(dd, em, ep, vm, vv, vp []float64, lam float64) (r2, v2 float64)

//go:noescape
func dotPairAbsAVX(x, ax, y []float64) (dot, absdot float64)

//go:noescape
func sumAVX(x []float64) float64
