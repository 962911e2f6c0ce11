//go:build amd64

package blas

// cpuidProbe and xgetbvProbe are implemented in ukernel_amd64.s.
func cpuidProbe(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbvProbe() (eax, edx uint32)

// ukernel24x8avx512 and ukernel24x8avx2 are the register micro-kernels
// (ukernel_amd64.s): C(0:24, 0:8) += alpha * Ap·Bp over kc packed k steps,
// with the per-element arithmetic of ukernelGeneric. Only called on full
// tiles; microTile runs edge tiles through them on a stack copy.
//
//go:noescape
func ukernel24x8avx512(kc int, ap, bp []float64, c []float64, ldc int, alpha float64)

//go:noescape
func ukernel24x8avx2(kc int, ap, bp []float64, c []float64, ldc int, alpha float64)

// kernel is the micro-kernel the blocked GEMM runs, chosen once from
// CPUID/XGETBV. Tests switch it through withKernel.
var kernel = detectKernel()

// ukernelAsm runs the full 24×8 tile at c through the assembly kernel kern.
func ukernelAsm(kern gemmKernel, kc int, ap, bp []float64, c []float64, ldc int, alpha float64) {
	if kern == kernelAVX512 {
		ukernel24x8avx512(kc, ap, bp, c, ldc, alpha)
	} else {
		ukernel24x8avx2(kc, ap, bp, c, ldc, alpha)
	}
}

// detectKernel picks the widest kernel the CPU and OS support. Both need
// AVX2 and FMA in CPUID and the OS saving the ymm state (XCR0 bits 1 and
// 2); AVX-512 also needs AVX512F and the OS saving the opmask and zmm state
// (XCR0 bits 5, 6 and 7).
func detectKernel() gemmKernel {
	maxID, _, _, _ := cpuidProbe(0, 0)
	if maxID < 7 {
		return kernelGeneric
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
		return kernelGeneric
	}
	switch xcr0, _ := xgetbvProbe(); {
	case xcr0&0xE6 == 0xE6 && ebx7&avx512f != 0:
		return kernelAVX512
	case xcr0&6 == 6:
		return kernelAVX2
	}
	return kernelGeneric
}
