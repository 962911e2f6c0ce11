//go:build amd64

package blas

// ukernel24x8avx512 and ukernel24x8avx2 are the register micro-kernels
// (ukernel_amd64.s): C(0:24, 0:8) += alpha * Ap·Bp over kc packed k steps,
// with the per-element arithmetic of ukernelGeneric. Only called on full
// tiles; microTile runs edge tiles through them on a stack copy.
//
//go:noescape
func ukernel24x8avx512(kc int, ap, bp []float64, c []float64, ldc int, alpha float64)

//go:noescape
func ukernel24x8avx2(kc int, ap, bp []float64, c []float64, ldc int, alpha float64)

// ukernelAsm runs the full 24×8 tile at c through the assembly kernel kern.
func ukernelAsm(kern gemmKernel, kc int, ap, bp []float64, c []float64, ldc int, alpha float64) {
	if kern == kernelAVX512 {
		ukernel24x8avx512(kc, ap, bp, c, ldc, alpha)
	} else {
		ukernel24x8avx2(kc, ap, bp, c, ldc, alpha)
	}
}
