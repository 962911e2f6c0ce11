//go:build !amd64

package blas

// Non-amd64 platforms have no assembly micro-kernel: simd.CPULevel is
// LevelNone, so the blocked GEMM path stays disabled (Dgemm keeps the
// register-tiled kernels) and the packed entry points run the portable
// ukernelGeneric.

func ukernelAsm(kern gemmKernel, kc int, ap, bp []float64, c []float64, ldc int, alpha float64) {
	panic("blas: assembly micro-kernel called without assembly support")
}
