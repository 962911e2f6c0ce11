#include "textflag.h"

// Both kernels below compute the same thing on the same packed layout:
// C(0:24, 0:8) += alpha * Ap·Bp over kc packed k steps, where the A
// micro-panel holds 24 values per k step and the B micro-panel 8, both
// contiguous, and C has column stride ldc (in elements). Every element of
// C is one FMA chain in k order starting from +0, then c = fma(alpha, acc,
// c): the arithmetic of ukernelGeneric, so all kernels agree bit for bit.
// kc must be >= 1 and the panels fully populated (zero padded at the edges
// by the packers).

// FMA3_512 folds one broadcast B value into the three accumulators of a
// column: acc_r += a_r * b for the 24 rows held in Z24..Z26.
#define FMA3_512(b, c0, c1, c2) \
	VFMADD231PD Z24, b, c0; \
	VFMADD231PD Z25, b, c1; \
	VFMADD231PD Z26, b, c2

// STEP512 is one k step of the 24×8 tile: the 24 A values at byte offset
// ao from SI into Z24..Z26, the 8 B values at byte offset bo from DI
// broadcast in turn, 24 FMAs into Z0..Z23.
#define STEP512(ao, bo) \
	VMOVUPD (ao)(SI), Z24; \
	VMOVUPD (ao+64)(SI), Z25; \
	VMOVUPD (ao+128)(SI), Z26; \
	VBROADCASTSD (bo)(DI), Z27; \
	VBROADCASTSD (bo+8)(DI), Z28; \
	FMA3_512(Z27, Z0, Z1, Z2); \
	FMA3_512(Z28, Z3, Z4, Z5); \
	VBROADCASTSD (bo+16)(DI), Z29; \
	VBROADCASTSD (bo+24)(DI), Z30; \
	FMA3_512(Z29, Z6, Z7, Z8); \
	FMA3_512(Z30, Z9, Z10, Z11); \
	VBROADCASTSD (bo+32)(DI), Z27; \
	VBROADCASTSD (bo+40)(DI), Z28; \
	FMA3_512(Z27, Z12, Z13, Z14); \
	FMA3_512(Z28, Z15, Z16, Z17); \
	VBROADCASTSD (bo+48)(DI), Z29; \
	VBROADCASTSD (bo+56)(DI), Z30; \
	FMA3_512(Z29, Z18, Z19, Z20); \
	FMA3_512(Z30, Z21, Z22, Z23)

// STORE3_512 applies C(0:24, j) = fma(alpha, acc_j, C(0:24, j)) at DX with
// alpha in Z31, then advances DX to the next column.
#define STORE3_512(c0, c1, c2) \
	VMOVUPD (DX), Z24; \
	VMOVUPD 64(DX), Z25; \
	VMOVUPD 128(DX), Z26; \
	VFMADD231PD c0, Z31, Z24; \
	VFMADD231PD c1, Z31, Z25; \
	VFMADD231PD c2, Z31, Z26; \
	VMOVUPD Z24, (DX); \
	VMOVUPD Z25, 64(DX); \
	VMOVUPD Z26, 128(DX); \
	ADDQ R8, DX

// func ukernel24x8avx512(kc int, ap, bp []float64, c []float64, ldc int, alpha float64)
//
// The AVX-512 kernel: the whole 24×8 tile accumulates in Z0..Z23 (column j
// in Z3j..Z3j+2). Each k step loads three A vectors, broadcasts the eight B
// values and issues 24 FMAs. AVX512F instructions only.
TEXT ·ukernel24x8avx512(SB), NOSPLIT, $0-96
	MOVQ kc+0(FP), CX
	MOVQ ap_base+8(FP), SI
	MOVQ bp_base+32(FP), DI
	MOVQ c_base+56(FP), DX
	MOVQ ldc+80(FP), R8
	SHLQ $3, R8             // column stride in bytes
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23

	MOVQ CX, R9
	SHRQ $1, CX             // k steps in pairs, then an odd one
	JZ   tail512

loop512:
	STEP512(0, 0)
	STEP512(192, 64)
	ADDQ $384, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  loop512

tail512:
	TESTQ $1, R9
	JZ   done512
	STEP512(0, 0)

done512:
	VBROADCASTSD alpha+88(FP), Z31
	STORE3_512(Z0, Z1, Z2)
	STORE3_512(Z3, Z4, Z5)
	STORE3_512(Z6, Z7, Z8)
	STORE3_512(Z9, Z10, Z11)
	STORE3_512(Z12, Z13, Z14)
	STORE3_512(Z15, Z16, Z17)
	STORE3_512(Z18, Z19, Z20)
	STORE3_512(Z21, Z22, Z23)
	VZEROUPPER
	RET

// FMA3_256 folds the broadcast B value in Y15 into the three accumulators
// of one sub-tile column: acc_r += a_r * b for the 12 rows in Y12..Y14.
#define FMA3_256(c0, c1, c2) \
	VFMADD231PD Y12, Y15, c0; \
	VFMADD231PD Y13, Y15, c1; \
	VFMADD231PD Y14, Y15, c2

// STEP256 is one k step of a 12×4 sub-tile: the 12 A values at byte offset
// ao from SI into Y12..Y14, the 4 B values at byte offset bo from DI
// broadcast in turn into Y15, 12 FMAs into Y0..Y11.
#define STEP256(ao, bo) \
	VMOVUPD (ao)(SI), Y12; \
	VMOVUPD (ao+32)(SI), Y13; \
	VMOVUPD (ao+64)(SI), Y14; \
	VBROADCASTSD (bo)(DI), Y15; \
	FMA3_256(Y0, Y1, Y2); \
	VBROADCASTSD (bo+8)(DI), Y15; \
	FMA3_256(Y3, Y4, Y5); \
	VBROADCASTSD (bo+16)(DI), Y15; \
	FMA3_256(Y6, Y7, Y8); \
	VBROADCASTSD (bo+24)(DI), Y15; \
	FMA3_256(Y9, Y10, Y11)

// STORE3_256 applies C(0:12, j) = fma(alpha, acc_j, C(0:12, j)) at DX with
// alpha in Y15, then advances DX to the next column.
#define STORE3_256(c0, c1, c2) \
	VMOVUPD (DX), Y12; \
	VMOVUPD 32(DX), Y13; \
	VMOVUPD 64(DX), Y14; \
	VFMADD231PD c0, Y15, Y12; \
	VFMADD231PD c1, Y15, Y13; \
	VFMADD231PD c2, Y15, Y14; \
	VMOVUPD Y12, (DX); \
	VMOVUPD Y13, 32(DX); \
	VMOVUPD Y14, 64(DX); \
	ADDQ R8, DX

// func ukernel24x8avx2(kc int, ap, bp []float64, c []float64, ldc int, alpha float64)
//
// The AVX2+FMA kernel: the 24×8 tile as four 12×4 sub-tiles, each
// accumulating in Y0..Y11 (sub-tile column j in Y3j..Y3j+2) over the whole
// kc depth. Sub-tile s starts at row 12*(s&1) and column 4*(s>>1); each k
// step loads three A vectors, broadcasts four B values and issues 12 FMAs.
TEXT ·ukernel24x8avx2(SB), NOSPLIT, $0-96
	MOVQ ldc+80(FP), R8
	SHLQ $3, R8             // column stride in bytes
	XORQ R9, R9             // sub-tile index s

sub256:
	MOVQ kc+0(FP), CX
	MOVQ ap_base+8(FP), SI
	MOVQ bp_base+32(FP), DI
	MOVQ c_base+56(FP), DX
	MOVQ R9, R10
	ANDQ $1, R10
	IMULQ $96, R10          // row offset: 12 doubles
	ADDQ R10, SI
	ADDQ R10, DX
	MOVQ R9, R11
	SHRQ $1, R11
	MOVQ R11, R12
	SHLQ $5, R12            // B column offset: 4 doubles
	ADDQ R12, DI
	IMULQ R8, R11
	SHLQ $2, R11            // C column offset: 4 columns
	ADDQ R11, DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	MOVQ CX, R13
	SHRQ $1, CX             // k steps in pairs, then an odd one
	JZ   tail256

loop256:
	STEP256(0, 0)
	STEP256(192, 64)
	ADDQ $384, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  loop256

tail256:
	TESTQ $1, R13
	JZ   done256
	STEP256(0, 0)

done256:
	VBROADCASTSD alpha+88(FP), Y15
	STORE3_256(Y0, Y1, Y2)
	STORE3_256(Y3, Y4, Y5)
	STORE3_256(Y6, Y7, Y8)
	STORE3_256(Y9, Y10, Y11)
	INCQ R9
	CMPQ R9, $4
	JLT  sub256
	VZEROUPPER
	RET
