#include "textflag.h"

// func cpuidProbe(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidProbe(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvProbe() (eax, edx uint32)
TEXT ·xgetbvProbe(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// lanes<> = (0.0, 1.0, 2.0, 3.0), the per-lane offsets of the weight vector.
DATA lanes<>+0(SB)/8, $0x0000000000000000
DATA lanes<>+8(SB)/8, $0x3FF0000000000000
DATA lanes<>+16(SB)/8, $0x4000000000000000
DATA lanes<>+24(SB)/8, $0x4008000000000000
GLOBL lanes<>(SB), RODATA, $32

// signmask<> = four copies of -0.0 (the sign bit).
DATA signmask<>+0(SB)/8, $0x8000000000000000
DATA signmask<>+8(SB)/8, $0x8000000000000000
DATA signmask<>+16(SB)/8, $0x8000000000000000
DATA signmask<>+24(SB)/8, $0x8000000000000000
GLOBL signmask<>(SB), RODATA, $32

// func secularSumsAVX(z, d []float64, org, tau, w0, wstep float64) (s, ds, ws float64)
//
// One pass of the secular evaluation over len(z) (a multiple of 4) terms at
// the root estimate org+tau: delta = (d-org)-tau formed in-lane, t = z/delta,
// p = z*t, accumulating s += p, ds += t*t and ws += w*p with
// w = w0 + j*wstep. Accumulators use separate VMULPD+VADDPD (no FMA) so the
// lane sums match the portable fallback bitwise; the loop is bounded by the
// VDIVPD anyway. Lane reduction is (l0+l2)+(l1+l3).
TEXT ·secularSumsAVX(SB), NOSPLIT, $0-104
	MOVQ z_base+0(FP), SI
	MOVQ z_len+8(FP), CX
	SHRQ $2, CX
	MOVQ d_base+24(FP), DI
	VXORPD Y0, Y0, Y0            // s lanes
	VXORPD Y1, Y1, Y1            // ds lanes
	VXORPD Y2, Y2, Y2            // ws lanes
	VBROADCASTSD org+48(FP), Y4
	VBROADCASTSD tau+56(FP), Y5
	VBROADCASTSD w0+64(FP), Y12
	VBROADCASTSD wstep+72(FP), Y13
	VMOVUPD lanes<>(SB), Y14
	VFMADD231PD Y14, Y13, Y12    // wv = w0 + lane*wstep (exact: integer weights)
	VADDPD Y13, Y13, Y13         // 2*wstep
	VADDPD Y13, Y13, Y13         // 4*wstep
loop:
	VMOVUPD (DI), Y9             // d quad
	VSUBPD Y4, Y9, Y9            // d - org
	VSUBPD Y5, Y9, Y9            // delta = (d-org) - tau
	VMOVUPD (SI), Y8             // z quad
	VDIVPD Y9, Y8, Y10           // t = z/delta
	VMULPD Y10, Y8, Y11          // p = z*t
	VADDPD Y11, Y0, Y0           // s += p
	VMULPD Y10, Y10, Y9          // t*t
	VADDPD Y9, Y1, Y1            // ds += t*t
	VMULPD Y12, Y11, Y11         // wv*p
	VADDPD Y11, Y2, Y2           // ws += wv*p
	VADDPD Y13, Y12, Y12         // wv += 4*wstep
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

	VEXTRACTF128 $1, Y0, X8
	VADDPD X8, X0, X0
	VHADDPD X0, X0, X0
	MOVSD X0, s+80(FP)
	VEXTRACTF128 $1, Y1, X8
	VADDPD X8, X1, X1
	VHADDPD X1, X1, X1
	MOVSD X1, ds+88(FP)
	VEXTRACTF128 $1, Y2, X8
	VADDPD X8, X2, X2
	VHADDPD X2, X2, X2
	MOVSD X2, ws+96(FP)
	VZEROUPPER
	RET

// func shiftedSumAVX(d, z []float64, org, tau float64) float64
//
// Σ z²/((d-org)-tau) over len(d) (a multiple of 4) terms: the secular
// function body with the cancellation-free two-step shift (Dlaed4Bisect).
TEXT ·shiftedSumAVX(SB), NOSPLIT, $0-72
	MOVQ d_base+0(FP), SI
	MOVQ d_len+8(FP), CX
	SHRQ $2, CX
	MOVQ z_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	VBROADCASTSD org+48(FP), Y12
	VBROADCASTSD tau+56(FP), Y13
loop:
	VMOVUPD (SI), Y8             // d quad
	VMOVUPD (DI), Y9             // z quad
	VSUBPD Y12, Y8, Y8           // d - org
	VSUBPD Y13, Y8, Y8           // (d-org) - tau
	VMULPD Y9, Y9, Y9            // z²
	VDIVPD Y8, Y9, Y9            // z²/t
	VADDPD Y9, Y0, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

	VEXTRACTF128 $1, Y0, X8
	VADDPD X8, X0, X0
	VHADDPD X0, X0, X0
	MOVSD X0, ret+64(FP)
	VZEROUPPER
	RET

// func shiftIntoAVX(dst, d []float64, org, tau float64)
//
// dst = (d-org)-tau elementwise over len(dst) (a multiple of 4) — the
// delta column Dlaed4 writes at return. Two quads per trip, then one more
// when len(dst)/4 is odd. Purely lane-local; dst may be d itself.
TEXT ·shiftIntoAVX(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ d_base+24(FP), SI
	VBROADCASTSD org+48(FP), Y12
	VBROADCASTSD tau+56(FP), Y13
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   quad
oct:
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	VSUBPD Y12, Y8, Y8           // d - org
	VSUBPD Y12, Y9, Y9
	VSUBPD Y13, Y8, Y8           // (d-org) - tau
	VSUBPD Y13, Y9, Y9
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  oct
quad:
	TESTQ $4, CX
	JZ   done
	VMOVUPD (SI), Y8
	VSUBPD Y12, Y8, Y8
	VSUBPD Y13, Y8, Y8
	VMOVUPD Y8, (DI)
done:
	VZEROUPPER
	RET

// func rotAVX(x, y []float64, c, s float64)
//
// x, y = c*x + s*y, c*y - s*x elementwise over len(x) (a multiple of 4) —
// blas.Drot's unit-stride path. Every product is rounded by its own VMULPD
// before the VADDPD/VSUBPD, as in the Go loop (no FMA).
TEXT ·rotAVX(SB), NOSPLIT, $0-64
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	SHRQ $2, CX
	MOVQ y_base+24(FP), DI
	VBROADCASTSD c+48(FP), Y12
	VBROADCASTSD s+56(FP), Y13
loop:
	VMOVUPD (SI), Y8             // x quad
	VMOVUPD (DI), Y9             // y quad
	VMULPD Y12, Y8, Y10          // c*x
	VMULPD Y13, Y9, Y11          // s*y
	VADDPD Y11, Y10, Y10         // c*x + s*y
	VMULPD Y12, Y9, Y9           // c*y
	VMULPD Y13, Y8, Y8           // s*x
	VSUBPD Y8, Y9, Y9            // c*y - s*x
	VMOVUPD Y10, (SI)
	VMOVUPD Y9, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET

// func mulRatioDiffAVX(w, d []float64, org, tau, dj float64)
//
// w *= ((d-org)-tau)/(d-dj) elementwise over len(w) (a multiple of 4) — the
// ComputeLocalW inner loop, with the root's delta formed in-lane. Purely
// lane-local: bitwise identical to the scalar loop in any order.
TEXT ·mulRatioDiffAVX(SB), NOSPLIT, $0-72
	MOVQ w_base+0(FP), SI
	MOVQ w_len+8(FP), CX
	SHRQ $2, CX
	MOVQ d_base+24(FP), DI
	VBROADCASTSD org+48(FP), Y4
	VBROADCASTSD tau+56(FP), Y5
	VBROADCASTSD dj+64(FP), Y12
loop:
	VMOVUPD (DI), Y8             // d quad
	VSUBPD Y12, Y8, Y9           // d - dj
	VSUBPD Y4, Y8, Y8            // d - org
	VSUBPD Y5, Y8, Y8            // delta = (d-org) - tau
	VDIVPD Y9, Y8, Y8            // delta/(d-dj)
	VMOVUPD (SI), Y10
	VMULPD Y8, Y10, Y10
	VMOVUPD Y10, (SI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET

// func ratioSumSqAVX(dst, num, d []float64, org, tau float64) float64
//
// dst = num/((d-org)-tau) elementwise, returning Σ dst² — the fused form
// and sum-of-squares pass of ComputeVect. Lengths are a multiple of 4.
TEXT ·ratioSumSqAVX(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	SHRQ $2, CX
	MOVQ num_base+24(FP), DI
	MOVQ d_base+48(FP), R8
	VBROADCASTSD org+72(FP), Y4
	VBROADCASTSD tau+80(FP), Y5
	VXORPD Y0, Y0, Y0
loop:
	VMOVUPD (R8), Y9             // d quad
	VSUBPD Y4, Y9, Y9            // d - org
	VSUBPD Y5, Y9, Y9            // delta = (d-org) - tau
	VMOVUPD (DI), Y8             // num quad
	VDIVPD Y9, Y8, Y8            // t = num/delta
	VMOVUPD Y8, (SI)
	VMULPD Y8, Y8, Y8            // t²
	VADDPD Y8, Y0, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	DECQ CX
	JNZ  loop

	VEXTRACTF128 $1, Y0, X8
	VADDPD X8, X0, X0
	VHADDPD X0, X0, X0
	MOVSD X0, ret+88(FP)
	VZEROUPPER
	RET

// func ratioDotsAVX(num, d, x, y []float64, org, tau float64) (ss, sx, sy float64)
//
// u = num/((d-org)-tau) formed in-lane over len(num) (a multiple of 4),
// accumulating ss += u*u, sx += x*u and sy += y*u — the values-only UpdateZ
// pass. Separate VMULPD+VADDPD (no FMA); reduction is (l0+l2)+(l1+l3).
TEXT ·ratioDotsAVX(SB), NOSPLIT, $0-136
	MOVQ num_base+0(FP), SI
	MOVQ num_len+8(FP), CX
	SHRQ $2, CX
	MOVQ d_base+24(FP), DI
	MOVQ x_base+48(FP), R8
	MOVQ y_base+72(FP), R9
	VBROADCASTSD org+96(FP), Y4
	VBROADCASTSD tau+104(FP), Y5
	VXORPD Y0, Y0, Y0            // ss lanes
	VXORPD Y1, Y1, Y1            // sx lanes
	VXORPD Y2, Y2, Y2            // sy lanes
loop:
	VMOVUPD (DI), Y9             // d quad
	VSUBPD Y4, Y9, Y9            // d - org
	VSUBPD Y5, Y9, Y9            // delta = (d-org) - tau
	VMOVUPD (SI), Y8             // num quad
	VDIVPD Y9, Y8, Y8            // u = num/delta
	VMULPD Y8, Y8, Y10           // u*u
	VADDPD Y10, Y0, Y0
	VMOVUPD (R8), Y10            // x quad
	VMULPD Y8, Y10, Y10          // x*u
	VADDPD Y10, Y1, Y1
	VMOVUPD (R9), Y11            // y quad
	VMULPD Y8, Y11, Y11          // y*u
	VADDPD Y11, Y2, Y2
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ CX
	JNZ  loop

	VEXTRACTF128 $1, Y0, X8
	VADDPD X8, X0, X0
	VHADDPD X0, X0, X0
	MOVSD X0, ss+112(FP)
	VEXTRACTF128 $1, Y1, X8
	VADDPD X8, X1, X1
	VHADDPD X1, X1, X1
	MOVSD X1, sx+120(FP)
	VEXTRACTF128 $1, Y2, X8
	VADDPD X8, X2, X2
	VHADDPD X2, X2, X2
	MOVSD X2, sy+128(FP)
	VZEROUPPER
	RET

// func mulIntoAVX(dst, src []float64)
//
// dst *= src elementwise over len(dst) (a multiple of 4) — the ReduceW
// cross-panel product.
TEXT ·mulIntoAVX(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	SHRQ $2, CX
	MOVQ src_base+24(FP), DI
loop:
	VMOVUPD (SI), Y8
	VMOVUPD (DI), Y9
	VMULPD Y9, Y8, Y8
	VMOVUPD Y8, (SI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET

// func negSqrtSignAVX(dst, p, sgn []float64)
//
// dst = copysign(sqrt(-p), sgn) elementwise over len(dst) (a multiple of 4)
// — ReduceW's final stabilized-weight formation. dst may alias p.
TEXT ·negSqrtSignAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	SHRQ $2, CX
	MOVQ p_base+24(FP), DI
	MOVQ sgn_base+48(FP), R8
	VMOVUPD signmask<>(SB), Y13
loop:
	VMOVUPD (DI), Y8             // p quad
	VXORPD Y13, Y8, Y8           // -p (flip sign bit, as Go negation does)
	VSQRTPD Y8, Y8               // sqrt(-p)
	VMOVUPD (R8), Y9             // sgn quad
	VANDPD Y13, Y9, Y9           // sign bits of sgn
	VANDNPD Y8, Y13, Y8          // |sqrt(-p)|
	VORPD Y9, Y8, Y8             // copysign
	VMOVUPD Y8, (SI)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET

// func tridiagResidualAVX(dd, em, ep, vm, vv, vp []float64, lam float64) (r2, v2 float64)
//
// Interior rows of the fused residual/norm pass (TridiagResidual), octs
// (two quads) over the common 8-aligned length:
//
//	s = fma(-lam, vv, fma(ep, vp, fma(em, vm, dd*vv)))
//	r2 += s*s   (fused)       v2 += vv*vv   (fused)
//
// Unlike the secular kernels this one fuses multiply-adds — the loop has no
// division to hide instructions behind, so FMA halves the arithmetic —
// and the portable fallback matches bitwise by using math.FMA in the same
// lane order. Two accumulator sets (one per quad) keep the FMA dependency
// chains apart; the reduction is A+B per lane, then (l0+l2)+(l1+l3).
TEXT ·tridiagResidualAVX(SB), NOSPLIT, $0-168
	MOVQ dd_base+0(FP), SI
	MOVQ dd_len+8(FP), CX
	SHRQ $3, CX
	MOVQ em_base+24(FP), DI
	MOVQ ep_base+48(FP), R8
	MOVQ vm_base+72(FP), R9
	MOVQ vv_base+96(FP), R10
	MOVQ vp_base+120(FP), R11
	VBROADCASTSD lam+144(FP), Y12
	VXORPD signmask<>(SB), Y12, Y12 // -lam
	VXORPD Y0, Y0, Y0            // r2 lanes, quad A
	VXORPD Y1, Y1, Y1            // v2 lanes, quad A
	VXORPD Y2, Y2, Y2            // r2 lanes, quad B
	VXORPD Y3, Y3, Y3            // v2 lanes, quad B
loop:
	PREFETCHT0 512(R10)          // vv stream: the only cold one (vm/vp share its lines)
	VMOVUPD (SI), Y8             // dd quad A
	VMOVUPD (R10), Y9            // vv quad A
	VMULPD Y9, Y8, Y8            // s = dd·vv
	VMOVUPD (DI), Y10            // em quad A
	VMOVUPD (R9), Y11            // vm quad A
	VFMADD231PD Y11, Y10, Y8     // s += em·vm
	VMOVUPD (R8), Y10            // ep quad A
	VMOVUPD (R11), Y11           // vp quad A
	VFMADD231PD Y11, Y10, Y8     // s += ep·vp
	VFMADD231PD Y9, Y12, Y8      // s += (-lam)·vv
	VFMADD231PD Y8, Y8, Y0       // r2A += s·s
	VFMADD231PD Y9, Y9, Y1       // v2A += vv·vv
	VMOVUPD 32(SI), Y13          // dd quad B
	VMOVUPD 32(R10), Y14         // vv quad B
	VMULPD Y14, Y13, Y13         // s = dd·vv
	VMOVUPD 32(DI), Y10          // em quad B
	VMOVUPD 32(R9), Y11          // vm quad B
	VFMADD231PD Y11, Y10, Y13    // s += em·vm
	VMOVUPD 32(R8), Y10          // ep quad B
	VMOVUPD 32(R11), Y11         // vp quad B
	VFMADD231PD Y11, Y10, Y13    // s += ep·vp
	VFMADD231PD Y14, Y12, Y13    // s += (-lam)·vv
	VFMADD231PD Y13, Y13, Y2     // r2B += s·s
	VFMADD231PD Y14, Y14, Y3     // v2B += vv·vv
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	DECQ CX
	JNZ  loop

	VADDPD Y2, Y0, Y0            // r2 lanes: A + B
	VADDPD Y3, Y1, Y1            // v2 lanes: A + B
	VEXTRACTF128 $1, Y0, X8
	VADDPD X8, X0, X0
	VHADDPD X0, X0, X0
	MOVSD X0, r2+152(FP)
	VEXTRACTF128 $1, Y1, X8
	VADDPD X8, X1, X1
	VHADDPD X1, X1, X1
	MOVSD X1, v2+160(FP)
	VZEROUPPER
	RET

// func dotPairAbsAVX(x, ax, y []float64) (dot, absdot float64)
//
// One pass of the ABFT checksum dot products over the common 4-aligned
// length: dot += x·y and absdot += ax·|y| per lane. Separate VMULPD+VADDPD;
// reduction is (l0+l2)+(l1+l3).
TEXT ·dotPairAbsAVX(SB), NOSPLIT, $0-88
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	SHRQ $2, CX
	MOVQ ax_base+24(FP), DI
	MOVQ y_base+48(FP), R8
	VMOVUPD signmask<>(SB), Y13
	VXORPD Y0, Y0, Y0            // dot lanes
	VXORPD Y1, Y1, Y1            // absdot lanes
loop:
	VMOVUPD (R8), Y9             // y quad
	VMOVUPD (SI), Y8             // x quad
	VMULPD Y9, Y8, Y8            // x·y
	VADDPD Y8, Y0, Y0
	VANDNPD Y9, Y13, Y9          // |y|
	VMOVUPD (DI), Y8             // ax quad
	VMULPD Y9, Y8, Y8            // ax·|y|
	VADDPD Y8, Y1, Y1
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	DECQ CX
	JNZ  loop

	VEXTRACTF128 $1, Y0, X8
	VADDPD X8, X0, X0
	VHADDPD X0, X0, X0
	MOVSD X0, dot+72(FP)
	VEXTRACTF128 $1, Y1, X8
	VADDPD X8, X1, X1
	VHADDPD X1, X1, X1
	MOVSD X1, absdot+80(FP)
	VZEROUPPER
	RET

// func sumAVX(x []float64) float64
//
// Σ x over len(x) (a multiple of 4) with lane accumulators; reduction is
// (l0+l2)+(l1+l3).
TEXT ·sumAVX(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	SHRQ $2, CX
	VXORPD Y0, Y0, Y0
loop:
	VMOVUPD (SI), Y8
	VADDPD Y8, Y0, Y0
	ADDQ $32, SI
	DECQ CX
	JNZ  loop

	VEXTRACTF128 $1, Y0, X8
	VADDPD X8, X0, X0
	VHADDPD X0, X0, X0
	MOVSD X0, ret+24(FP)
	VZEROUPPER
	RET
