// The exp sequence below follows the Go standard library's
// math/exp_amd64.s (BSD-style license), which is based on Naoki Shibata's
// SLEEF (public domain): "Efficient evaluation methods of elementary
// functions suitable for SIMD computation", ISC'10.

#include "textflag.h"
#include "go_asm.h"

// math/exp_amd64.s's constants, written with the same literals so they
// assemble to the same bits, four lanes each so every FMA and add can take
// them as a memory operand.
#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

#define QUAD(name, v) \
	DATA name<>+0(SB)/8, v \
	DATA name<>+8(SB)/8, v \
	DATA name<>+16(SB)/8, v \
	DATA name<>+24(SB)/8, v \
	GLOBL name<>(SB), RODATA|NOPTR, $32

QUAD(qlog2e, $LOG2E)
QUAD(qln2u, $LN2U)
QUAD(qln2l, $LN2L)
QUAD(qsixteenth, $0.0625)
QUAD(qc8, $2.4801587301587301587e-5)
QUAD(qc7, $1.9841269841269841270e-4)
QUAD(qc6, $1.3888888888888888889e-3)
QUAD(qc5, $8.3333333333333333333e-3)
QUAD(qc4, $4.1666666666666666667e-2)
QUAD(qc3, $1.6666666666666666667e-1)
QUAD(qhalf, $0.5)
QUAD(qone, $1.0)
QUAD(qtwo, $2.0)
QUAD(qnegzero, $0x8000000000000000)
// For s ≤ 708, exp(−s) never takes math.Exp's denormal, overflow or
// non-finite branches: round(−s·log₂e) ≥ −1021, so the biased exponent
// stays in 2..1023.
QUAD(qmaxarg, $708.0)

DATA qbias<>+0(SB)/4, $0x3FF
DATA qbias<>+4(SB)/4, $0x3FF
DATA qbias<>+8(SB)/4, $0x3FF
DATA qbias<>+12(SB)/4, $0x3FF
GLOBL qbias<>(SB), RODATA|NOPTR, $16

// func predictQuadAVX2(st *quadState, from int) int
//
// Two passes over rows from, from+1, …. Pass 1 evaluates each row's kernel
// values into rows[i] and adds their α-weighted terms to m, in row order,
// up to the first row that fails the 708 check; the rows' exp chains are
// independent, so they overlap. Pass 2 solves the rows pass 1 filled, in
// order and two at a time: both rows' substitution steps over j < i share
// the load of rows[j] and run as two independent chains; row i then
// divides, and row i+1 takes its j = i step and divides. Each row keeps
// predictRows' operations in its operand order, and v takes each row's
// square in row order, so the split changes no bit.
//
// Registers, pass 1: CX row i, DX n, R8 dim·8, SI candidates, R9 &xs[i],
// R10 α, R13 rows; Y8 m, Y10 √5/ℓ, Y11 5/(3ℓ²), Y12 σ². Pass 2: CX row i,
// DX the stop row, R11 factor row i, R9 factor row i+1, R12 stride·8, R13
// rows; Y9 v.
TEXT ·predictQuadAVX2(SB), NOSPLIT, $0-24
	MOVQ st+0(FP), DI
	MOVQ from+8(FP), CX
	MOVQ quadState_n(DI), DX
	MOVQ quadState_dim(DI), R8
	SHLQ $3, R8
	MOVQ quadState_cand(DI), SI
	MOVQ quadState_alpha(DI), R10
	MOVQ quadState_rows(DI), R13
	MOVQ quadState_stride(DI), R12
	SHLQ $3, R12
	MOVQ CX, AX
	IMULQ $24, AX // a []float64 header is 24 bytes
	MOVQ quadState_xs(DI), R9
	ADDQ AX, R9
	MOVQ CX, AX
	IMULQ R12, AX
	MOVQ quadState_chol(DI), R11
	ADDQ AX, R11
	VMOVUPD quadState_m(DI), Y8
	VMOVUPD quadState_v(DI), Y9
	VBROADCASTSD quadState_k+matern52c_sqrt5OverL(DI), Y10
	VBROADCASTSD quadState_k+matern52c_fiveOver3L2(DI), Y11
	VBROADCASTSD quadState_k+matern52c_signalVar(DI), Y12

kernrow:
	CMPQ CX, DX
	JGE  kerndone

	// r = Σ_d (p_d − x_d)²
	MOVQ   (R9), BX
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX

dist:
	CMPQ         AX, R8
	JGE          distdone
	VBROADCASTSD (BX)(AX*1), Y6
	VMOVUPD      (SI)(AX*4), Y7
	VSUBPD       Y6, Y7, Y7
	VMULPD       Y7, Y7, Y7
	VADDPD       Y7, Y0, Y0
	ADDQ         $8, AX
	JMP          dist

distdone:
	// s = √5/ℓ · √r; stop unless every lane has s ≤ 708 (false for NaN).
	VSQRTPD   Y0, Y1
	VMULPD    Y1, Y10, Y1
	VCMPPD    $0x12, qmaxarg<>(SB), Y1, Y6
	VMOVMSKPD Y6, AX
	CMPQ      AX, $15
	JNE       kerndone

	// e = exp(−s), math.Exp's FMA path in each lane.
	VXORPD       qnegzero<>(SB), Y1, Y2
	VMULPD       qlog2e<>(SB), Y2, Y3
	VCVTPD2DQY   Y3, X4
	VCVTDQ2PD    X4, Y3
	VFNMADD231PD qln2u<>(SB), Y3, Y2
	VFNMADD231PD qln2l<>(SB), Y3, Y2
	VMULPD       qsixteenth<>(SB), Y2, Y2
	VMOVUPD      qc8<>(SB), Y5
	VFMADD213PD  qc7<>(SB), Y2, Y5
	VFMADD213PD  qc6<>(SB), Y2, Y5
	VFMADD213PD  qc5<>(SB), Y2, Y5
	VFMADD213PD  qc4<>(SB), Y2, Y5
	VFMADD213PD  qc3<>(SB), Y2, Y5
	VFMADD213PD  qhalf<>(SB), Y2, Y5
	VFMADD213PD  qone<>(SB), Y2, Y5
	VMULPD       Y5, Y2, Y2
	VADDPD       qtwo<>(SB), Y2, Y5
	VMULPD       Y5, Y2, Y2
	VADDPD       qtwo<>(SB), Y2, Y5
	VMULPD       Y5, Y2, Y2
	VADDPD       qtwo<>(SB), Y2, Y5
	VMULPD       Y5, Y2, Y2
	VADDPD       qtwo<>(SB), Y2, Y5
	VFMADD213PD  qone<>(SB), Y5, Y2
	VPADDD       qbias<>(SB), X4, X4
	VPMOVSXDQ    X4, Y4
	VPSLLQ       $52, Y4, Y4
	VMULPD       Y4, Y2, Y2

	// k = σ²·((1 + s) + 5/(3ℓ²)·r)·e
	VADDPD qone<>(SB), Y1, Y3
	VMULPD Y0, Y11, Y6
	VADDPD Y6, Y3, Y3
	VMULPD Y3, Y12, Y3
	VMULPD Y2, Y3, Y3

	// m += k·α_i; rows[i] = k
	VBROADCASTSD (R10)(CX*8), Y6
	VMULPD       Y6, Y3, Y6
	VADDPD       Y6, Y8, Y8
	MOVQ         CX, AX
	SHLQ         $5, AX
	VMOVUPD      Y3, (R13)(AX*1)

	ADDQ $24, R9
	INCQ CX
	JMP  kernrow

kerndone:
	// Pass 2 solves rows from … CX−1; CX is the row to hand back.
	MOVQ CX, DX
	MOVQ from+8(FP), CX

pair:
	LEAQ 1(CX), AX
	CMPQ AX, DX
	JGE  single

	// Rows i and i+1: k −= L[·][j]·rows[j] for j < i, one chain per row.
	LEAQ   (R11)(R12*1), R9
	MOVQ   CX, BX
	SHLQ   $3, BX
	VMOVUPD (R13)(BX*4), Y3
	VMOVUPD 32(R13)(BX*4), Y4
	XORQ   AX, AX

pairsub:
	CMPQ         AX, BX
	JGE          pairsubdone
	VMOVUPD      (R13)(AX*4), Y5
	VBROADCASTSD (R11)(AX*1), Y6
	VMULPD       Y5, Y6, Y6
	VSUBPD       Y6, Y3, Y3
	VBROADCASTSD (R9)(AX*1), Y7
	VMULPD       Y5, Y7, Y7
	VSUBPD       Y7, Y4, Y4
	ADDQ         $8, AX
	JMP          pairsub

pairsubdone:
	// Row i: divide by L[i][i], store, v −= rows[i]².
	VBROADCASTSD (R11)(BX*1), Y6
	VDIVPD       Y6, Y3, Y3
	VMOVUPD      Y3, (R13)(BX*4)
	VMULPD       Y3, Y3, Y6
	VSUBPD       Y6, Y9, Y9

	// Row i+1: its j = i step, divide by L[i+1][i+1], store, v −= rows[i+1]².
	VBROADCASTSD (R9)(BX*1), Y7
	VMULPD       Y3, Y7, Y7
	VSUBPD       Y7, Y4, Y4
	VBROADCASTSD 8(R9)(BX*1), Y7
	VDIVPD       Y7, Y4, Y4
	VMOVUPD      Y4, 32(R13)(BX*4)
	VMULPD       Y4, Y4, Y7
	VSUBPD       Y7, Y9, Y9

	LEAQ (R9)(R12*1), R11
	ADDQ $2, CX
	JMP  pair

single:
	// A last unpaired row: the same steps for row i alone.
	CMPQ CX, DX
	JGE  done
	MOVQ CX, BX
	SHLQ $3, BX
	VMOVUPD (R13)(BX*4), Y3
	XORQ AX, AX

sub:
	CMPQ         AX, BX
	JGE          subdone
	VBROADCASTSD (R11)(AX*1), Y6
	VMULPD       (R13)(AX*4), Y6, Y7
	VSUBPD       Y7, Y3, Y3
	ADDQ         $8, AX
	JMP          sub

subdone:
	VBROADCASTSD (R11)(BX*1), Y6
	VDIVPD       Y6, Y3, Y3
	VMOVUPD      Y3, (R13)(BX*4)
	VMULPD       Y3, Y3, Y6
	VSUBPD       Y6, Y9, Y9

done:
	VMOVUPD Y8, quadState_m(DI)
	VMOVUPD Y9, quadState_v(DI)
	VZEROUPPER
	MOVQ    DX, ret+16(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
