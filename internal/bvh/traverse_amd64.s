#include "go_asm.h"
#include "textflag.h"

// Comparison predicates for VCMPPD $p, b, a, dst (dst = a p b). The
// ordered ones are false on NaN, as Go's compares are.
#define LT 0x01
#define LE 0x02
#define UNORD 0x03
#define GE 0x0D
#define GT 0x0E

DATA one<>+0(SB)/8, $1.0
DATA one<>+8(SB)/8, $1.0
DATA one<>+16(SB)/8, $1.0
DATA one<>+24(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $32

// Doubleword indexes: VPERMD by identity keeps every lane; by pairs
// plus twice a lane's number, it copies that lane into all four. bits
// holds each lane's bit of a VMOVMSKPD mask.
DATA identity<>+0(SB)/4, $0
DATA identity<>+4(SB)/4, $1
DATA identity<>+8(SB)/4, $2
DATA identity<>+12(SB)/4, $3
DATA identity<>+16(SB)/4, $4
DATA identity<>+20(SB)/4, $5
DATA identity<>+24(SB)/4, $6
DATA identity<>+28(SB)/4, $7
GLOBL identity<>(SB), RODATA|NOPTR, $32

DATA pairs<>+0(SB)/4, $0
DATA pairs<>+4(SB)/4, $1
DATA pairs<>+8(SB)/4, $0
DATA pairs<>+12(SB)/4, $1
DATA pairs<>+16(SB)/4, $0
DATA pairs<>+20(SB)/4, $1
DATA pairs<>+24(SB)/4, $0
DATA pairs<>+28(SB)/4, $1
GLOBL pairs<>(SB), RODATA|NOPTR, $32

DATA bits<>+0(SB)/8, $1
DATA bits<>+8(SB)/8, $2
DATA bits<>+16(SB)/8, $4
DATA bits<>+24(SB)/8, $8
GLOBL bits<>(SB), RODATA|NOPTR, $32

DATA zero<>+0(SB)/8, $0.0
DATA zero<>+8(SB)/8, $0.0
DATA zero<>+16(SB)/8, $0.0
DATA zero<>+24(SB)/8, $0.0
GLOBL zero<>(SB), RODATA|NOPTR, $32

// IntersectTriangle's eps = 1e-12 and -eps.
DATA eps<>+0(SB)/8, $1e-12
DATA eps<>+8(SB)/8, $1e-12
DATA eps<>+16(SB)/8, $1e-12
DATA eps<>+24(SB)/8, $1e-12
GLOBL eps<>(SB), RODATA|NOPTR, $32

DATA negeps<>+0(SB)/8, $-1e-12
DATA negeps<>+8(SB)/8, $-1e-12
DATA negeps<>+16(SB)/8, $-1e-12
DATA negeps<>+24(SB)/8, $-1e-12
GLOBL negeps<>(SB), RODATA|NOPTR, $32

// AXIS computes one axis of HitRay for the four lanes: LO and HI get
// (min - o) * inv and (max - o) * inv, ordered, and Y6 gains the lanes
// where either is NaN. MIN and MAX are the box's offsets in the node at
// NP; O and INV the lanes' origin and reciprocal direction. TMP is
// clobbered. Ordering with VMINPD/VMAXPD instead of HitRay's swap can
// only change the sign of a zero, which no compare sees.
#define AXIS(NP, MIN, MAX, O, INV, LO, HI, TMP) \
	VBROADCASTSD (Node_Bounds+MIN)(NP), LO; \
	VSUBPD       O(DI), LO, LO; \
	VMULPD       INV(DI), LO, LO; \
	VBROADCASTSD (Node_Bounds+MAX)(NP), HI; \
	VSUBPD       O(DI), HI, HI; \
	VMULPD       INV(DI), HI, HI; \
	VCMPPD       $UNORD, HI, LO, TMP; \
	VORPD        TMP, Y6, Y6; \
	VMINPD       HI, LO, TMP; \
	VMAXPD       HI, LO, HI; \
	VMOVAPD      TMP, LO

// SLAB is HitRay's fast path for the four lanes against the box of the
// node at NP, with the interval [tmin, best]: T0 gets the entry
// distances and OK the lanes whose interval is non-empty. Lanes with a
// NaN slab value, which take HitRay's general fold, are added to Y6.
// Y0-Y5 and Y11 are clobbered.
#define SLAB(NP, T0, OK) \
	AXIS(NP, 0, 24, quad_ox, quad_ix, Y0, Y1, Y11); \
	AXIS(NP, 8, 32, quad_oy, quad_iy, Y2, Y3, Y11); \
	AXIS(NP, 16, 40, quad_oz, quad_iz, Y4, Y5, Y11); \
	VMAXPD Y2, Y0, Y0; \
	VMAXPD quad_tmin(DI), Y4, Y4; \
	VMAXPD Y4, Y0, T0; \
	VMINPD Y3, Y1, Y1; \
	VMINPD Y15, Y5, Y5; \
	VMINPD Y5, Y1, Y1; \
	VCMPPD $LE, Y1, T0, OK

// EDGE sets Y to the triangle's corner offset P minus corner A, in
// every lane: one of IntersectTriangle's e1, e2 components.
#define EDGE(P, OFF, X, Y) \
	VMOVSD       (P+OFF)(R12), X; \
	VSUBSD       (Triangle_A+OFF)(R12), X, X; \
	VBROADCASTSD X, Y

// INV sets the reciprocal lanes INV to 1/D, IntersectClosest's inv.
#define INV(D, INV) \
	VDIVPD  D(DI), Y0, Y1; \
	VMOVUPD Y1, INV(DI)

// SPREAD copies the lanes of the vector at F in q that Y0 indexes.
#define SPREAD(F) \
	VPERMD  F(DI), Y0, Y1; \
	VMOVUPD Y1, F(DI)

// func closest4(nodes *Node, tris *Triangle, q *quad, n int) int
//
// Registers: AX nodes, BX tris, DI q, SI the node to visit, CX the
// stack depth, R8 and R9 the box and triangle tests, Y15 the lanes'
// best distance.
TEXT ·closest4(SB), NOSPLIT, $0-40
	MOVQ    nodes+0(FP), AX
	MOVQ    tris+8(FP), BX
	MOVQ    q+16(FP), DI
	MOVQ    n+24(FP), CX
	MOVL    $1, R12
	SHLL    CX, R12
	DECL    R12 // the lanes below n
	VMOVUPD one<>(SB), Y0
	INV(quad_dx, quad_ix)
	INV(quad_dy, quad_iy)
	INV(quad_dz, quad_iz)
	VMOVUPD quad_best(DI), Y15

	// The root box, with [tmin, tmax]. A NaN slab value means HitRay's
	// general fold: the caller runs the lanes one by one.
	VXORPD    Y6, Y6, Y6
	SLAB(AX, Y7, Y8)
	VMOVMSKPD Y6, DX
	TESTL     R12, DX
	JNZ       fold
	VMOVMSKPD Y8, DX
	ANDL      R12, DX
	MOVQ      DX, quad_live(DI)
	XORQ      R8, R8
	XORQ      R9, R9
	TESTL     DX, DX
	JZ        done
	CMPL      DX, $15
	JEQ       start

	// Lanes that miss the root, or hold no ray, trace a copy of the
	// first live lane: Y0 indexes a live lane's own doublewords, and a
	// dead lane's those of the first live one.
	BSFL         DX, R13
	SHLL         $1, R13
	VMOVD        R13, X0
	VPBROADCASTD X0, Y0
	VPADDD       pairs<>(SB), Y0, Y0
	VMOVQ        DX, X1
	VPBROADCASTQ X1, Y1
	VPAND        bits<>(SB), Y1, Y1
	VPCMPEQQ     bits<>(SB), Y1, Y1
	VBLENDVPD    Y1, identity<>(SB), Y0, Y0
	SPREAD(quad_ox)
	SPREAD(quad_oy)
	SPREAD(quad_oz)
	SPREAD(quad_dx)
	SPREAD(quad_dy)
	SPREAD(quad_dz)
	SPREAD(quad_ix)
	SPREAD(quad_iy)
	SPREAD(quad_iz)

start:
	XORQ SI, SI
	XORQ CX, CX

visit:
	MOVQ  SI, R10
	SHLQ  $6, R10
	ADDQ  AX, R10
	MOVL  Node_Count(R10), DX
	TESTL DX, DX
	JG    leaf

	// Interior: test both children, as IntersectClosest does.
	MOVLQSX Node_Left(R10), R11
	MOVLQSX Node_Right(R10), R12
	VXORPD  Y6, Y6, Y6
	MOVQ    R11, R13
	SHLQ    $6, R13
	ADDQ    AX, R13
	SLAB(R13, Y7, Y8)
	MOVQ    R12, R13
	SHLQ    $6, R13
	ADDQ    AX, R13
	SLAB(R13, Y9, Y10)
	VMOVMSKPD Y6, DX
	TESTL   DX, DX
	JNZ     handoff
	VMOVMSKPD Y8, DX
	VMOVMSKPD Y10, R13
	SHLL    $4, R13
	ORL     R13, DX // left hits in bits 0-3, right hits in bits 4-7
	CMPL    DX, $0xff
	JEQ     both
	CMPL    DX, $0x0f
	JEQ     left
	CMPL    DX, $0xf0
	JEQ     right
	TESTL   DX, DX
	JNZ     split
	ADDQ    $2, R8
	JMP     pop

left:
	ADDQ $2, R8
	MOVQ R11, SI
	JMP  visit

right:
	ADDQ $2, R8
	MOVQ R12, SI
	JMP  visit

both:
	// Descend into the nearer child (the left on a tie) and defer the
	// farther with its entry distance. A full stack hands off, so the
	// scalar loop's own bounds check fires.
	CMPQ      CX, $const_stackDepth
	JEQ       handoff
	VCMPPD    $GT, Y9, Y7, Y0
	VMOVMSKPD Y0, DX
	MOVQ      CX, R13
	SHLQ      $5, R13
	TESTL     DX, DX
	JZ        leftnear
	CMPL      DX, $15
	MOVL      $0xff, DX
	JNE       split
	MOVL      R11, quad_node(DI)(CX*4)
	VMOVUPD   Y7, quad_entry(DI)(R13*1)
	INCQ      CX
	ADDQ      $2, R8
	MOVQ      R12, SI
	JMP       visit

leftnear:
	MOVL    R12, quad_node(DI)(CX*4)
	VMOVUPD Y9, quad_entry(DI)(R13*1)
	INCQ    CX
	ADDQ    $2, R8
	MOVQ    R11, SI
	JMP     visit

leaf:
	// IntersectTriangle against each of the leaf's triangles, lane by
	// lane in its own expression order, keeping a hit with
	// tmin < t < best.
	ADDQ    DX, R9
	MOVLQSX Node_Start(R10), R11
	ADDQ    R11, DX

tri:
	MOVQ  R11, R12
	IMULQ $Triangle__size, R12
	ADDQ  BX, R12

	EDGE(Triangle_B, 0, X0, Y0)
	EDGE(Triangle_B, 8, X1, Y1)
	EDGE(Triangle_B, 16, X2, Y2)
	EDGE(Triangle_C, 0, X3, Y3)
	EDGE(Triangle_C, 8, X4, Y4)
	EDGE(Triangle_C, 16, X5, Y5)

	// p = dir x e2 in Y6-Y8.
	VMULPD quad_dy(DI), Y5, Y6
	VMULPD quad_dz(DI), Y4, Y7
	VSUBPD Y7, Y6, Y6
	VMULPD quad_dz(DI), Y3, Y7
	VMULPD quad_dx(DI), Y5, Y8
	VSUBPD Y8, Y7, Y7
	VMULPD quad_dx(DI), Y4, Y8
	VMULPD quad_dy(DI), Y3, Y9
	VSUBPD Y9, Y8, Y8

	// det = e1 . p in Y9; Y10 = -eps < det < eps, the rejected lanes.
	VMULPD Y6, Y0, Y9
	VMULPD Y7, Y1, Y10
	VADDPD Y10, Y9, Y9
	VMULPD Y8, Y2, Y10
	VADDPD Y10, Y9, Y9
	VCMPPD $GT, negeps<>(SB), Y9, Y10
	VCMPPD $LT, eps<>(SB), Y9, Y11
	VANDPD Y11, Y10, Y10

	// inv = 1/det in Y9.
	VMOVUPD one<>(SB), Y11
	VDIVPD  Y9, Y11, Y9

	// s = orig - A in Y11-Y13.
	VBROADCASTSD (Triangle_A+0)(R12), Y11
	VMOVUPD      quad_ox(DI), Y12
	VSUBPD       Y11, Y12, Y11
	VBROADCASTSD (Triangle_A+8)(R12), Y12
	VMOVUPD      quad_oy(DI), Y13
	VSUBPD       Y12, Y13, Y12
	VBROADCASTSD (Triangle_A+16)(R12), Y13
	VMOVUPD      quad_oz(DI), Y14
	VSUBPD       Y13, Y14, Y13

	// u = (s . p) * inv in Y6; reject u < 0 || u > 1.
	VMULPD Y11, Y6, Y6
	VMULPD Y12, Y7, Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y13, Y8, Y8
	VADDPD Y8, Y6, Y6
	VMULPD Y9, Y6, Y6
	VCMPPD $LT, zero<>(SB), Y6, Y7
	VCMPPD $GT, one<>(SB), Y6, Y8
	VORPD  Y8, Y7, Y7
	VORPD  Y7, Y10, Y10

	// q = s x e1 in Y7, Y8, Y14.
	VMULPD Y12, Y2, Y7
	VMULPD Y13, Y1, Y8
	VSUBPD Y8, Y7, Y7
	VMULPD Y13, Y0, Y8
	VMULPD Y11, Y2, Y14
	VSUBPD Y14, Y8, Y8
	VMULPD Y11, Y1, Y14
	VMULPD Y12, Y0, Y11
	VSUBPD Y11, Y14, Y14

	// v = (dir . q) * inv in Y0; reject v < 0 || u+v > 1.
	VMULPD quad_dx(DI), Y7, Y0
	VMULPD quad_dy(DI), Y8, Y1
	VADDPD Y1, Y0, Y0
	VMULPD quad_dz(DI), Y14, Y1
	VADDPD Y1, Y0, Y0
	VMULPD Y9, Y0, Y0
	VCMPPD $LT, zero<>(SB), Y0, Y1
	VADDPD Y0, Y6, Y2
	VCMPPD $GT, one<>(SB), Y2, Y2
	VORPD  Y2, Y1, Y1
	VORPD  Y1, Y10, Y10

	// t = (e2 . q) * inv in Y3; take the lanes with tmin < t < best.
	VMULPD    Y7, Y3, Y3
	VMULPD    Y8, Y4, Y4
	VADDPD    Y4, Y3, Y3
	VMULPD    Y14, Y5, Y5
	VADDPD    Y5, Y3, Y3
	VMULPD    Y9, Y3, Y3
	VCMPPD    $GT, quad_tmin(DI), Y3, Y1
	VCMPPD    $LT, Y15, Y3, Y2
	VANDPD    Y2, Y1, Y1
	VANDNPD   Y1, Y10, Y1
	VMOVMSKPD Y1, R13
	TESTL     R13, R13
	JZ        nexttri
	VBLENDVPD Y1, Y3, Y15, Y15
	VMOVUPD   quad_u(DI), Y2
	VBLENDVPD Y1, Y6, Y2, Y2
	VMOVUPD   Y2, quad_u(DI)
	VMOVUPD   quad_v(DI), Y2
	VBLENDVPD Y1, Y0, Y2, Y2
	VMOVUPD   Y2, quad_v(DI)
	VMOVQ     R11, X2
	VPBROADCASTQ X2, Y2
	VMOVUPD   quad_tri(DI), Y4
	VBLENDVPD Y1, Y2, Y4, Y4
	VMOVUPD   Y4, quad_tri(DI)

nexttri:
	INCQ R11
	CMPQ R11, DX
	JLT  tri

pop:
	// Pop deferred nodes: drop one whose entry > best, visit the first
	// kept.
	TESTQ     CX, CX
	JZ        done
	MOVQ      CX, R13
	DECQ      R13
	SHLQ      $5, R13
	VCMPPD    $GE, quad_entry(DI)(R13*1), Y15, Y0
	VMOVMSKPD Y0, R12
	TESTL     R12, R12
	JZ        drop
	CMPL      R12, $15
	JNE       handoffpop
	DECQ      CX
	MOVLQSX   quad_node(DI)(CX*4), SI
	JMP       visit

drop:
	DECQ CX
	JMP  pop

split:
	// The lanes part ways at this node: count its box tests and leave
	// each lane's results for the caller to take its own branch.
	ADDQ    $2, R8
	VMOVUPD Y7, quad_lt(DI)
	VMOVUPD Y9, quad_rt(DI)
	MOVQ    DX, quad_split(DI)
	JMP     stop

handoffpop:
	MOVQ $-1, SI

handoff:
	MOVQ $-1, quad_split(DI)

stop:
	MOVQ    SI, quad_ni(DI)
	MOVQ    CX, quad_sp(DI)
	MOVQ    R8, quad_nodeTests(DI)
	MOVQ    R9, quad_triTests(DI)
	VMOVUPD Y15, quad_best(DI)
	VZEROUPPER
	MOVQ    $1, ret+32(FP) // packetHandoff
	RET

done:
	MOVQ    R8, quad_nodeTests(DI)
	MOVQ    R9, quad_triTests(DI)
	VMOVUPD Y15, quad_best(DI)
	VZEROUPPER
	MOVQ    $0, ret+32(FP) // packetDone
	RET

fold:
	VZEROUPPER
	MOVQ $2, ret+32(FP) // packetFold
	RET
