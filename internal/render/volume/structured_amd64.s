#include "go_asm.h"
#include "textflag.h"

// Comparison predicates for VCMPPD $p, b, a, dst (dst = a p b).
#define EQ 0x00
#define LT 0x01
#define LE 0x02
#define NLE 0x06
#define NGT 0x0A
#define GE 0x0D
#define GT 0x0E

// AXIS computes one axis of the grid coordinate of the sample at t in
// Y11, R = (o + d*t - origin) * invSpace, and clears the lanes of Y13
// where R is not within [0, lim]. Y3 holds +0; TMP is clobbered.
#define AXIS(O, D, AXISNO, R, TMP) \
	VMULPD D(BX), Y11, R; \
	VADDPD O(BX), R, R; \
	VSUBPD (packetParams_org+32*AXISNO)(AX), R, R; \
	VMULPD (packetParams_inv+32*AXISNO)(AX), R, R; \
	VCMPPD $GE, Y3, R, TMP; \
	VANDPD TMP, Y13, Y13; \
	VCMPPD $LE, (packetParams_lim+32*AXISNO)(AX), R, TMP; \
	VANDPD TMP, Y13, Y13

// CELL truncates the grid coordinate R to its cell index in X, clamped
// to N-2 at the far face, and stores the fraction r - float64(i) in
// the slot R11 points at.
#define CELL(R, AXISNO, X, TMP) \
	VCVTTPD2DQY R, X; \
	VPMINSD     (packetParams_cmax+16*AXISNO)(AX), X, X; \
	VCVTDQ2PD   X, TMP; \
	VSUBPD      TMP, R, R; \
	VMOVUPD     R, (packetSlot_f+32*AXISNO)(R11)

// PAIRS loads each lane's corner pair BASE[b], BASE[b+1] (the lanes' b
// in CX, DX, R12, R13), transposes the pairs into the four lanes' first
// corners and their second, and stores them as corners C and C+1 of the
// slot R11 points at. Y7 to Y10 are clobbered.
#define PAIRS(BASE, C) \
	VMOVUPD     (BASE)(CX*8), X7; \
	VINSERTF128 $1, (BASE)(R12*8), Y7, Y7; \
	VMOVUPD     (BASE)(DX*8), X8; \
	VINSERTF128 $1, (BASE)(R13*8), Y8, Y8; \
	VUNPCKLPD   Y8, Y7, Y9; \
	VUNPCKHPD   Y8, Y7, Y10; \
	VMOVUPD     Y9, (packetSlot_c+32*C)(R11); \
	VMOVUPD     Y10, (packetSlot_c+32*C+32)(R11)

// LERP sets A = A + f*(B-A), the blend's operand order, with the
// fraction f of axis AXISNO from the slot R10 points at; B is clobbered.
#define LERP(A, B, AXISNO) \
	VSUBPD A, B, B; \
	VMULPD (packetSlot_f+32*AXISNO)(R10), B, B; \
	VADDPD B, A, A

// CORNERS loads corners C and C+1 of the slot R10 points at into A and B.
#define CORNERS(C, A, B) \
	VMOVUPD (packetSlot_c+32*C)(R10), A; \
	VMOVUPD (packetSlot_c+32*C+32)(R10), B

// COUNT sets Y5 to the number of the first CNT (at least one)
// segments of TABLE, SIZE bytes apart, whose upper stop HI lies below
// tn in Y4 (tn is not NaN here). CX, DX and Y10 are clobbered.
#define COUNT(TABLE, CNT, SIZE, HI) \
	VPXOR  Y5, Y5, Y5; \
	MOVQ   CNT, CX; \
	MOVQ   TABLE, DX; \
	ADDQ   $HI, DX; \
	VCMPPD $GT, (DX), Y4, Y10; \
	VPSUBQ Y10, Y5, Y5; \
	ADDQ   $SIZE, DX; \
	DECQ   CX; \
	JNZ    -4(PC)

// SEGMENT points DX at the segment of TABLE the packet's last
// looked-up sample used, MEMOOFF bytes in, and jumps to MISS unless every
// Y13 lane's tn in Y4 lies in it: below < tn <= hi. DX then waits for no
// count. Y6 and Y10 are clobbered.
#define SEGMENT(TABLE, MEMOOFF, BELOW, HI, MISS) \
	MOVQ   MEMOOFF(BX), DX; \
	ADDQ   TABLE, DX; \
	VCMPPD $GT, BELOW(DX), Y4, Y6; \
	VCMPPD $LE, HI(DX), Y4, Y10; \
	VANDPD Y10, Y6, Y6; \
	VPANDN Y13, Y6, Y6; \
	VPTEST Y6, Y6; \
	JNZ    MISS

// LOOKUP is SEGMENT's miss path, after COUNT: if every Y13 lane counted
// lane 0's index, it makes that segment (SIZE bytes apart) the memo,
// points DX at it and jumps to EVAL; otherwise it jumps to GATHER. Y3
// and Y6 are clobbered.
#define LOOKUP(TABLE, SIZE, MEMOOFF, EVAL, GATHER) \
	VPERMQ   $0, Y5, Y3; \
	VPCMPEQQ Y5, Y3, Y6; \
	VPANDN   Y13, Y6, Y6; \
	VPTEST   Y6, Y6; \
	JNZ      GATHER; \
	VMOVQ    X5, DX; \
	IMULQ    $SIZE, DX; \
	MOVQ     DX, MEMOOFF(BX); \
	ADDQ     TABLE, DX; \
	JMP      EVAL

// GATHER1 gathers the field at OFF of every lane's own segment (from
// CX, index Y5 in float64s) into the same field of the packet's TMP.
#define GATHER1(OFF, TMP) \
	VPCMPEQQ   Y3, Y3, Y3; \
	VGATHERQPD Y3, OFF(CX)(Y5*8), Y6; \
	VMOVUPD    Y6, (TMP+OFF)(BX)

// func marchPacket(pp *packetParams, pk *rayPacket) bool
//
// Each pass of the loop runs two samples' work: the front of the next
// sample (its grid coordinate, cell fractions and corner values, which
// depend only on t) into the slot R11 points at, then the back of this
// sample from the slot R10 points at: the trilinear blend, tn, the
// transfer function and compositing. The two do not depend on each
// other, so the next sample's loads overlap this sample's arithmetic.
//
// Register use: Y15 this sample's t, Y11 the next sample's, Y14 active
// lanes (t < t1, not yet opaque), Y13 the front's loading lanes (t < t1
// and inside the grid) and then the back's live lanes (loading and
// active) and compositing ones, Y12 sample counts, Y4 the sample's
// value and then tn, Y7 1.0 from normalization on. The corner loads
// leave early termination out: an opaque lane still inside the grid
// loads corners it does not use.
TEXT ·marchPacket(SB), NOSPLIT, $0-17
	MOVQ     pp+0(FP), AX
	MOVQ     pk+8(FP), BX
	MOVQ     packetParams_v(AX), SI
	MOVQ     packetParams_vy(AX), DI
	MOVQ     packetParams_vz(AX), R8
	MOVQ     packetParams_vyz(AX), R9
	LEAQ     rayPacket_slots(BX), R10
	LEAQ     (rayPacket_slots+packetSlot__size)(BX), R11
	VMOVUPD  rayPacket_t(BX), Y15
	VMOVAPD  Y15, Y11
	VPCMPEQQ Y14, Y14, Y14
	VPXOR    Y12, Y12, Y12
	JMP      front // the first pass has no sample to composite: slot 0 loads nothing

loop:
	VADDPD packetParams_step(AX), Y15, Y11

front:
	// The next sample's grid coordinate, loading lanes and cell.
	VXORPD Y3, Y3, Y3
	VCMPPD $LT, rayPacket_t1(BX), Y11, Y13
	AXIS(rayPacket_ox, rayPacket_dx, 0, Y0, Y5)
	AXIS(rayPacket_oy, rayPacket_dy, 1, Y1, Y5)
	AXIS(rayPacket_oz, rayPacket_dz, 2, Y2, Y5)
	VMOVUPD Y13, packetSlot_load(R11)
	CELL(Y0, 0, X4, Y7)
	CELL(Y1, 1, X5, Y7)
	CELL(Y2, 2, X6, Y7)

	// Its corner index b = i + j*sy + k*sz per lane, widened, with the
	// lanes that load no corners set to 0: they load vals[0:2], in
	// range, and never use it.
	VPMULLD      packetParams_sy(AX), X5, X5
	VPMULLD      packetParams_sz(AX), X6, X6
	VPADDD       X5, X4, X4
	VPADDD       X6, X4, X4
	VPMOVZXDQ    X4, Y6
	VPAND        Y13, Y6, Y6
	VMOVQ        X6, CX
	VPEXTRQ      $1, X6, DX
	VEXTRACTI128 $1, Y6, X7
	VMOVQ        X7, R12
	VPEXTRQ      $1, X7, R13
	PAIRS(SI, 0)
	PAIRS(DI, 2)
	PAIRS(R8, 4)
	PAIRS(R9, 6)

	// This sample: for ; t < t1; t += step.
	VCMPPD    $LT, rayPacket_t1(BX), Y15, Y13
	VANDPD    Y13, Y14, Y14
	VMOVMSKPD Y14, CX
	TESTL     CX, CX
	JZ        done
	VANDPD    packetSlot_load(R10), Y14, Y13
	VMOVMSKPD Y13, CX
	TESTL     CX, CX
	JZ        next
	VPSUBQ    Y13, Y12, Y12

	// Trilinear blend: c00, c10 -> c0; c01, c11 -> c1; c0, c1 -> v.
	CORNERS(0, Y4, Y5)
	LERP(Y4, Y5, 0)
	CORNERS(2, Y5, Y6)
	LERP(Y5, Y6, 0)
	LERP(Y4, Y5, 1)
	CORNERS(4, Y5, Y6)
	LERP(Y5, Y6, 0)
	CORNERS(6, Y6, Y7)
	LERP(Y6, Y7, 0)
	LERP(Y5, Y6, 1)
	LERP(Y4, Y5, 2)

	// tn = Clamp((v - min) / span, 0, 1): MAXPD and MINPD return their
	// second operand, v's, when it is NaN or the pair compares equal, so
	// NaN and -0 pass through as Clamp passes them.
	VXORPD  Y3, Y3, Y3
	VSUBPD  packetParams_normMin(AX), Y4, Y4
	VDIVPD  packetParams_normSpan(AX), Y4, Y4
	VMAXPD  Y4, Y3, Y4
	VMOVUPD packetParams_one(AX), Y7
	VMINPD  Y4, Y7, Y4

	// A live tn at or below the first stop, or NaN, is not the table's.
	VCMPPD    $NGT, packetParams_first(AX), Y4, Y6
	VANDPD    Y13, Y6, Y6
	VMOVMSKPD Y6, CX
	TESTL     CX, CX
	JNZ       bail

	// Opacity from the segment counted below tn: f = (tn - lo) / span
	// where span > 0, else 0; sa = base + f*delta.
	SEGMENT(packetParams_alpha(AX), rayPacket_alphaOff, alphaLanes_below, alphaLanes_hi, alphamiss)

alpha:
	VSUBPD alphaLanes_lo(DX), Y4, Y6
	VDIVPD alphaLanes_span(DX), Y6, Y6
	VANDPD alphaLanes_spanPos(DX), Y6, Y6
	VMULPD alphaLanes_delta(DX), Y6, Y6
	VADDPD alphaLanes_base(DX), Y6, Y8

	// Composite the live lanes whose opacity is not <= 0 (NaN composites).
	VXORPD    Y3, Y3, Y3
	VCMPPD    $NLE, Y3, Y8, Y6
	VANDPD    Y6, Y13, Y13
	VMOVMSKPD Y13, CX
	TESTL     CX, CX
	JZ        next

	// Color, likewise, over the compositing lanes: base + delta*f.
	SEGMENT(packetParams_color(AX), rayPacket_colorOff, colorLanes_below, colorLanes_hi, colormiss)

color:
	VSUBPD colorLanes_lo(DX), Y4, Y6
	VDIVPD colorLanes_span(DX), Y6, Y6
	VANDPD colorLanes_spanPos(DX), Y6, Y6
	VMULPD (colorLanes_delta+0)(DX), Y6, Y0
	VADDPD (colorLanes_base+0)(DX), Y0, Y0
	VMULPD (colorLanes_delta+32)(DX), Y6, Y1
	VADDPD (colorLanes_base+32)(DX), Y1, Y1
	VMULPD (colorLanes_delta+64)(DX), Y6, Y2
	VADDPD (colorLanes_base+64)(DX), Y2, Y2

	// om = 1 - sa; sa = 1 - om; w = (1 - ca)*sa; c += w*s under Y13.
	VSUBPD    Y8, Y7, Y8
	VSUBPD    Y8, Y7, Y8
	VMOVUPD   rayPacket_ca(BX), Y9
	VSUBPD    Y9, Y7, Y10
	VMULPD    Y8, Y10, Y10
	VMULPD    Y0, Y10, Y0
	VMOVUPD   rayPacket_cr(BX), Y5
	VADDPD    Y0, Y5, Y0
	VBLENDVPD Y13, Y0, Y5, Y5
	VMOVUPD   Y5, rayPacket_cr(BX)
	VMULPD    Y1, Y10, Y1
	VMOVUPD   rayPacket_cg(BX), Y5
	VADDPD    Y1, Y5, Y1
	VBLENDVPD Y13, Y1, Y5, Y5
	VMOVUPD   Y5, rayPacket_cg(BX)
	VMULPD    Y2, Y10, Y2
	VMOVUPD   rayPacket_cb(BX), Y5
	VADDPD    Y2, Y5, Y2
	VBLENDVPD Y13, Y2, Y5, Y5
	VMOVUPD   Y5, rayPacket_cb(BX)
	VADDPD    Y10, Y9, Y10
	VBLENDVPD Y13, Y10, Y9, Y9
	VMOVUPD   Y9, rayPacket_ca(BX)

	// The first composited sample's depth: float32(t).
	VMOVUPD    rayPacket_depth(BX), Y5
	VCMPPD     $EQ, packetParams_maxDepth(AX), Y5, Y6
	VANDPD     Y13, Y6, Y6
	VCVTPD2PSY Y15, X0
	VCVTPS2PD  X0, Y0
	VBLENDVPD  Y6, Y0, Y5, Y5
	VMOVUPD    Y5, rayPacket_depth(BX)

	// Early termination at ca >= 0.99.
	VCMPPD  $GE, packetParams_opaque(AX), Y9, Y6
	VANDPD  Y13, Y6, Y6
	VANDNPD Y14, Y6, Y14

next:
	VMOVAPD Y11, Y15
	XCHGQ   R10, R11
	JMP     loop

done:
	VMOVDQU Y12, rayPacket_samples(BX)
	VZEROUPPER
	MOVB    $1, ret+16(FP)
	RET

bail:
	VZEROUPPER
	MOVB $0, ret+16(FP)
	RET

	// Some lane's tn lies outside the last looked-up segment: count the
	// segments, and if the lanes counted different ones, gather each
	// lane's own.
alphamiss:
	COUNT(packetParams_alpha(AX), packetParams_nAlpha(AX), alphaLanes__size, alphaLanes_hi)
	LOOKUP(packetParams_alpha(AX), alphaLanes__size, rayPacket_alphaOff, alpha, alphagather)

alphagather:
	VPMULUDQ packetParams_alphaStride(AX), Y5, Y5
	MOVQ     packetParams_alpha(AX), CX
	GATHER1(alphaLanes_lo, rayPacket_alphaTmp)
	GATHER1(alphaLanes_span, rayPacket_alphaTmp)
	GATHER1(alphaLanes_spanPos, rayPacket_alphaTmp)
	GATHER1(alphaLanes_base, rayPacket_alphaTmp)
	GATHER1(alphaLanes_delta, rayPacket_alphaTmp)
	LEAQ     rayPacket_alphaTmp(BX), DX
	JMP      alpha

colormiss:
	COUNT(packetParams_color(AX), packetParams_nColor(AX), colorLanes__size, colorLanes_hi)
	LOOKUP(packetParams_color(AX), colorLanes__size, rayPacket_colorOff, color, colorgather)

colorgather:
	VPMULUDQ packetParams_colorStride(AX), Y5, Y5
	MOVQ     packetParams_color(AX), CX
	GATHER1(colorLanes_lo, rayPacket_colorTmp)
	GATHER1(colorLanes_span, rayPacket_colorTmp)
	GATHER1(colorLanes_spanPos, rayPacket_colorTmp)
	GATHER1(colorLanes_base+0, rayPacket_colorTmp)
	GATHER1(colorLanes_base+32, rayPacket_colorTmp)
	GATHER1(colorLanes_base+64, rayPacket_colorTmp)
	GATHER1(colorLanes_delta+0, rayPacket_colorTmp)
	GATHER1(colorLanes_delta+32, rayPacket_colorTmp)
	GATHER1(colorLanes_delta+64, rayPacket_colorTmp)
	LEAQ     rayPacket_colorTmp(BX), DX
	JMP      color
