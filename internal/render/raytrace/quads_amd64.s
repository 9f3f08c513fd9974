#include "go_asm.h"
#include "textflag.h"

// Comparison predicates for VCMPPD $p, b, a, dst (dst = a p b). The
// ordered ones are false on NaN, as Go's compares are.
#define EQ 0x00
#define LT 0x01
#define LE 0x02

// Every instruction below is the scalar kernel's operation on four
// lanes, in the scalar kernel's order: one rounding per Go operator,
// and no fused multiply-add.

DATA one<>+0(SB)/8, $1.0
DATA one<>+8(SB)/8, $1.0
DATA one<>+16(SB)/8, $1.0
DATA one<>+24(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $32

DATA half<>+0(SB)/8, $0.5
DATA half<>+8(SB)/8, $0.5
DATA half<>+16(SB)/8, $0.5
DATA half<>+24(SB)/8, $0.5
GLOBL half<>(SB), RODATA|NOPTR, $32

// shade's constants: the attenuation slope, the ambient and diffuse
// weights, and the specular weight.
DATA tenth<>+0(SB)/8, $0.1
DATA tenth<>+8(SB)/8, $0.1
DATA tenth<>+16(SB)/8, $0.1
DATA tenth<>+24(SB)/8, $0.1
GLOBL tenth<>(SB), RODATA|NOPTR, $32

DATA ambient<>+0(SB)/8, $0.15
DATA ambient<>+8(SB)/8, $0.15
DATA ambient<>+16(SB)/8, $0.15
DATA ambient<>+24(SB)/8, $0.15
GLOBL ambient<>(SB), RODATA|NOPTR, $32

DATA diffuse<>+0(SB)/8, $0.85
DATA diffuse<>+8(SB)/8, $0.85
DATA diffuse<>+16(SB)/8, $0.85
DATA diffuse<>+24(SB)/8, $0.85
GLOBL diffuse<>(SB), RODATA|NOPTR, $32

DATA specular<>+0(SB)/8, $0.25
DATA specular<>+8(SB)/8, $0.25
DATA specular<>+16(SB)/8, $0.25
DATA specular<>+24(SB)/8, $0.25
GLOBL specular<>(SB), RODATA|NOPTR, $32

// math.Abs's mask: every bit but the sign.
DATA abs<>+0(SB)/8, $0x7fffffffffffffff
DATA abs<>+8(SB)/8, $0x7fffffffffffffff
DATA abs<>+16(SB)/8, $0x7fffffffffffffff
DATA abs<>+24(SB)/8, $0x7fffffffffffffff
GLOBL abs<>(SB), RODATA|NOPTR, $32

// A PixelXY doubleword's X half.
DATA low16<>+0(SB)/4, $0xffff
DATA low16<>+4(SB)/4, $0xffff
DATA low16<>+8(SB)/4, $0xffff
DATA low16<>+12(SB)/4, $0xffff
GLOBL low16<>(SB), RODATA|NOPTR, $16

// The power's bit patterns, as int64 lanes: the fraction field (also the
// largest subnormal), +Inf, 1.0, 0.5's exponent field, Frexp's exponent
// bias and the first biased exponent past the normal range.
DATA frac<>+0(SB)/8, $0x000fffffffffffff
DATA frac<>+8(SB)/8, $0x000fffffffffffff
DATA frac<>+16(SB)/8, $0x000fffffffffffff
DATA frac<>+24(SB)/8, $0x000fffffffffffff
GLOBL frac<>(SB), RODATA|NOPTR, $32

DATA inf<>+0(SB)/8, $0x7ff0000000000000
DATA inf<>+8(SB)/8, $0x7ff0000000000000
DATA inf<>+16(SB)/8, $0x7ff0000000000000
DATA inf<>+24(SB)/8, $0x7ff0000000000000
GLOBL inf<>(SB), RODATA|NOPTR, $32

DATA onebits<>+0(SB)/8, $0x3ff0000000000000
DATA onebits<>+8(SB)/8, $0x3ff0000000000000
DATA onebits<>+16(SB)/8, $0x3ff0000000000000
DATA onebits<>+24(SB)/8, $0x3ff0000000000000
GLOBL onebits<>(SB), RODATA|NOPTR, $32

DATA halfexp<>+0(SB)/8, $0x3fe0000000000000
DATA halfexp<>+8(SB)/8, $0x3fe0000000000000
DATA halfexp<>+16(SB)/8, $0x3fe0000000000000
DATA halfexp<>+24(SB)/8, $0x3fe0000000000000
GLOBL halfexp<>(SB), RODATA|NOPTR, $32

DATA bias<>+0(SB)/8, $1022
DATA bias<>+8(SB)/8, $1022
DATA bias<>+16(SB)/8, $1022
DATA bias<>+24(SB)/8, $1022
GLOBL bias<>(SB), RODATA|NOPTR, $32

DATA expinf<>+0(SB)/8, $2047
DATA expinf<>+8(SB)/8, $2047
DATA expinf<>+16(SB)/8, $2047
DATA expinf<>+24(SB)/8, $2047
GLOBL expinf<>(SB), RODATA|NOPTR, $32

// NORMALIZE is Vec3.Normalize of (X, Y, Z) in place: the length
// sqrt(X*X + Y*Y + Z*Z) into L, then each component times 1/L, or times
// 1 (unchanged) where L is 0. Y15 holds 1.0; T is clobbered.
#define NORMALIZE(X, Y, Z, L, T) \
	VMULPD    X, X, L; \
	VMULPD    Y, Y, T; \
	VADDPD    T, L, L; \
	VMULPD    Z, Z, T; \
	VADDPD    T, L, L; \
	VSQRTPD   L, L; \
	VXORPD    T, T, T; \
	VCMPPD    $EQ, T, L, T; \
	VDIVPD    L, Y15, L; \
	VBLENDVPD T, Y15, L, L; \
	VMULPD    L, X, X; \
	VMULPD    L, Y, Y; \
	VMULPD    L, Z, Z

// DOT sets D to Vec3.Dot of (AX_, AY_, AZ_) and (BX_, BY_, BZ_); T is
// clobbered.
#define DOT(AX_, AY_, AZ_, BX_, BY_, BZ_, D, T) \
	VMULPD BX_, AX_, D; \
	VMULPD BY_, AY_, T; \
	VADDPD T, D, D; \
	VMULPD BZ_, AZ_, T; \
	VADDPD T, D, D

// SQUARE is one step of math.Pow's squaring ladder: X1 *= X1, XE <<= 1,
// and where X1 < 0.5, X1 += X1 and XE-- (the compare's all-ones lanes
// are -1 as int64). T and U are clobbered.
#define SQUARE(X1, XE, T, U) \
	VMULPD    X1, X1, X1; \
	VPADDQ    XE, XE, XE; \
	VCMPPD    $LT, half<>(SB), X1, T; \
	VADDPD    X1, X1, U; \
	VBLENDVPD T, U, X1, X1; \
	VPADDQ    T, XE, XE

// POW30 sets X to math.Pow(X, 30) and OK to the lanes it computed: those
// whose base is a positive normal other than 1 and whose power is
// normal. It takes math.Pow's own steps for the exponent 30 (0b11110):
// Frexp's fraction X1 and exponent XE, then the ladder, which multiplies
// A1 by X1 and adds XE to AE at each set bit, then Ldexp(A1, AE), which
// for a normal result only adds AE to A1's exponent field. math.Pow's
// bail-out on an exponent past +-4096 fires only for a base whose power
// is far outside the normal range, a lane this leaves out anyway.
// T and U are clobbered.
#define POW30(X, OK, X1, XE, A1, AE, T, U) \
	VPCMPGTQ  frac<>(SB), X, OK; \
	VMOVDQU   inf<>(SB), T; \
	VPCMPGTQ  X, T, T; \
	VPAND     T, OK, OK; \
	VPCMPEQQ  onebits<>(SB), X, T; \
	VPANDN    OK, T, OK; \
	VPAND     frac<>(SB), X, X1; \
	VPOR      halfexp<>(SB), X1, X1; \
	VPSRLQ    $52, X, XE; \
	VPSUBQ    bias<>(SB), XE, XE; \
	SQUARE(X1, XE, T, U); \
	VMOVDQU   X1, A1; \
	VMOVDQU   XE, AE; \
	SQUARE(X1, XE, T, U); \
	VMULPD    X1, A1, A1; \
	VPADDQ    XE, AE, AE; \
	SQUARE(X1, XE, T, U); \
	VMULPD    X1, A1, A1; \
	VPADDQ    XE, AE, AE; \
	SQUARE(X1, XE, T, U); \
	VMULPD    X1, A1, A1; \
	VPADDQ    XE, AE, AE; \
	VPSRLQ    $52, A1, T; \
	VPADDQ    AE, T, T; \
	VPXOR     U, U, U; \
	VPCMPGTQ  U, T, U; \
	VPAND     U, OK, OK; \
	VMOVDQU   expinf<>(SB), U; \
	VPCMPGTQ  T, U, U; \
	VPAND     U, OK, OK; \
	VPSLLQ    $52, AE, AE; \
	VPADDQ    AE, A1, X

// func raygen4(f *raygenFrame, xy *PixelXY, dx, dy, dz *float64, quads, stride int)
//
// Registers: AX f, SI xy, R8-R10 dx, dy, dz, CX the iterations left,
// DX the stride, Y15 1.0, X14 low16.
TEXT ·raygen4(SB), NOSPLIT, $0-56
	MOVQ    f+0(FP), AX
	MOVQ    xy+8(FP), SI
	MOVQ    dx+16(FP), R8
	MOVQ    dy+24(FP), R9
	MOVQ    dz+32(FP), R10
	MOVQ    quads+40(FP), CX
	MOVQ    stride+48(FP), DX
	TESTQ   CX, CX
	JLE     rgdone
	VMOVUPD one<>(SB), Y15
	VMOVDQU low16<>(SB), X14

rgloop:
	// The lanes' pixel coordinates as float64: X in Y1, Y in Y2.
	CMPQ         DX, $4
	JEQ          rgpixel
	VMOVDQU      (SI), X0
	JMP          rgconv

rgpixel:
	VPBROADCASTD (SI), X0

rgconv:
	VPAND     X14, X0, X1
	VPSRLD    $16, X0, X2
	VCVTDQ2PD X1, Y1
	VCVTDQ2PD X2, Y2

	// sx = (2*(px+jx)/w - 1) * tanF * aspect in Y1.
	VADDPD raygenFrame_jx(AX), Y1, Y1
	VADDPD Y1, Y1, Y1
	VDIVPD raygenFrame_w(AX), Y1, Y1
	VSUBPD Y15, Y1, Y1
	VMULPD raygenFrame_tanF(AX), Y1, Y1
	VMULPD raygenFrame_aspect(AX), Y1, Y1

	// sy = (1 - 2*(py+jy)/h) * tanF in Y2.
	VADDPD raygenFrame_jy(AX), Y2, Y2
	VADDPD Y2, Y2, Y2
	VDIVPD raygenFrame_h(AX), Y2, Y2
	VSUBPD Y2, Y15, Y2
	VMULPD raygenFrame_tanF(AX), Y2, Y2

	// forward + right*sx + up*sy in Y3-Y5, normalized.
	VMULPD raygenFrame_rx(AX), Y1, Y3
	VADDPD raygenFrame_fx(AX), Y3, Y3
	VMULPD raygenFrame_ux(AX), Y2, Y6
	VADDPD Y6, Y3, Y3
	VMULPD raygenFrame_ry(AX), Y1, Y4
	VADDPD raygenFrame_fy(AX), Y4, Y4
	VMULPD raygenFrame_uy(AX), Y2, Y6
	VADDPD Y6, Y4, Y4
	VMULPD raygenFrame_rz(AX), Y1, Y5
	VADDPD raygenFrame_fz(AX), Y5, Y5
	VMULPD raygenFrame_uz(AX), Y2, Y6
	VADDPD Y6, Y5, Y5
	NORMALIZE(Y3, Y4, Y5, Y6, Y7)

	VMOVUPD Y3, (R8)
	VMOVUPD Y4, (R9)
	VMOVUPD Y5, (R10)
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    DX, SI
	DECQ    CX
	JNZ     rgloop
	VZEROUPPER

rgdone:
	RET

// INTERP sets D to the barycentric blend V0*w + V1*u + V2*v of q's
// corner values at offsets V0-V2, with w, u, v in Y2, Y0, Y1; T is
// clobbered.
#define INTERP(V0, V1, V2, D, T) \
	VMULPD V0(BX), Y2, D; \
	VMULPD V1(BX), Y0, T; \
	VADDPD T, D, D; \
	VMULPD V2(BX), Y1, T; \
	VADDPD T, D, D

// TOLIGHT sets D to the light's coordinate at L minus the hit's,
// origin O + direction DIR * t, with t in Y11; T is clobbered.
#define TOLIGHT(O, DIR, L, D, T) \
	VMULPD  DIR(BX), Y11, T; \
	VADDPD  O(AX), T, T; \
	VMOVUPD L(AX), D; \
	VSUBPD  T, D, D

// CHANNEL sets q's output OUT to one channel of the base color times
// the light factor in Y12, plus the specular term in Y13. The base
// color is ColorMap.Sample's: C0 where t <= p0 (Y14), the first
// segment's C0 + D1*f1 (f1 in Y9) where t <= p1 (Y5), the second's
// C1 + D2*f2 (f2 in Y10) where t <= p2 (Y8), and C2 past it or on NaN.
// Y1-Y3 are clobbered.
#define CHANNEL(C0, C1, C2, D1, D2, OUT) \
	VMULPD    D1(AX), Y9, Y1; \
	VADDPD    C0(AX), Y1, Y1; \
	VMULPD    D2(AX), Y10, Y2; \
	VADDPD    C1(AX), Y2, Y2; \
	VMOVUPD   C2(AX), Y3; \
	VBLENDVPD Y8, Y2, Y3, Y3; \
	VBLENDVPD Y5, Y1, Y3, Y3; \
	VBLENDVPD Y14, C0(AX), Y3, Y3; \
	VMULPD    Y12, Y3, Y3; \
	VADDPD    Y13, Y3, Y3; \
	VMOVUPD   Y3, OUT(BX)

// func shade4(f *shadeFrame, q *shadeQuad) int
//
// Registers: AX f, BX q, Y15 1.0.
TEXT ·shade4(SB), NOSPLIT, $0-24
	MOVQ    f+0(FP), AX
	MOVQ    q+8(FP), BX
	VMOVUPD one<>(SB), Y15

	// interpolateHit: w = 1 - u - v in Y2 (u Y0, v Y1), the normal in
	// Y3-Y5, normalized, and the scalar in Y6.
	VMOVUPD shadeQuad_u(BX), Y0
	VMOVUPD shadeQuad_v(BX), Y1
	VSUBPD  Y0, Y15, Y2
	VSUBPD  Y1, Y2, Y2
	INTERP(shadeQuad_n0x, shadeQuad_n1x, shadeQuad_n2x, Y3, Y7)
	INTERP(shadeQuad_n0y, shadeQuad_n1y, shadeQuad_n2y, Y4, Y7)
	INTERP(shadeQuad_n0z, shadeQuad_n1z, shadeQuad_n2z, Y5, Y7)
	INTERP(shadeQuad_s0, shadeQuad_s1, shadeQuad_s2, Y6, Y7)
	NORMALIZE(Y3, Y4, Y5, Y7, Y8)

	// shade: toLight in Y8-Y10, its length dist in Y11, then
	// normalized (Normalize takes the same length again).
	VMOVUPD shadeQuad_t(BX), Y11
	TOLIGHT(shadeFrame_ox, shadeQuad_dx, shadeFrame_lx, Y8, Y12)
	TOLIGHT(shadeFrame_oy, shadeQuad_dy, shadeFrame_ly, Y9, Y12)
	TOLIGHT(shadeFrame_oz, shadeQuad_dz, shadeFrame_lz, Y10, Y12)
	VMULPD    Y8, Y8, Y11
	VMULPD    Y9, Y9, Y12
	VADDPD    Y12, Y11, Y11
	VMULPD    Y10, Y10, Y12
	VADDPD    Y12, Y11, Y11
	VSQRTPD   Y11, Y11
	VXORPD    Y12, Y12, Y12
	VCMPPD    $EQ, Y12, Y11, Y12
	VDIVPD    Y11, Y15, Y13
	VBLENDVPD Y12, Y15, Y13, Y13
	VMULPD    Y13, Y8, Y8
	VMULPD    Y13, Y9, Y9
	VMULPD    Y13, Y10, Y10

	// att = intensity / (1 + 0.1*dist) in Y11.
	VMULPD  tenth<>(SB), Y11, Y11
	VADDPD  Y15, Y11, Y11
	VMOVUPD shadeFrame_intensity(AX), Y12
	VDIVPD  Y11, Y12, Y11

	// diffuse = |n.l| in Y12.
	DOT(Y3, Y4, Y5, Y8, Y9, Y10, Y12, Y13)
	VANDPD abs<>(SB), Y12, Y12

	// h = l - dir, normalized, in Y8-Y10; |n.h| in Y13.
	VSUBPD shadeQuad_dx(BX), Y8, Y8
	VSUBPD shadeQuad_dy(BX), Y9, Y9
	VSUBPD shadeQuad_dz(BX), Y10, Y10
	NORMALIZE(Y8, Y9, Y10, Y13, Y14)
	DOT(Y3, Y4, Y5, Y8, Y9, Y10, Y13, Y14)
	VANDPD abs<>(SB), Y13, Y13

	// spec*att = |n.h|^30 * 0.25 * att in Y13, the lanes whose power
	// was computed in Y0.
	POW30(Y13, Y0, Y1, Y2, Y3, Y4, Y5, Y8)
	VMULPD specular<>(SB), Y13, Y13
	VMULPD Y11, Y13, Y13

	// The light factor 0.15 + 0.85*diffuse*att in Y12.
	VMULPD diffuse<>(SB), Y12, Y12
	VMULPD Y11, Y12, Y12
	VADDPD ambient<>(SB), Y12, Y12

	// Normalizer.Normalize in Y6: clamp((s - min)/span, 0, 1), where
	// VMAXPD's and VMINPD's second operand (the scalar) wins on NaN and
	// on equal values as Clamp's compares do; 0.5 on a flat range.
	VSUBPD    shadeFrame_normMin(AX), Y6, Y6
	VDIVPD    shadeFrame_normSpan(AX), Y6, Y6
	VXORPD    Y9, Y9, Y9
	VMAXPD    Y6, Y9, Y6
	VMINPD    Y6, Y15, Y6
	VMOVUPD   shadeFrame_flat(AX), Y10
	VBLENDVPD Y10, half<>(SB), Y6, Y6

	// ColorMap.Sample: its clamp leaves Y6 as it is. The segment
	// fractions in Y9 and Y10, the stop masks in Y14, Y5 and Y8.
	VSUBPD shadeFrame_p0(AX), Y6, Y9
	VDIVPD shadeFrame_span1(AX), Y9, Y9
	VSUBPD shadeFrame_p1(AX), Y6, Y10
	VDIVPD shadeFrame_span2(AX), Y10, Y10
	VCMPPD $LE, shadeFrame_p0(AX), Y6, Y14
	VCMPPD $LE, shadeFrame_p1(AX), Y6, Y5
	VCMPPD $LE, shadeFrame_p2(AX), Y6, Y8
	CHANNEL(shadeFrame_c0x, shadeFrame_c1x, shadeFrame_c2x, shadeFrame_d1x, shadeFrame_d2x, shadeQuad_r)
	CHANNEL(shadeFrame_c0y, shadeFrame_c1y, shadeFrame_c2y, shadeFrame_d1y, shadeFrame_d2y, shadeQuad_g)
	CHANNEL(shadeFrame_c0z, shadeFrame_c1z, shadeFrame_c2z, shadeFrame_d1z, shadeFrame_d2z, shadeQuad_b)

	VMOVMSKPD Y0, DX
	XORQ      $15, DX
	MOVQ      DX, ret+16(FP)
	VZEROUPPER
	RET

// func pow4(x, out *lanes) int
TEXT ·pow4(SB), NOSPLIT, $0-24
	MOVQ      x+0(FP), AX
	MOVQ      out+8(FP), BX
	VMOVUPD   (AX), Y13
	POW30(Y13, Y0, Y1, Y2, Y3, Y4, Y5, Y8)
	VMOVUPD   Y13, (BX)
	VMOVMSKPD Y0, DX
	XORQ      $15, DX
	MOVQ      DX, ret+16(FP)
	VZEROUPPER
	RET
