//go:build amd64 && !purego

#include "textflag.h"

// The 8-lane xoshiro256** kernels. Z0–Z3 hold the state words s0–s3 of
// the 8 lanes, lane j in quadword j, and every lane takes the same step
// as Stream.Uint64.

// STEP puts the 8 lanes' next output in X and steps their states; T is
// clobbered. The output is rotl(s1·5, 7)·9 with the products as shifts
// and adds, and the state update is Uint64's five XORs, two of them fused
// into three-way XORs (VPTERNLOGQ 0x96):
//
//	s3 ^= s1; s1 ^= s2 ^ s0; s2 ^= s0 ^ (s1<<17); s0 ^= s3; s3 = rotl(s3, 45)
#define STEP(X, T) \
	VPSLLQ     $2, Z1, X;        \
	VPADDQ     Z1, X, X;         \
	VPROLQ     $7, X, X;         \
	VPSLLQ     $3, X, T;         \
	VPADDQ     X, T, X;          \
	VPSLLQ     $17, Z1, T;       \
	VPXORQ     Z1, Z3, Z3;       \
	VPTERNLOGQ $0x96, Z0, Z2, Z1; \
	VPTERNLOGQ $0x96, T, Z0, Z2;  \
	VPXORQ     Z3, Z0, Z0;       \
	VPROLQ     $45, Z3, Z3

#define LOADSTATE(R) \
	VMOVDQU64 (R), Z0;    \
	VMOVDQU64 64(R), Z1;  \
	VMOVDQU64 128(R), Z2; \
	VMOVDQU64 192(R), Z3

#define STORESTATE(R) \
	VMOVDQU64 Z0, (R);    \
	VMOVDQU64 Z1, 64(R);  \
	VMOVDQU64 Z2, 128(R); \
	VMOVDQU64 Z3, 192(R)

// bit64 is the quadwords 1<<i, i = 0…63: the bit of a chunk's slot i.
DATA bit64<>+0(SB)/8, $0x0000000000000001
DATA bit64<>+8(SB)/8, $0x0000000000000002
DATA bit64<>+16(SB)/8, $0x0000000000000004
DATA bit64<>+24(SB)/8, $0x0000000000000008
DATA bit64<>+32(SB)/8, $0x0000000000000010
DATA bit64<>+40(SB)/8, $0x0000000000000020
DATA bit64<>+48(SB)/8, $0x0000000000000040
DATA bit64<>+56(SB)/8, $0x0000000000000080
DATA bit64<>+64(SB)/8, $0x0000000000000100
DATA bit64<>+72(SB)/8, $0x0000000000000200
DATA bit64<>+80(SB)/8, $0x0000000000000400
DATA bit64<>+88(SB)/8, $0x0000000000000800
DATA bit64<>+96(SB)/8, $0x0000000000001000
DATA bit64<>+104(SB)/8, $0x0000000000002000
DATA bit64<>+112(SB)/8, $0x0000000000004000
DATA bit64<>+120(SB)/8, $0x0000000000008000
DATA bit64<>+128(SB)/8, $0x0000000000010000
DATA bit64<>+136(SB)/8, $0x0000000000020000
DATA bit64<>+144(SB)/8, $0x0000000000040000
DATA bit64<>+152(SB)/8, $0x0000000000080000
DATA bit64<>+160(SB)/8, $0x0000000000100000
DATA bit64<>+168(SB)/8, $0x0000000000200000
DATA bit64<>+176(SB)/8, $0x0000000000400000
DATA bit64<>+184(SB)/8, $0x0000000000800000
DATA bit64<>+192(SB)/8, $0x0000000001000000
DATA bit64<>+200(SB)/8, $0x0000000002000000
DATA bit64<>+208(SB)/8, $0x0000000004000000
DATA bit64<>+216(SB)/8, $0x0000000008000000
DATA bit64<>+224(SB)/8, $0x0000000010000000
DATA bit64<>+232(SB)/8, $0x0000000020000000
DATA bit64<>+240(SB)/8, $0x0000000040000000
DATA bit64<>+248(SB)/8, $0x0000000080000000
DATA bit64<>+256(SB)/8, $0x0000000100000000
DATA bit64<>+264(SB)/8, $0x0000000200000000
DATA bit64<>+272(SB)/8, $0x0000000400000000
DATA bit64<>+280(SB)/8, $0x0000000800000000
DATA bit64<>+288(SB)/8, $0x0000001000000000
DATA bit64<>+296(SB)/8, $0x0000002000000000
DATA bit64<>+304(SB)/8, $0x0000004000000000
DATA bit64<>+312(SB)/8, $0x0000008000000000
DATA bit64<>+320(SB)/8, $0x0000010000000000
DATA bit64<>+328(SB)/8, $0x0000020000000000
DATA bit64<>+336(SB)/8, $0x0000040000000000
DATA bit64<>+344(SB)/8, $0x0000080000000000
DATA bit64<>+352(SB)/8, $0x0000100000000000
DATA bit64<>+360(SB)/8, $0x0000200000000000
DATA bit64<>+368(SB)/8, $0x0000400000000000
DATA bit64<>+376(SB)/8, $0x0000800000000000
DATA bit64<>+384(SB)/8, $0x0001000000000000
DATA bit64<>+392(SB)/8, $0x0002000000000000
DATA bit64<>+400(SB)/8, $0x0004000000000000
DATA bit64<>+408(SB)/8, $0x0008000000000000
DATA bit64<>+416(SB)/8, $0x0010000000000000
DATA bit64<>+424(SB)/8, $0x0020000000000000
DATA bit64<>+432(SB)/8, $0x0040000000000000
DATA bit64<>+440(SB)/8, $0x0080000000000000
DATA bit64<>+448(SB)/8, $0x0100000000000000
DATA bit64<>+456(SB)/8, $0x0200000000000000
DATA bit64<>+464(SB)/8, $0x0400000000000000
DATA bit64<>+472(SB)/8, $0x0800000000000000
DATA bit64<>+480(SB)/8, $0x1000000000000000
DATA bit64<>+488(SB)/8, $0x2000000000000000
DATA bit64<>+496(SB)/8, $0x4000000000000000
DATA bit64<>+504(SB)/8, $0x8000000000000000
GLOBL bit64<>(SB), RODATA|NOPTR, $512

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (lo, hi uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, lo+0(FP)
	MOVL DX, hi+4(FP)
	RET

// func seedLanes(s *Stream, tab *laneTable, st *laneState)
//
// The scalar state in R8–R11 walks T^i·s for i = 0…255, and entry i of
// the table masks which lanes' accumulators Z0–Z3 take it in.
TEXT ·seedLanes(SB), NOSPLIT, $0-24
	MOVQ s+0(FP), AX
	MOVQ tab+8(FP), SI
	MOVQ st+16(FP), DI
	MOVQ (AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ $256, CX

seed:
	MOVBLZX (SI), DX
	KMOVW   DX, K1
	VPBROADCASTQ R8, Z4
	VPBROADCASTQ R9, Z5
	VPBROADCASTQ R10, Z6
	VPBROADCASTQ R11, Z7
	VPXORQ  Z4, Z0, K1, Z0
	VPXORQ  Z5, Z1, K1, Z1
	VPXORQ  Z6, Z2, K1, Z2
	VPXORQ  Z7, Z3, K1, Z3
	MOVQ    R9, DX
	SHLQ    $17, DX
	XORQ    R8, R10
	XORQ    R9, R11
	XORQ    R10, R9
	XORQ    R11, R8
	XORQ    DX, R10
	ROLQ    $45, R11
	INCQ    SI
	DECQ    CX
	JNZ     seed

	STORESTATE(DI)
	VZEROUPPER
	RET

// func scheduleBlock(st *laneState, cuts *uint64, a, edges int, out *uint64)
//
// Per edge and chunk of up to 64 slots: Z4 gathers the heads bits, R11
// walks the slot bits, and slot i is heads where x < cuts[i].
TEXT ·scheduleBlock(SB), NOSPLIT, $0-40
	MOVQ st+0(FP), AX
	MOVQ cuts+8(FP), SI
	MOVQ a+16(FP), CX
	MOVQ edges+24(FP), DX
	MOVQ out+32(FP), DI
	LOADSTATE(AX)

sedge:
	MOVQ SI, R8 // this slot's cut
	MOVQ CX, R9 // slots left in the edge

schunk:
	MOVQ    $64, R10
	CMPQ    R9, R10
	CMOVQLT R9, R10
	SUBQ    R10, R9
	VPXORQ  Z4, Z4, Z4
	LEAQ    bit64<>(SB), R11

sslot:
	STEP(Z5, Z8)
	VPCMPUQ.BCST $1, (R8), Z5, K1
	VPORQ.BCST (R11), Z4, K1, Z4
	ADDQ    $8, R8
	ADDQ    $8, R11
	DECQ    R10
	JNZ     sslot

	VMOVDQU64 Z4, (DI)
	ADDQ    $64, DI
	TESTQ   R9, R9
	JNZ     schunk
	DECQ    DX
	JNZ     sedge

	STORESTATE(AX)
	VZEROUPPER
	RET

// func chainBlock(st *laneState, ch *chainCuts, a, edges int, out *uint64)
//
// K2 holds the lanes whose chain is on. Each slot but an edge's last
// records K2 in Z4 and draws the transition: the cut is leave where the
// chain is on and enter where it is off, and the lanes whose word falls
// below it switch.
TEXT ·chainBlock(SB), NOSPLIT, $0-40
	MOVQ st+0(FP), AX
	MOVQ ch+8(FP), SI
	MOVQ a+16(FP), CX
	MOVQ edges+24(FP), DX
	MOVQ out+32(FP), DI
	LOADSTATE(AX)
	VPBROADCASTQ 8(SI), Z9   // leave
	VPBROADCASTQ 16(SI), Z10 // enter
	MOVQ 24(SI), R11         // startDraws
	MOVQ 32(SI), R12         // startOn

cedge:
	TESTQ R11, R11
	JZ    cfixed
	STEP(Z5, Z8)
	VPCMPUQ.BCST $1, (SI), Z5, K2
	JMP   cslots

cfixed:
	KMOVW R12, K2

cslots:
	MOVQ CX, R9 // slots left in the edge

cchunk:
	MOVQ    $64, R10
	CMPQ    R9, R10
	CMOVQLT R9, R10
	SUBQ    R10, R9
	VPXORQ  Z4, Z4, Z4
	LEAQ    bit64<>(SB), R13
	TESTQ   R9, R9
	JNZ     cslot
	DECQ    R10 // the edge's last slot draws no transition
	JZ      clast

cslot:
	VPORQ.BCST (R13), Z4, K2, Z4
	STEP(Z5, Z8)
	VPBLENDMQ Z9, Z10, K2, Z11
	VPCMPUQ $1, Z11, Z5, K3
	KXORW   K3, K2, K2
	ADDQ    $8, R13
	DECQ    R10
	JNZ     cslot
	TESTQ   R9, R9
	JNZ     cstore

clast:
	VPORQ.BCST (R13), Z4, K2, Z4

cstore:
	VMOVDQU64 Z4, (DI)
	ADDQ    $64, DI
	TESTQ   R9, R9
	JNZ     cchunk
	DECQ    DX
	JNZ     cedge

	STORESTATE(AX)
	VZEROUPPER
	RET

// iota16 is the dwords 1…16: the labels of a bitmap's first 16 slots.
DATA iota16<>+0(SB)/8, $0x0000000200000001
DATA iota16<>+8(SB)/8, $0x0000000400000003
DATA iota16<>+16(SB)/8, $0x0000000600000005
DATA iota16<>+24(SB)/8, $0x0000000800000007
DATA iota16<>+32(SB)/8, $0x0000000a00000009
DATA iota16<>+40(SB)/8, $0x0000000c0000000b
DATA iota16<>+48(SB)/8, $0x0000000e0000000d
DATA iota16<>+56(SB)/8, $0x000000100000000f
GLOBL iota16<>(SB), RODATA|NOPTR, $64

// PIECE packs the labels of the next 16 slots of the bitmap word in BX
// to (DI) and advances DI past them: the low 16 bits of BX mask which of
// the labels in Z3 VPCOMPRESSD keeps, all 16 are stored, and the next
// store overwrites the rest. Z3 moves on to the next 16 labels.
#define PIECE \
	KMOVW       BX, K1;           \
	VPCOMPRESSD Z3, K1, Z4;       \
	VMOVDQU32   Z4, (DI);         \
	MOVWLZX     BX, R12;          \
	POPCNTL     R12, R12;         \
	LEAQ        (DI)(R12*4), DI;  \
	SHRQ        $16, BX;          \
	VPADDD      Z2, Z3, Z3

// func expandBlock(out *int32, off *int32, bitmaps *uint64, lane, chunks, last, edges, base int) int
//
// No branch depends on a bit: an edge's words but its last are four
// PIECEs each, its last word is last PIECEs, and R9 counts the labels by
// each word's population count.
TEXT ·expandBlock(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ off+8(FP), R8
	MOVQ bitmaps+16(FP), SI
	MOVQ lane+24(FP), AX
	LEAQ (SI)(AX*8), SI
	MOVQ chunks+32(FP), CX
	DECQ CX // whole words per edge
	MOVQ edges+48(FP), DX
	MOVQ base+56(FP), R9
	MOVQ R9, R13
	VMOVDQU32 iota16<>(SB), Z1
	MOVL $16, AX
	VPBROADCASTD AX, Z2

xedge:
	VMOVDQA32 Z1, Z3
	MOVQ  CX, R10
	TESTQ R10, R10
	JZ    xlast

xword:
	MOVQ    (SI), BX
	ADDQ    $64, SI
	POPCNTQ BX, R11
	ADDQ    R11, R9
	PIECE
	PIECE
	PIECE
	PIECE
	DECQ    R10
	JNZ     xword

xlast:
	MOVQ    (SI), BX
	ADDQ    $64, SI
	POPCNTQ BX, R11
	ADDQ    R11, R9
	MOVQ    last+40(FP), R10

xpiece:
	PIECE
	DECQ    R10
	JNZ     xpiece

	MOVL R9, (R8)
	ADDQ $4, R8
	DECQ DX
	JNZ  xedge

	SUBQ R13, R9
	MOVQ R9, ret+64(FP)
	VZEROUPPER
	RET
