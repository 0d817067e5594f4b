#include "textflag.h"

// func prefetchNode(p unsafe.Pointer)
TEXT ·prefetchNode(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), AX
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)
	PREFETCHT0 128(AX)
	PREFETCHT0 192(AX)
	PREFETCHT0 256(AX)
	RET

// func prefetchLine(p unsafe.Pointer)
TEXT ·prefetchLine(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), AX
	PREFETCHT0 (AX)
	RET
