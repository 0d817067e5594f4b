#include "textflag.h"

// func prefetchNode(p unsafe.Pointer)
TEXT ·prefetchNode(SB), NOSPLIT, $0-8
	MOVD p+0(FP), R0
	PRFM (R0), PLDL1KEEP
	PRFM 64(R0), PLDL1KEEP
	PRFM 128(R0), PLDL1KEEP
	PRFM 192(R0), PLDL1KEEP
	PRFM 256(R0), PLDL1KEEP
	RET

// func prefetchLine(p unsafe.Pointer)
TEXT ·prefetchLine(SB), NOSPLIT, $0-8
	MOVD p+0(FP), R0
	PRFM (R0), PLDL1KEEP
	RET
