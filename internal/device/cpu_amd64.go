package device

// hasAVX2 is read once at start-up: the CPU has AVX2 and the OS saves
// its YMM state.
var hasAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool
