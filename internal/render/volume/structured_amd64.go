package volume

// hasPackets reports whether marchPacket can run: the CPU has AVX2 and
// the OS saves its YMM state.
var hasPackets = cpuHasAVX2()

func cpuHasAVX2() bool

// marchPacket marches the packet's four rays through the uniform grid
// in lockstep, each lane computing exactly castRay's uniform-grid,
// unit-exponent, table-path expressions in castRay's order. It returns
// false, with the packet's outputs undefined, as soon as a live sample
// normalizes to at or below the table's first stop, or to NaN: those
// samples take TransferFunction.Sample, which the kernel does not.
//
//go:noescape
func marchPacket(pp *packetParams, pk *rayPacket) bool
