//go:build !amd64

package volume

// hasPackets is false off amd64: every frame runs castRay.
const hasPackets = false

func marchPacket(*packetParams, *rayPacket) bool { panic("volume: no packet kernel on this GOARCH") }
