package comm

import (
	"fmt"
	"math"
)

// The transport carries []float32 payloads. Byte blobs (control
// messages, error strings) travel packed four bytes per word through the
// float bit pattern: safe because comm copies payloads verbatim and never
// does arithmetic on them, so NaN-patterned words survive intact.

// PackBytes prepends the byte length and packs b little-endian, four
// bytes per float32 word.
func PackBytes(b []byte) []float32 {
	out := make([]float32, 1+(len(b)+3)/4)
	out[0] = math.Float32frombits(uint32(len(b)))
	for i := 0; i < len(b); i += 4 {
		var w uint32
		for j := 0; j < 4 && i+j < len(b); j++ {
			w |= uint32(b[i+j]) << (8 * j)
		}
		out[1+i/4] = math.Float32frombits(w)
	}
	return out
}

// UnpackBytes reverses PackBytes, returning the blob and the number of
// words consumed so callers can carry trailing payloads (e.g. raw pixel
// data) in the same message.
func UnpackBytes(data []float32) ([]byte, int, error) {
	if len(data) == 0 {
		return nil, 0, fmt.Errorf("comm: empty packed message")
	}
	// 64-bit arithmetic: a length near 1<<31 must not wrap where int
	// is 32 bits.
	n := uint64(math.Float32bits(data[0]))
	words := 1 + (n+3)/4
	if words > uint64(len(data)) {
		return nil, 0, fmt.Errorf("comm: packed length %d exceeds message (%d words)", n, len(data))
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(math.Float32bits(data[1+i/4]) >> (8 * (i % 4)))
	}
	return b, int(words), nil
}
