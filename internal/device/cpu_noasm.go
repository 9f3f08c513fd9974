//go:build !amd64

package device

// hasAVX2 is false off amd64: no kernel there is written for it.
const hasAVX2 = false
