//go:build !race

package dpp

// RaceEnabled reports whether the binary was built with -race (see
// race_enabled.go).
const RaceEnabled = false
