//go:build race

package dpp

// RaceEnabled reports whether the binary was built with -race. The race
// detector makes a sync.Pool drop Puts at random, so under it a parallel
// launch may allocate the descriptor launchPool would have recycled;
// zero-allocation tests of code that launches skip then.
const RaceEnabled = true
