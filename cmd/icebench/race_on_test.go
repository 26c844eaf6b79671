//go:build race

package main

// raceEnabled reports a -race build, whose instrumentation slows each
// layer by a different factor, so timing-derived shares do not close.
const raceEnabled = true
