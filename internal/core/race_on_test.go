//go:build race

package core

// raceEnabled reports whether the race detector is active; tests whose
// inputs take minutes to build under it skip (see race_off_test.go).
const raceEnabled = true
