//go:build race

package interp

// raceEnabled reports a -race build, whose sync.Pool drops entries at
// random, so allocation counts vary from run to run.
const raceEnabled = true
