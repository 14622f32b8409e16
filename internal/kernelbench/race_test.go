//go:build race

package kernelbench

// raceEnabled reports a -race build, whose sync.Pool drops entries at
// random and whose instrumentation slows every case past its sizing, so
// allocation counts vary from run to run.
const raceEnabled = true
