//go:build race

package check

// raceEnabled reports a -race build, which runs the explorer's replays
// several times slower.
const raceEnabled = true
