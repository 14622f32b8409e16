//go:build !race

package kernelbench

const raceEnabled = false
