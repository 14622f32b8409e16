package check

import (
	"strings"
	"testing"
)

// explore runs x and fails the test on any violation.
func explore(t *testing.T, x Explore) Exploration {
	t.Helper()
	res := x.Run()
	if res.Violation != "" {
		t.Fatalf("%+v: %s\nafter %d choices:\n  %s", x, res.Violation, len(res.Trace), strings.Join(res.Trace, "\n  "))
	}
	t.Logf("%+v: %d states (%d quiescent), %d replays", x, res.States, res.Quiescent, res.Runs)
	return res
}

// TestExploreStacheTwoCaches explores the shipping Stache handlers to
// exhaustion on a home and two caches, each reading twice through its
// cursor before each of two writes. The counts are pinned: a change to
// the handlers, the kernel seam or the state key that moves them must be
// looked at, since a smaller space may mean unexplored orders.
func TestExploreStacheTwoCaches(t *testing.T) {
	res := explore(t, Explore{Caches: 2, Writes: 2})
	if res.States != 1234 || res.Quiescent != 116 {
		t.Errorf("explored %d states (%d quiescent), want 1234 (116)", res.States, res.Quiescent)
	}
}

// TestExploreStacheThreeCaches is the three-cache space, one write each
// (about four seconds; CI runs it without the race detector).
func TestExploreStacheThreeCaches(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("large state space")
	}
	res := explore(t, Explore{Caches: 3, Writes: 1})
	if res.States != 5562 || res.Quiescent != 98 {
		t.Errorf("explored %d states (%d quiescent), want 5562 (98)", res.States, res.Quiescent)
	}
}
