package check

import (
	"strings"
	"testing"

	"presto/internal/rt"
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

// TestExploreConvictsSkippedDeferral: without the cache-side deferrals an
// unordered network lets a recall overtake the writable grant it chases,
// and the dropped recall leaves the home waiting for a write-back that
// never comes. Breadth-first search finds the shortest such order.
func TestExploreConvictsSkippedDeferral(t *testing.T) {
	res := Explore{Caches: 2, Writes: 2, Mutation: rt.MutationStacheSkipDeferral}.Run()
	want := []string{
		"compute1 -> proto0 GetRO(0x0 req=1)",
		"proto0 -> proto1 DataRO(0x0 p=false)",
		"proto1 -> compute1 tempest.MsgWake",
		"wake compute1",
		"wake compute1",
		"compute1 -> proto0 GetRW(0x0 req=1)",
		"compute2 -> proto0 GetRO(0x0 req=2)",
		"proto0 -> proto1 RecallRO(0x0)",
		"proto0 -> proto1 DataRW(0x0 p=false)",
		"proto1 -> compute1 tempest.MsgWake",
	}
	if !strings.Contains(res.Violation, "transient state AwaitWB at quiescence") ||
		strings.Join(res.Trace, "\n") != strings.Join(want, "\n") {
		t.Fatalf("violation %q after:\n  %s\nwant AwaitWB stuck after:\n  %s",
			res.Violation, strings.Join(res.Trace, "\n  "), strings.Join(want, "\n  "))
	}
}
