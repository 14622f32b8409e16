package kernelbench

import (
	"flag"
	"math"
	"runtime/debug"
	"strconv"
	"testing"
)

// amortized names the guarded cases whose steady state allocates, though
// less than once per op: agg_flush64 boxes each aggregate and each
// redistributed part, a few messages per 64 coalesced entries.
var amortized = map[string]bool{"agg_flush64": true}

// TestZeroAllocCases is the allocation gate on the guarded hot paths:
// past its warm-up (a timing-wheel lap, mailbox growth) a ZeroAlloc case
// allocates nothing per op, so 2n ops allocate what n ops do. n is the
// op count that fills about 10 ms, sized per case by a calibrating run.
// Each count is the least of three runs: whether a Proc's goroutine is
// new or recycled varies from run to run, and only new ones allocate.
func TestZeroAllocCases(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	bt := flag.Lookup("test.benchtime")
	defer bt.Value.Set(bt.Value.String())
	// A collection empties the runtime's pools, whose refills would count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func(c Case, benchtime string) testing.BenchmarkResult {
		if err := bt.Value.Set(benchtime); err != nil {
			t.Fatal(err)
		}
		r := testing.Benchmark(c.Bench)
		if r.N == 0 {
			t.Fatalf("%s failed", c.Name)
		}
		return r
	}
	allocs := func(c Case, n int) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			least = min(least, run(c, strconv.Itoa(n)+"x").MemAllocs)
		}
		return least
	}
	for _, c := range Cases() {
		if !c.ZeroAlloc {
			continue
		}
		n := run(c, "10ms").N
		a1, a2 := allocs(c, n), allocs(c, 2*n)
		perOp := (float64(a2) - float64(a1)) / float64(n)
		switch {
		case amortized[c.Name] && perOp >= 1:
			t.Errorf("%s: %.2f allocs/op in steady state, want < 1", c.Name, perOp)
		case !amortized[c.Name] && a2 != a1:
			t.Errorf("%s: %d allocs over %d ops but %d over %d, want no growth", c.Name, a1, n, a2, 2*n)
		}
	}
}
