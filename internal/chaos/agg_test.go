// Aggregation differential band: node-leader aggregation must be
// timing-visible but memory-invariant on every derived seed, the
// parallel engine must stay byte-identical with aggregation on.
package chaos

import (
	"strings"
	"testing"

	"presto/internal/network"
	"presto/internal/rt"
)

const aggMaxEvents = 20_000_000

// TestAggregationBand sweeps seeds through aggregated and unaggregated
// runs. Clustered seeds must keep final memory identical (timing may
// move); flat seeds must be bit-for-bit unchanged (the layer is a
// no-op); and serial/parallel fingerprints must match with aggregation
// on.
func TestAggregationBand(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	clustered, aggregated := 0, 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		s := Derive(seed, ScaleQuick)
		off := Execute(s, rt.Config{Protocol: rt.ProtoPredictive, MaxEvents: aggMaxEvents})
		on := Execute(s, rt.Config{Protocol: rt.ProtoPredictive, MaxEvents: aggMaxEvents, Aggregate: true})
		if !off.Clean() || !on.Clean() {
			t.Fatalf("seed %d (%s): unclean runs:\noff: %v\non:  %v", seed, s, off, on)
		}
		if off.MemHash != on.MemHash {
			t.Fatalf("seed %d (%s): aggregation changed memory: %016x vs %016x",
				seed, s, off.MemHash, on.MemHash)
		}
		onPar := Execute(s, rt.Config{Protocol: rt.ProtoPredictive, Engine: rt.EngineParallel, MaxEvents: aggMaxEvents, Aggregate: true})
		if d := on.diff(onPar); len(d) != 0 {
			t.Fatalf("seed %d (%s): aggregated engines diverge: %v", seed, s, d)
		}
		if s.clustered() {
			clustered++
			if on.Counters.AggMsgs > 0 {
				aggregated++
			}
		} else if d := off.diff(on); len(d) != 0 {
			t.Fatalf("seed %d (%s): flat aggregation not a no-op: %v", seed, s, d)
		}
	}
	if clustered == 0 {
		t.Fatal("band derived no clustered seeds; aggregation untested")
	}
	// Without multi-part aggregates the band proves nothing about the
	// coalescing path — broadcast-phase seeds on clustered fabrics must
	// actually send leader aggregates.
	if aggregated == 0 {
		t.Fatalf("no clustered seed sent aggregates (%d clustered seeds)", clustered)
	}
	t.Logf("%d clustered seeds, %d with aggregate traffic", clustered, aggregated)
}

// TestSingleRunAggregates pins that one configured run honors
// rt.Config.Aggregate (the retired ExecuteRun built its machine without
// it): seed 80 derives a cluster:2x2 machine with broadcast phases, so
// leader aggregates must flow and every coalesced entry must arrive.
func TestSingleRunAggregates(t *testing.T) {
	s := Derive(80, ScaleQuick)
	if !s.clustered() {
		t.Fatalf("seed 80 no longer derives a clustered interconnect: %s", s)
	}
	fp := Execute(s, rt.Config{Protocol: rt.ProtoPredictive, MaxEvents: aggMaxEvents, Aggregate: true})
	if !fp.Clean() {
		t.Fatalf("unclean run: %v", fp)
	}
	if c := fp.Counters; c.AggEntriesOut == 0 || c.AggEntriesOut != c.AggEntriesIn {
		t.Fatalf("aggregation did not run or lost entries: out=%d in=%d", c.AggEntriesOut, c.AggEntriesIn)
	}
}

// TestHierarchicalTopologySeeds pins the sentinel materialization and
// executes a handcrafted fat-tree spec: 16 nodes is the one quick-range
// count where fattree:2 survives, and the engines must agree on it.
func TestHierarchicalTopologySeeds(t *testing.T) {
	meshes, fattrees := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		s := Derive(seed, ScaleLong)
		if strings.HasPrefix(s.Net, "mesh:") {
			meshes++
		}
		if strings.HasPrefix(s.Net, "fattree:") {
			fattrees++
			if s.Nodes != 16 {
				t.Fatalf("seed %d: fattree spec with %d nodes", seed, s.Nodes)
			}
		}
	}
	if meshes == 0 {
		t.Fatal("no mesh seeds derived in 300 long-scale seeds")
	}
	t.Logf("300 long-scale seeds: %d mesh, %d fattree", meshes, fattrees)

	s := Derive(42, ScaleQuick)
	s.Nodes = 16
	s.Net = "fattree:2"
	s.Elems = 4 * s.Nodes
	serial := Execute(s, rt.Config{Protocol: rt.ProtoPredictive, MaxEvents: aggMaxEvents, Aggregate: true})
	par := Execute(s, rt.Config{Protocol: rt.ProtoPredictive, Engine: rt.EngineParallel, MaxEvents: aggMaxEvents, Aggregate: true})
	if !serial.Clean() {
		t.Fatalf("fat-tree run unclean: %v", serial)
	}
	if d := serial.diff(par); len(d) != 0 {
		t.Fatalf("fat-tree engines diverge: %v", d)
	}
}

// clustered reports whether the spec's interconnect has node groups —
// the shapes node-leader aggregation coalesces across.
func (s Spec) clustered() bool {
	p, err := network.Preset(s.Net)
	return err == nil && p.Clustered()
}
