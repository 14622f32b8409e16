package chaos

import (
	"reflect"
	"testing"

	"presto/internal/rt"
)

// TestSchedDifferential is the timing-wheel property test: for a band of
// derived workloads, running the same program under the wheel scheduler
// and under the binary-heap reference must produce identical fingerprints
// — same elapsed time, kernel stats (events, deliveries, resumes, queue
// high-water mark), counters, final memory AND identical quiescent
// protocol state (StateHash). The scheduler may change complexity, never
// dispatch order. Both kernel engines are covered, so the matrix is
// {wheel,heap} × {serial,parallel} per protocol per seed.
func TestSchedDifferential(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	protos := []rt.ProtocolKind{rt.ProtoStache, rt.ProtoPredictive}
	engines := []rt.EngineKind{rt.EngineSerial, rt.EngineParallel}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		s := Derive(seed, ScaleQuick)
		for _, proto := range protos {
			for _, engine := range engines {
				cfg := rt.Config{Protocol: proto, Engine: engine, MaxEvents: 2_000_000, Sched: rt.SchedWheel}
				wheel := Execute(s, cfg)
				cfg.Sched = rt.SchedHeap
				heap := Execute(s, cfg)
				if !reflect.DeepEqual(wheel, heap) {
					t.Fatalf("seed %d %s/%s: wheel vs heap diverge on %v\nwheel: %v\nheap:  %v",
						seed, proto, engine, wheel.diff(heap), wheel, heap)
				}
				if !wheel.Clean() {
					t.Fatalf("seed %d %s/%s: unclean run: %v", seed, proto, engine, wheel)
				}
			}
		}
	}
}

// TestSchedDefaultIsWheel pins the default: an empty Sched kind must
// behave exactly like an explicit rt.SchedWheel.
func TestSchedDefaultIsWheel(t *testing.T) {
	s := Derive(7, ScaleQuick)
	cfg := rt.Config{Protocol: rt.ProtoPredictive, MaxEvents: 2_000_000}
	def := Execute(s, cfg)
	cfg.Sched = rt.SchedWheel
	wheel := Execute(s, cfg)
	if !reflect.DeepEqual(def, wheel) {
		t.Fatalf("default scheduler diverges from wheel: %v", def.diff(wheel))
	}
}
