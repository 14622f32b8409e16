package chaos

import (
	"strings"
	"testing"

	"presto/internal/rt"
)

// TestEngineWorkersBand is the multi-core engine's fingerprint band:
// 200 seeds, each run serially and then under the parallel engine with
// {1, 4} workers (clamped to the derived lane count). Every run must
// produce a fingerprint byte-identical to the serial reference. Roughly
// a third of the derived shapes carry a cluster:<g>x2 interconnect,
// exercising lane coarsening and the widened cross-group windows.
func TestEngineWorkersBand(t *testing.T) {
	protos := []rt.ProtocolKind{rt.ProtoStache, rt.ProtoPredictive}
	clustered := 0
	for seed := int64(0); seed < 200; seed++ {
		s := Derive(seed, ScaleQuick)
		if strings.HasPrefix(s.Net, "cluster:") {
			clustered++
		}
		cfg := rt.Config{Protocol: protos[seed%2], MaxEvents: 5_000_000}
		serial := Execute(s, cfg)
		if serial.Err != "" {
			t.Fatalf("seed %d (%s): serial run errored: %s", seed, s, serial.Err)
		}
		cfg.Engine = rt.EngineParallel
		for _, cfg.Workers = range []int{1, 4} {
			if d := serial.diff(Execute(s, cfg)); len(d) > 0 {
				t.Fatalf("seed %d (%s) workers=%d diverged from serial: %v", seed, s, cfg.Workers, d)
			}
		}
	}
	if clustered == 0 {
		t.Fatal("band derived no clustered interconnects; the pair matrix went unexercised")
	}
}

// TestStealReverseRunMutationCaught injects the engine defect — window
// runs executed tail-first, the ordering property work stealing must
// preserve — and requires the differential oracle to catch and shrink
// it. The serial reference stays honest; only parallel runs are mutated.
func TestStealReverseRunMutationCaught(t *testing.T) {
	rep := Fuzz(Options{Seeds: 60, Mutation: rt.MutationStealReverseRun})
	if rep.Ok() {
		t.Fatalf("mutation %s not caught over %d seeds", rt.MutationStealReverseRun, rep.SeedsRun)
	}
	f := rep.Failures[0]
	if !f.MinResult.Failed() {
		t.Fatal("shrunk reproducer does not fail")
	}
	if !strings.Contains(f.Repro, "-mutate "+rt.MutationStealReverseRun) {
		t.Errorf("repro command incomplete: %s", f.Repro)
	}
	// The printed reproducer must actually reproduce.
	o := Options{Mutation: rt.MutationStealReverseRun, Caps: f.Min}
	if r := RunSeed(f.Seed, o); !r.Failed() {
		t.Errorf("repro seed %d with caps %+v does not fail", f.Seed, f.Min)
	}
}
