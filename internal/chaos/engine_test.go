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
