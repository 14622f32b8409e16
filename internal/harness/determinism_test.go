package harness

import (
	"bytes"
	"testing"

	"presto/internal/rt"
)

// TestFigureCSVEngineIdentity is the harness-level determinism check: for
// each of the paper's execution-time figures, the CSV rows produced under
// the parallel engine must be byte-identical to the serial engine's.
func TestFigureCSVEngineIdentity(t *testing.T) {
	for _, id := range []string{"figure5", "figure6", "figure7"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			csvFor := func(o Options) []byte {
				res, err := RunExperiment(e, o)
				if err != nil {
					t.Fatalf("%s (%s): %v", id, o.Machine.Engine, err)
				}
				var buf bytes.Buffer
				res.CSV(&buf)
				return buf.Bytes()
			}
			serial := csvFor(Options{Scale: Quick})
			parallel := csvFor(Options{Scale: Quick, Machine: rt.Config{Engine: rt.EngineParallel, Workers: 4}})
			if !bytes.Equal(serial, parallel) {
				t.Fatalf("CSV rows differ between engines:\nserial:\n%s\nparallel:\n%s", serial, parallel)
			}
		})
	}
}
