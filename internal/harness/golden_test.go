package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"presto/internal/rt"
)

// -update regenerates the golden CSVs from the current implementation:
//
//	go test ./internal/harness -run TestFigureCSVGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden CSV files")

// TestFigureCSVGolden locks the figure 5–7 harness output against
// committed golden files: the quick-scale CSV rows — execution times,
// fault counts, message counts — must reproduce bit-exactly under every
// {scheduler} × {engine} combination. Any intentional change to the
// protocols, cost model or workloads shows up as a reviewable golden diff
// (regenerate with -update).
func TestFigureCSVGolden(t *testing.T) {
	for _, id := range []string{"figure5", "figure6", "figure7"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			path := filepath.Join("testdata", "golden", id+".csv")
			for _, o := range []Options{
				{Scale: Quick, Machine: rt.Config{Sched: rt.SchedWheel}},
				{Scale: Quick, Machine: rt.Config{Sched: rt.SchedHeap}},
				{Scale: Quick, Machine: rt.Config{Sched: rt.SchedWheel, Engine: rt.EngineParallel, Workers: 4}},
				{Scale: Quick, Machine: rt.Config{Sched: rt.SchedHeap, Engine: rt.EngineParallel, Workers: 4}},
			} {
				res, err := RunExperiment(e, o)
				if err != nil {
					t.Fatalf("%s (%s/%s): %v", id, o.Machine.Engine, o.Machine.Sched, err)
				}
				var buf bytes.Buffer
				res.CSV(&buf)
				if *updateGolden && o.Machine.Engine != rt.EngineParallel && o.Machine.Sched == rt.SchedWheel {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (regenerate with -update): %v", err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("%s engine %q sched %q diverges from %s:\n--- got ---\n%s--- want ---\n%s",
						id, res.Engine, o.Machine.Sched, path, buf.Bytes(), want)
				}
			}
		})
	}
}
