package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The passes of a run are this binary re-executed, and under go test this
// binary is the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2], os.Stdout))
	}
	os.Exit(m.Run())
}

// smokeRun runs the benchmark in-process at smoke size and decodes the last
// line it prints.
func smokeRun(t *testing.T, args ...string) (int, resultLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-root", "..", "-smoke"}, args...), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line of output is not the result object: %v\nstdout: %s\nstderr: %s", err, stdout.String(), stderr.String())
	}
	return code, out, stdout.String()
}

// Every workload runs end to end, untraced and traced, checks its outputs
// and prints exactly the metrics BENCHMARK.json declares, each with the
// declared unit.
func TestSmokeEveryWorkload(t *testing.T) {
	doc, err := loadBenchmarkDoc("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, mode := range []struct {
			trace    string
			declared []benchMetric
		}{{"0", doc.EndToEnd}, {"1", doc.PerLayer}} {
			code, out, text := smokeRun(t, "-workload", w.name, "-trace", mode.trace)
			if code != 0 || !out.Correct || out.Failed != 0 || out.Attempted < 1 || !out.Smoke {
				t.Errorf("%s trace %s: exit %d, %+v\n%s", w.name, mode.trace, code, out, text)
				continue
			}
			if len(out.Metrics) != len(mode.declared) {
				t.Errorf("%s trace %s: %d metrics printed, %d declared", w.name, mode.trace, len(out.Metrics), len(mode.declared))
			}
			for _, d := range mode.declared {
				got, ok := out.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Errorf("%s trace %s: metric %s printed as %+v (present %v), declared unit %q", w.name, mode.trace, d.Name, got, ok, d.Unit)
				}
				if mode.trace == "0" && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.Name, got.Value)
				}
			}
			if mode.trace == "1" {
				if _, err := os.Stat(filepath.Join("..", "bench", "out", w.name+".trace.json")); err != nil {
					t.Errorf("%s: span file: %v", w.name, err)
				}
				sum := 0.0
				for _, b := range cpuBuckets {
					sum += out.Metrics[b+".cpu_share"].Value
				}
				// A smoke pass can be too short for a single 100 Hz sample.
				if out.Metrics["bench.cpu_samples"].Value > 0 && math.Abs(sum-1) > 0.01 {
					t.Errorf("%s: cpu shares sum to %v", w.name, sum)
				}
			}
		}
	}
}

// BENCHMARK.json names what the code runs and prints: the same workloads,
// the same per-layer metrics, and names of the allowed shape.
func TestBenchmarkDocMatchesCode(t *testing.T) {
	doc, err := loadBenchmarkDoc("..")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloadNames())
	}
	if want := perLayerMetrics(); !reflect.DeepEqual(doc.PerLayer, want) {
		js, _ := json.MarshalIndent(want, "  ", "  ")
		t.Errorf("BENCHMARK.json per_layer differs from perLayerMetrics(); it should read:\n%s", js)
	}
	var e2e []string
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v", m.Name, m.Bound)
		}
	}
	if want := []string{"setup_s", "wall_s", "peak_rss_mb"}; !reflect.DeepEqual(e2e, want) {
		t.Errorf("end-to-end metrics %v, want %v", e2e, want)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]benchMetric{}, doc.EndToEnd...), doc.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		seen[m.Name] = true
	}
	for _, n := range names {
		if !name.MatchString(n) {
			t.Errorf("workload name %q", n)
		}
	}
	if len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(doc.PerLayer))
	}
}

// A canned `go tool pprof -traces -sample_index=samples` output partitions
// into shares that sum to 1, each stack landing in the layer of its
// leaf-most presto frame.
func TestCPUSharesFixture(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "traces.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shares, samples, err := cpuShares(f)
	if err != nil {
		t.Fatal(err)
	}
	if samples != 20 {
		t.Errorf("samples = %d, want 20", samples)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %v", sum)
	}
	want := map[string]float64{
		"memory.access": 5.0 / 20, "memory.block": 1.0 / 20, "tempest.access": 2.0 / 20,
		"tempest.proto": 1.0 / 20, "sim": 3.0 / 20, "apps": 2.0 / 20, "go.gc": 3.0 / 20,
		"go.sched": 1.0 / 20, "bench": 1.0 / 20, "blockstate": 1.0 / 20,
	}
	for _, b := range cpuBuckets {
		if math.Abs(shares[b]-want[b]) > 1e-9 {
			t.Errorf("%s share = %v, want %v", b, shares[b], want[b])
		}
	}
}

// Self time is a span's duration minus its children's.
func TestSelfSeconds(t *testing.T) {
	spans := []span{
		{Name: "op", StartNS: 0, EndNS: 10e9, Parent: -1},
		{Name: "lang.Parse", StartNS: 1e9, EndNS: 2e9, Parent: 0},
		{Name: "interp.Run", StartNS: 2e9, EndNS: 9e9, Parent: 0},
		{Name: "inner", StartNS: 3e9, EndNS: 4e9, Parent: 2},
	}
	want := map[string]float64{"op": 2, "lang.Parse": 1, "interp.Run": 6, "inner": 1}
	if got := selfSeconds(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfSeconds = %v, want %v", got, want)
	}
}

// A pinned program result that no longer matches fails every operation of
// the run and makes the benchmark exit non-zero; nothing else does.
func TestFlippedPinFails(t *testing.T) {
	exp, err := loadExpected("")
	if err != nil {
		t.Fatal(err)
	}
	if code, out, text := smokeRun(t, "-workload", "barnes32"); code != 0 || out.Failed != 0 {
		t.Fatalf("unflipped run: exit %d, failed %d\n%s", code, out.Failed, text)
	}
	exp.Smoke["barnes32"]["cells"] += "0"
	flipped, _ := json.Marshal(exp)
	path := filepath.Join(t.TempDir(), "expected.json")
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, text := smokeRun(t, "-workload", "barnes32", "-expected", path)
	if code == 0 || out.Correct || out.Failed != out.Attempted || out.Failed == 0 {
		t.Errorf("flipped pin: exit %d, correct %v, failed %d of %d", code, out.Correct, out.Failed, out.Attempted)
	}
	if n := strings.Count(text, "FAIL "); n != 1 || !strings.Contains(text, "result cells") {
		t.Errorf("flipped pin: want exactly one failure, naming the pin:\n%s", text)
	}
	// The pins bind the default seed only.
	if code, out, _ := smokeRun(t, "-workload", "barnes32", "-expected", path, "-seed", "7"); code != 0 || out.Failed != 0 {
		t.Errorf("seed 7 with a flipped default-seed pin: exit %d, failed %d", code, out.Failed)
	}
}
