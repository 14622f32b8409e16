package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// spanMetric names the per-layer metric a span's self time is reported as.
type spanMetric struct {
	span   string // span name, or its prefix when it ends in ':'
	metric string
	unit   string
	scale  float64 // seconds → unit
}

var spanMetrics = []spanMetric{
	{"barnes.Run", "apps.run_s", "s", 1},
	{"adaptive.Run", "apps.run_s", "s", 1},
	{"check.Machine", "check.machine_s", "s", 1},
	{"rt.HashMemory", "rt.hash_memory_s", "s", 1},
	{"lang.Parse", "lang.parse_us", "us", 1e6},
	{"compiler.Analyze", "compiler.analyze_us", "us", 1e6},
	{"interp.Run", "interp.run_s", "s", 1},
	{"harness.RunExperiment:", "harness.run_s", "s", 1},
	{"Result.JSON", "harness.encode_json_ms", "ms", 1e3},
	{"Result.CSV", "harness.encode_csv_ms", "ms", 1e3},
	{"adaptive.Run recorded", "predict.record_run_s", "s", 1},
	{"predict.Calibrate", "predict.calibrate_s", "s", 1},
	{"POST /v1/batch cold", "serve.cold_batch_s", "s", 1},
}

// spanMetricOf finds the metric a span reports to, nil for none.
func spanMetricOf(name string) *spanMetric {
	for i, sm := range spanMetrics {
		if name == sm.span || (strings.HasSuffix(sm.span, ":") && strings.HasPrefix(name, sm.span)) {
			return &spanMetrics[i]
		}
	}
	return nil
}

// layerUnits are the units of the per-layer metrics a child measures itself.
var layerUnits = map[string]string{
	"sim.windows": "count", "sim.solo_window_share": "ratio", "sim.events_per_window": "count",
	"sim.steals": "count", "sim.window_open_s": "s", "sim.window_exec_s": "s", "sim.window_commit_s": "s",
	"serve.cold_job_p50_ms": "ms", "serve.cold_job_p99_ms": "ms", "serve.cache_hit_ratio": "ratio",
	"serve.coalesced": "count", "serve.evictions": "count", "serve.response_bytes": "bytes",
	"serve.warm_replay_p50_ms": "ms", "serve.warm_replay_p95_ms": "ms", "serve.warm_mb_per_s": "MB/s",
	"predict.sweep_p50_ms": "ms", "predict.sweep_p95_ms": "ms", "predict.sweep_configs_per_s": "1/s",
}

// countUnit is the unit of an exact count, by name.
func countUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, ".bytes"):
		return "bytes"
	case strings.HasSuffix(name, "_coverage"), strings.HasSuffix(name, "_accuracy"):
		return "ratio"
	}
	return "count"
}

// medianOf reduces one field over the plain passes.
func medianOf(passes []*passReport, field func(*passReport) float64) float64 {
	var v []float64
	for _, p := range passes {
		if p.Variant == plainPass.name {
			v = append(v, field(p))
		}
	}
	return median(v)
}

func allOps(passes []*passReport, variant string) []float64 {
	var v []float64
	for _, p := range passes {
		if p.Variant == variant {
			v = append(v, p.Ops...)
		}
	}
	return v
}

// traceMetrics fills in every per-layer metric of a traced run: span self
// times and the CPU partition from the traced passes, exact counts, process
// statistics and the host cost per simulated event from the plain ones, what
// the passes measured themselves (service counters, operation quantiles, the
// parallel engine's flight record), and the workload's own layer drivers. A
// metric whose layer the workload never enters reads 0.
func traceMetrics(res *runResult, w *workload, o options, passes []*passReport, outDir string) error {
	for _, m := range perLayerMetrics() {
		res.set(m.Name, 0, m.Unit)
	}
	// set fills in a declared metric; its unit is the declaration's.
	set := func(name string, v float64) { res.set(name, v, res.metrics[name].Unit) }
	plainOps := allOps(passes, plainPass.name)
	wall := median(plainOps)
	res.ops = len(plainOps)

	// Spans: written out whole, reported as self time per metric, the median
	// over the traced passes that have the span.
	var spans []span
	var profiles []string
	selfByMetric := map[string][]float64{}
	for _, p := range passes {
		if p.Variant != tracedPass.name {
			continue
		}
		spans = append(spans, p.Spans...)
		profiles = append(profiles, profilePath(outDir, w.name, p.Index))
		inPass := map[string]float64{}
		for name, seconds := range selfSeconds(p.Spans) {
			if sm := spanMetricOf(name); sm != nil {
				inPass[sm.metric] += seconds * sm.scale
			}
		}
		for metric, v := range inPass {
			selfByMetric[metric] = append(selfByMetric[metric], v)
		}
	}
	for metric, v := range selfByMetric {
		set(metric, median(v))
	}
	doc, _ := json.Marshal(map[string]any{"workload": w.name, "seed": o.seed, "smoke": o.smoke, "spans": spans})
	if err := os.WriteFile(filepath.Join(outDir, w.name+".trace.json"), doc, 0o644); err != nil {
		return err
	}

	shares, samples, err := profileShares(profiles)
	if err != nil {
		return err
	}
	for b, s := range shares {
		set(b+".cpu_share", s)
	}
	set("bench.cpu_samples", float64(samples))

	counts := passes[0].Counts
	for name, v := range counts {
		set(name, v)
	}
	// Host cost per simulated unit, where the timed operation is what was
	// counted (not the warm replays or the sweeps, which simulate nothing).
	// The base is the plain passes' median wall.
	if len(passes[0].Ops) == 1 && wall > 0 {
		set("rt.sim_ns_per_host_ns", counts["rt.sim_elapsed_ns"]/(wall*1e9))
		if events := counts["sim.events"]; events > 0 {
			set("sim.events_per_s", events/wall)
			set("sim.host_ns_per_event", wall*1e9/events)
		}
		if faults := counts["tempest.read_faults"] + counts["tempest.write_faults"]; faults > 0 {
			set("tempest.host_us_per_fault", wall*1e6/faults)
		}
	}

	set("go.cpu_s", medianOf(passes, func(p *passReport) float64 { return p.CPUS / float64(max(len(p.Ops), 1)) }))
	set("go.alloc_mb", medianOf(passes, func(p *passReport) float64 { return p.AllocMB }))
	set("go.gc_cycles", medianOf(passes, func(p *passReport) float64 { return p.GCCycles }))
	set("go.gc_pause_ms", medianOf(passes, func(p *passReport) float64 { return p.GCPauseMS }))
	set("go.heap_inuse_peak_mb", medianOf(passes, func(p *passReport) float64 { return p.HeapInuseMB }))

	// What the passes measured themselves: the median over the unprofiled
	// passes that have the number (the flight record exists in flight
	// passes only).
	byLayer := map[string][]float64{}
	for _, p := range passes {
		if p.Variant != tracedPass.name {
			for name, v := range p.Layer {
				byLayer[name] = append(byLayer[name], v)
			}
		}
	}
	for name, v := range byLayer {
		set(name, median(v))
	}
	if pw := median(allOps(passes, parallelPass.name)); pw > 0 {
		set("sim.parallel_wall_s", pw)
		set("sim.parallel_speedup", wall/pw)
	}

	if tw := median(allOps(passes, tracedPass.name)); wall > 0 {
		set("bench.trace_overhead_pct", 100*(tw/wall-1))
	}
	set("bench.passes", float64(len(passes)))

	for _, d := range w.drivers {
		v, err := d.run(o.smoke)
		if err != nil {
			return fmt.Errorf("driver %s: %w", d.metric, err)
		}
		set(d.metric, v)
	}
	return nil
}

// higherIsBetter lists the per-layer metrics where more is better; for the
// rest less is (for a share or a count of simulated work, "less" only says
// which way a host-side saving moves it).
var higherIsBetter = map[string]bool{
	"core.presend_coverage": true, "core.presend_accuracy": true, "sim.events_per_s": true,
	"rt.sim_ns_per_host_ns": true, "sim.parallel_speedup": true, "sim.events_per_window": true,
	"serve.cache_hit_ratio": true, "serve.warm_mb_per_s": true, "predict.sweep_configs_per_s": true,
	"bench.passes": true, "bench.cpu_samples": true,
}

// perLayerMetrics declares every per-layer metric a traced run prints, in
// the order BENCHMARK.json lists them. It is the single list: traceMetrics
// starts from it, and the tests hold BENCHMARK.json to it.
func perLayerMetrics() []benchMetric {
	var out []benchMetric
	seen := map[string]bool{}
	add := func(name, unit string) {
		if seen[name] {
			return
		}
		seen[name] = true
		better := "lower"
		if higherIsBetter[name] {
			better = "higher"
		}
		out = append(out, benchMetric{Name: name, Unit: unit, Better: better})
	}
	for _, b := range cpuBuckets {
		add(b+".cpu_share", "ratio")
	}
	for _, name := range sortedKeys((&tally{}).counts()) {
		add(name, countUnit(name))
	}
	add("sim.events_per_s", "1/s")
	add("sim.host_ns_per_event", "ns")
	add("rt.sim_ns_per_host_ns", "ratio")
	add("tempest.host_us_per_fault", "us")
	add("go.cpu_s", "s")
	add("go.alloc_mb", "MB")
	add("go.gc_cycles", "count")
	add("go.gc_pause_ms", "ms")
	add("go.heap_inuse_peak_mb", "MB")
	for _, name := range sortedKeys(layerUnits) {
		add(name, layerUnits[name])
	}
	add("sim.parallel_wall_s", "s")
	add("sim.parallel_speedup", "ratio")
	for _, sm := range spanMetrics {
		add(sm.metric, sm.unit)
	}
	for _, w := range workloads {
		for _, d := range w.drivers {
			add(d.metric, d.unit)
		}
	}
	add("bench.trace_overhead_pct", "%")
	add("bench.passes", "count")
	add("bench.cpu_samples", "count")
	return out
}

// benchmarkDoc is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkDoc struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []benchMetric           `json:"end_to_end"`
	PerLayer  []benchMetric           `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkDoc(root string) (*benchmarkDoc, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &doc, nil
}
