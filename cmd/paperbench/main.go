// Command paperbench regenerates the paper's tables and figures.
//
// Usage:
//
//	paperbench [-experiment all|table1|figure4|figure5|figure6|figure7|scale|sweep|ablate-*]
//	           [-list] [-scale quick|paper] [-net <preset>] [-aggregate]
//	           [-csv out.csv] [-json out.json]
//	           [-engine serial|parallel] [-workers N]
//	           [-profile] [-predict]
//	           [-kernel-bench out.json] [-kernel-filter re]
//	           [-kernel-diff base.json] [-kernel-diff-out diff.json]
//	           [-kernel-speedup]
//	           [-cpuprofile f] [-memprofile f]
//
// -json (default BENCH_results.json; "" disables) writes every
// experiment's rows — including the per-phase metrics — as one
// machine-readable JSON document.
//
// -scale paper runs the Table 1 workload sizes on 32 simulated nodes
// (minutes of wall clock); -scale quick (default) runs CI-sized versions
// of the same experiments.
//
// -net accepts every topology preset (network.Grammars lists them),
// including the hierarchical ones: cluster:<groups>x<cores>,
// cluster:<groups>x<subgroups>x<cores>, mesh:<w>x<h> and
// fattree:<levels>. -aggregate enables node-leader message aggregation
// on every machine the experiments build — meaningful with a
// hierarchical -net preset, a structural no-op on flat machines.
//
// -profile turns on the causal critical-path profiler for every machine
// the experiments build. Figure rows then carry an exact time-attribution
// profile (validated: buckets sum to total simulated time), rendered as
// an extra table and embedded in the -json output. Simulated results are
// identical with or without it.
//
// -predict answers the figure 5-7 and sweep experiments from the
// analytical predictor (internal/predict): one recorded calibration
// simulation per program/protocol, every row extrapolated — no per-row
// simulation. The run then appends the predict-error experiment, whose
// predicted-vs-simulated error table prints and lands in the -json
// artifact alongside the predicted rows.
//
// -engine parallel runs the simulation kernel's conservative parallel
// engine (results are byte-identical to serial; only wall clock changes).
// -workers caps its worker goroutines (default GOMAXPROCS). A bad
// -engine, -net or -workers value exits with status 2 and a one-line
// error.
//
// -kernel-bench runs the kernel hot-path micro-benchmarks
// (internal/kernelbench) plus a serial-vs-parallel wall-clock comparison
// of figure5 and a >=1000-configuration analytical-predictor sweep timed
// against per-configuration simulation, writes them as JSON, and exits.
// The run fails (non-zero exit) when a zero-alloc-guarded case
// allocates, a cross-case ratio guard is exceeded (e.g. mesh8_parallel4
// > 1.1x mesh8_serial), or the predictor sweep is less than 100x faster
// than simulating.
// -kernel-filter restricts the run to cases matching the regexp and
// skips the figure5 wall-clock comparison — the CI regression diff uses
// it to keep the job fast. -kernel-diff compares the fresh run against a
// committed BENCH_kernel.json and fails on a >25% ns/op regression in
// any guarded case; when the baseline was taken on a different host shape
// (NumCPU or GOMAXPROCS differ) the ns/op gating is skipped — wall-clock
// ratios across hosts are noise — while the zero-alloc guards still
// apply. -kernel-diff-out writes the comparison as a JSON artifact.
// -kernel-speedup additionally evaluates the multi-core speedup guards
// (parallel dense cases must beat their serial twins by >= 2x); CI runs
// it in the bench-multicore job at GOMAXPROCS=4.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"presto/internal/harness"
	"presto/internal/kernelbench"
	"presto/internal/predict"
	"presto/internal/prof"
	"presto/internal/rt"
)

func main() {
	expID := flag.String("experiment", "all", "experiment ID or 'all'")
	list := flag.Bool("list", false, "list experiment IDs with descriptions and exit")
	scaleStr := flag.String("scale", "quick", "workload scale: quick or paper")
	// -net, -aggregate, -engine, -workers, -profile: stamped onto every
	// machine the experiments build (rows with their own preset keep it).
	machine := rt.BindFlags(flag.CommandLine, false)
	csvPath := flag.String("csv", "", "also write rows as CSV to this file")
	jsonPath := flag.String("json", "BENCH_results.json", "write machine-readable results to this file (\"\" disables)")
	predictFlag := flag.Bool("predict", false, "answer the figure and sweep experiments from the analytical predictor (one calibration per program/protocol, no per-row simulation) and append the predictor-vs-simulation error table (predict-error) to the run and the -json artifact")
	predictValidate := flag.String("predict-validate", "", "run the predictor validation gate — every figure 5-7 configuration plus a -predict-band chaos seed band at the 2x block-size extrapolation — write the error table CSV to this `file` and exit non-zero unless the mean absolute elapsed-time error is under 15%")
	predictBand := flag.Int("predict-band", 100, "chaos seeds in the -predict-validate band")
	predictWide := flag.String("predict-validate-wide", "", "with -predict-validate: also write the informational error table for the wider 4x/8x chaos extrapolations (reported, not gated) to this `file`")
	kernelBench := flag.String("kernel-bench", "", "run kernel micro-benchmarks, write JSON to this file and exit")
	kernelFilter := flag.String("kernel-filter", "", "run only kernel benchmark cases matching this `regexp` (skips the figure5 wall-clock comparison)")
	kernelDiff := flag.String("kernel-diff", "", "compare the kernel benchmark run against this baseline JSON; fail on >25% ns/op regression in guarded cases (ns/op gating is skipped when the baseline host shape differs)")
	kernelSpeedup := flag.Bool("kernel-speedup", false, "evaluate the multi-core speedup guards (kernelbench.SpeedupGuards); requires a multi-core host — CI runs this at GOMAXPROCS=4")
	kernelDiffOut := flag.String("kernel-diff-out", "", "write the -kernel-diff comparison as JSON to this file")
	kernelBase := flag.String("kernel-bench-baseline", "", "embed this `go test -bench` output as the baseline section")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return
	}
	mc, err := machine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(2)
	}

	stopProf := prof.Start(*cpuprofile, *memprofile)
	defer stopProf()

	// SIGINT/SIGTERM stop the run at the next experiment (or kernel-bench
	// case) boundary; the artifacts for the work already done are flushed
	// before exit so a partial run stays inspectable.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	opts := harness.Options{
		Scale:     harness.ParseScale(*scaleStr),
		Engine:    mc.Engine,
		Workers:   mc.Workers,
		Net:       mc.Net,
		Aggregate: mc.Aggregate,
		Profile:   mc.Profile,
		Predict:   *predictFlag,
	}

	if *predictValidate != "" {
		if err := runPredictValidate(opts, *predictValidate, *predictWide, *predictBand); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			stopProf()
			os.Exit(1)
		}
		return
	}

	if *kernelBench != "" {
		kb := kernelBenchRun{
			path:         *kernelBench,
			baselinePath: *kernelBase,
			filter:       *kernelFilter,
			diffPath:     *kernelDiff,
			diffOutPath:  *kernelDiffOut,
			speedup:      *kernelSpeedup,
			opts:         opts,
			ctx:          ctx,
		}
		if err := kb.run(); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			stopProf()
			if errors.Is(err, errInterrupted) {
				os.Exit(130)
			}
			os.Exit(1)
		}
		return
	}

	var exps []harness.Experiment
	if *expID == "all" {
		exps = harness.All()
	} else {
		e, ok := harness.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; available:\n", *expID)
			for _, e := range harness.All() {
				fmt.Fprintf(os.Stderr, "  %-16s %s\n", e.ID, e.Title)
			}
			os.Exit(2)
		}
		exps = []harness.Experiment{e}
	}
	if *predictFlag {
		// -predict is a validation mode as much as a fast path: always
		// finish with the predictor-vs-simulation error table so the run
		// (and BENCH_results.json) carries its own accuracy evidence.
		have := false
		for _, e := range exps {
			if e.ID == "predict-error" {
				have = true
			}
		}
		if !have {
			if e, ok := harness.ByID("predict-error"); ok {
				exps = append(exps, e)
			}
		}
	}

	var csv *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		csv = f
	}

	var results []*harness.Result
	interrupted := false
	for _, e := range exps {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		start := time.Now()
		res, err := harness.RunExperiment(e, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			stopProf()
			os.Exit(1)
		}
		fmt.Printf("paper claim: %s\n", e.Paper)
		res.Render(os.Stdout)
		if csv != nil {
			res.CSV(csv)
		}
		results = append(results, res)
		fmt.Printf("(%s finished in %v at %s scale)\n\n", e.ID, time.Since(start).Round(time.Millisecond), *scaleStr)
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := harness.WriteJSON(f, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "paperbench: interrupted after %d/%d experiments; partial artifacts flushed\n",
			len(results), len(exps))
		stopProf()
		os.Exit(130)
	}
}

// predictValidateMaxMAE is the CI gate on the analytical predictor: the
// mean absolute elapsed-time error over the figure 5-7 sweeps plus the
// 2x-extrapolation chaos band must stay under 15% (DESIGN.md §13).
const predictValidateMaxMAE = 15.0

// runPredictValidate executes the predict-validate CI job: build the
// gated error table (figures + shift-1 chaos band), write it as the
// uploaded artifact, optionally record the wider informational band, and
// fail the process when the gate is breached.
func runPredictValidate(opts harness.Options, path, widePath string, seeds int) error {
	table, err := harness.PredictValidation(opts, seeds)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	table.WriteCSV(f)
	if err := f.Close(); err != nil {
		return err
	}
	table.Render(os.Stdout)
	fmt.Printf("wrote %s\n", path)

	if widePath != "" {
		wide, err := predict.ChaosBandShifts(seeds, []int{2, 3})
		if err != nil {
			return err
		}
		wf, err := os.Create(widePath)
		if err != nil {
			return err
		}
		wide.WriteCSV(wf)
		if err := wf.Close(); err != nil {
			return err
		}
		fmt.Printf("wide band (4x/8x, informational): mean absolute error %.2f%% over %d rows (max %.2f%%)\n",
			wide.MAE(), len(wide.Rows), wide.MaxErr())
		fmt.Printf("wrote %s\n", widePath)
	}

	if mae := table.MAE(); mae >= predictValidateMaxMAE {
		return fmt.Errorf("predict-validate: mean absolute error %.2f%% over %d rows breaches the %.0f%% gate",
			mae, len(table.Rows), predictValidateMaxMAE)
	}
	fmt.Printf("predict-validate: mean absolute error %.2f%% over %d rows — under the %.0f%% gate\n",
		table.MAE(), len(table.Rows), predictValidateMaxMAE)
	return nil
}

// errInterrupted marks a kernel-bench run stopped by SIGINT/SIGTERM;
// the partial JSON document has already been written when it surfaces.
var errInterrupted = errors.New("interrupted")

// kernelBenchDoc is the BENCH_kernel.json schema.
type kernelBenchDoc struct {
	// Host describes where the numbers were taken; wall-clock comparisons
	// only mean something relative to NumCPU.
	Host struct {
		NumCPU     int    `json:"num_cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
	} `json:"host"`
	// Micro are the kernel hot-path micro-benchmarks (internal/kernelbench).
	Micro []microResult `json:"micro"`
	// Baseline holds pre-optimization numbers for the same workloads
	// (parsed from a recorded `go test -bench` output), when provided.
	Baseline []microResult `json:"baseline,omitempty"`
	// Figure5 compares serial vs parallel wall clock for the figure5
	// experiment at quick scale (byte-identical results, different engines).
	// Omitted under -kernel-filter.
	Figure5 *figure5Result `json:"figure5,omitempty"`
	// PredictSweep times a >=1000-configuration parameter sweep answered
	// by the analytical predictor against the measured cost of simulating
	// every configuration; the run fails unless the sweep is at least
	// MinSpeedup (100x) faster. Omitted under -kernel-filter.
	PredictSweep *predictSweepResult `json:"predict_sweep,omitempty"`
	// Ratios are the cross-case performance guards (kernelbench.RatioGuards)
	// evaluated on this run; a guard whose cases were filtered out is
	// omitted rather than evaluated on stale numbers.
	Ratios []ratioResult `json:"ratios,omitempty"`
	// MsgRatios are the counter-ratio guards (kernelbench.MsgRatioGuards):
	// full runtime runs whose message counters must differ by at least the
	// guard's bound (the aggregation cross-group reduction). Omitted under
	// -kernel-filter, like the other full-run sections.
	MsgRatios []msgRatioResult `json:"msg_ratios,omitempty"`
	// Speedups are the multi-core wall-clock guards
	// (kernelbench.SpeedupGuards), recorded only under -kernel-speedup:
	// a single-CPU host cannot show parallel speedup, so the guards are
	// opt-in rather than part of every run.
	Speedups []speedupResult `json:"speedups,omitempty"`
}

type predictSweepResult struct {
	harness.SweepBench
	MinSpeedup float64 `json:"min_speedup"`
	OK         bool    `json:"ok"`
}

type ratioResult struct {
	Name  string  `json:"name"`
	Num   string  `json:"num"`
	Den   string  `json:"den"`
	Ratio float64 `json:"ratio"`
	Max   float64 `json:"max"`
	OK    bool    `json:"ok"`
}

type msgRatioResult struct {
	Name   string  `json:"name"`
	Num    string  `json:"num"`
	Den    string  `json:"den"`
	Ratio  float64 `json:"ratio"`
	Min    float64 `json:"min"`
	Detail string  `json:"detail,omitempty"`
	OK     bool    `json:"ok"`
}

type speedupResult struct {
	Name     string  `json:"name"`
	Parallel string  `json:"parallel"`
	Serial   string  `json:"serial"`
	Speedup  float64 `json:"speedup"` // serial ns/op ÷ parallel ns/op
	Min      float64 `json:"min"`
	OK       bool    `json:"ok"`
}

type microResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
	// Guarded marks a zero-allocation hot path: the bench-regression
	// gate fails the run when a guarded case reports allocs_per_op > 0.
	Guarded bool `json:"guarded,omitempty"`
}

type figure5Result struct {
	SerialMS   float64 `json:"serial_ms"`
	ParallelMS float64 `json:"parallel_ms"`
	Workers    int     `json:"workers"`
	Speedup    float64 `json:"speedup"`
	// Note flags measurements that cannot show parallel speedup (e.g. a
	// single-CPU host, where workers only add scheduling overhead).
	Note string `json:"note,omitempty"`
}

// kernelBenchRun bundles the -kernel-bench mode's inputs.
type kernelBenchRun struct {
	path         string // output JSON (BENCH_kernel.json shape)
	baselinePath string // optional `go test -bench` text to embed
	filter       string // optional case-name regexp
	diffPath     string // optional baseline JSON to diff against
	diffOutPath  string // optional diff artifact path
	speedup      bool   // evaluate SpeedupGuards (multi-core hosts only)
	opts         harness.Options
	// ctx stops the run between benchmark cases (SIGINT/SIGTERM); the
	// partial document is still written.
	ctx context.Context
}

// run measures the kernel micro-benchmarks (optionally filtered) and the
// figure5 serial-vs-parallel wall clock, writes them as one JSON
// document, then applies the gates: zero-alloc guards, cross-case ratio
// guards, and — under -kernel-diff — the ns/op regression bound against
// a committed baseline.
func (kb *kernelBenchRun) run() error {
	var keep func(string) bool = func(string) bool { return true }
	if kb.filter != "" {
		re, err := regexp.Compile(kb.filter)
		if err != nil {
			return fmt.Errorf("-kernel-filter: %v", err)
		}
		keep = re.MatchString
	}

	var doc kernelBenchDoc
	doc.Host.NumCPU = runtime.NumCPU()
	doc.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)
	doc.Host.GoVersion = runtime.Version()
	if kb.baselinePath != "" {
		base, err := parseBenchOutput(kb.baselinePath)
		if err != nil {
			return err
		}
		doc.Baseline = base
	}

	var gateFailures []string
	ran, interrupted := 0, false
	for _, c := range kernelbench.Cases() {
		if kb.ctx != nil && kb.ctx.Err() != nil {
			interrupted = true
			break
		}
		if !keep(c.Name) {
			continue
		}
		ran++
		r := testing.Benchmark(c.Bench)
		doc.Micro = append(doc.Micro, microResult{
			Name:        c.Name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
			Guarded:     c.ZeroAlloc,
		})
		guard := ""
		if c.ZeroAlloc {
			guard = " [guarded]"
			if r.AllocsPerOp() > 0 {
				gateFailures = append(gateFailures,
					fmt.Sprintf("%s: %d allocs/op (want 0)", c.Name, r.AllocsPerOp()))
			}
		}
		fmt.Printf("%-28s %12.1f ns/op %8d B/op %6d allocs/op%s\n",
			c.Name, doc.Micro[len(doc.Micro)-1].NsPerOp, r.AllocedBytesPerOp(), r.AllocsPerOp(), guard)
	}
	if interrupted {
		// Flush the cases measured so far and stop; the gates and the
		// figure5 comparison need a complete run to mean anything.
		if err := writeJSONFile(kb.path, &doc); err != nil {
			return err
		}
		fmt.Printf("wrote %s (partial: %d cases)\n", kb.path, ran)
		return fmt.Errorf("%w after %d benchmark cases", errInterrupted, ran)
	}
	if ran == 0 {
		return fmt.Errorf("-kernel-filter %q matches no benchmark case", kb.filter)
	}

	// Cross-case ratio guards, evaluated only when both cases ran (a
	// filtered run must not compare against numbers it did not take).
	nsOf := func(name string) (float64, bool) {
		for _, m := range doc.Micro {
			if m.Name == name {
				return m.NsPerOp, true
			}
		}
		return 0, false
	}
	for _, g := range kernelbench.RatioGuards() {
		num, okN := nsOf(g.Num)
		den, okD := nsOf(g.Den)
		if !okN || !okD {
			continue
		}
		rr := ratioResult{Name: g.Name, Num: g.Num, Den: g.Den, Ratio: num / den, Max: g.Max}
		rr.OK = rr.Ratio <= g.Max
		doc.Ratios = append(doc.Ratios, rr)
		status := "ok"
		if !rr.OK {
			status = "FAIL"
			gateFailures = append(gateFailures,
				fmt.Sprintf("%s: %s/%s = %.3f exceeds %.2f", g.Name, g.Num, g.Den, rr.Ratio, g.Max))
		}
		fmt.Printf("ratio %-22s %s/%s = %.3f (max %.2f) %s\n", g.Name, g.Num, g.Den, rr.Ratio, g.Max, status)
	}

	// Multi-core speedup guards, opt-in: they assert wall-clock scaling,
	// which only a multi-core host can deliver. Filtered-out cases are
	// skipped like the ratio guards.
	if kb.speedup {
		evaluated := 0
		for _, g := range kernelbench.SpeedupGuards() {
			par, okP := nsOf(g.Parallel)
			ser, okS := nsOf(g.Serial)
			if !okP || !okS {
				continue
			}
			evaluated++
			sr := speedupResult{Name: g.Name, Parallel: g.Parallel, Serial: g.Serial,
				Speedup: ser / par, Min: g.MinSpeedup}
			sr.OK = sr.Speedup >= g.MinSpeedup
			doc.Speedups = append(doc.Speedups, sr)
			status := "ok"
			if !sr.OK {
				status = "FAIL"
				gateFailures = append(gateFailures,
					fmt.Sprintf("%s: %s runs %.2fx faster than %s (want >= %.1fx; GOMAXPROCS=%d)",
						g.Name, g.Parallel, sr.Speedup, g.Serial, g.MinSpeedup, runtime.GOMAXPROCS(0)))
			}
			fmt.Printf("speedup %-20s %s/%s = %.2fx (min %.1fx) %s\n",
				g.Name, g.Serial, g.Parallel, sr.Speedup, g.MinSpeedup, status)
		}
		if evaluated == 0 {
			return fmt.Errorf("-kernel-speedup: the filter %q excludes every speedup-guarded case", kb.filter)
		}
	}

	// Counter-ratio guards: full runtime runs, so they join the other
	// full-run sections in being skipped under -kernel-filter.
	if kb.filter == "" {
		for _, g := range kernelbench.MsgRatioGuards() {
			num, den, detail, err := g.Eval()
			if err != nil {
				gateFailures = append(gateFailures, fmt.Sprintf("%s: %v", g.Name, err))
				fmt.Printf("msgratio %-19s FAIL: %v\n", g.Name, err)
				continue
			}
			mr := msgRatioResult{Name: g.Name, Num: g.Num, Den: g.Den,
				Ratio: num / den, Min: g.Min, Detail: detail}
			mr.OK = mr.Ratio >= g.Min
			doc.MsgRatios = append(doc.MsgRatios, mr)
			status := "ok"
			if !mr.OK {
				status = "FAIL"
				gateFailures = append(gateFailures,
					fmt.Sprintf("%s: %s/%s = %.2fx below %.1fx (%s)", g.Name, g.Num, g.Den, mr.Ratio, g.Min, detail))
			}
			fmt.Printf("msgratio %-19s %s/%s = %.2fx (min %.1fx) %s [%s]\n",
				g.Name, g.Num, g.Den, mr.Ratio, g.Min, status, detail)
		}
	}

	if kb.filter == "" {
		fig5, err := kb.figure5()
		if err != nil {
			return err
		}
		doc.Figure5 = fig5

		ps, err := kb.predictSweep()
		if err != nil {
			return err
		}
		doc.PredictSweep = ps
		if !ps.OK {
			gateFailures = append(gateFailures, fmt.Sprintf(
				"predict_sweep: %d-config sweep only %.1fx faster than simulating (want >= %.0fx)",
				ps.Configs, ps.SweepSpeedup, ps.MinSpeedup))
		}
	}

	if err := writeJSONFile(kb.path, &doc); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", kb.path)

	if kb.diffPath != "" {
		failures, err := kb.diff(&doc)
		if err != nil {
			return err
		}
		gateFailures = append(gateFailures, failures...)
	}

	// The document (and diff artifact) are written either way, so a failed
	// run stays inspectable; the gates fail the process afterwards.
	if len(gateFailures) > 0 {
		return fmt.Errorf("kernel benchmark gates failed:\n  %s",
			strings.Join(gateFailures, "\n  "))
	}
	return nil
}

// figure5 times the figure5 experiment under both engines.
func (kb *kernelBenchRun) figure5() (*figure5Result, error) {
	fig5, ok := harness.ByID("figure5")
	if !ok {
		return nil, fmt.Errorf("figure5 not registered")
	}
	workers := kb.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	timeRun := func(o harness.Options) (float64, error) {
		start := time.Now()
		_, err := harness.RunExperiment(fig5, o)
		return float64(time.Since(start).Nanoseconds()) / 1e6, err
	}
	serialMS, err := timeRun(harness.Options{Scale: kb.opts.Scale, Engine: rt.EngineSerial})
	if err != nil {
		return nil, err
	}
	parallelMS, err := timeRun(harness.Options{Scale: kb.opts.Scale, Engine: rt.EngineParallel, Workers: workers})
	if err != nil {
		return nil, err
	}
	res := &figure5Result{
		SerialMS:   serialMS,
		ParallelMS: parallelMS,
		Workers:    workers,
		Speedup:    serialMS / parallelMS,
	}
	numCPU := runtime.NumCPU()
	if numCPU < 4 && res.Speedup < 2 {
		res.Note = fmt.Sprintf(
			"host has %d CPU(s); wall-clock speedup requires a multi-core host — results remain byte-identical",
			numCPU)
	}
	fmt.Printf("figure5 wall clock: serial %.1fms, parallel(%d workers) %.1fms, speedup %.2fx on %d CPUs\n",
		serialMS, workers, parallelMS, res.Speedup, numCPU)
	return res, nil
}

// predictSweepMinSpeedup is the required wall-clock advantage of the
// analytical predictor over per-configuration simulation on a large
// sweep (the paper's motivating use case: answering parameter-space
// questions without simulating each point).
const (
	predictSweepConfigs    = 1008
	predictSweepMinSpeedup = 100
)

// predictSweep times the >=1000-configuration analytical sweep against
// the measured per-configuration simulation cost.
func (kb *kernelBenchRun) predictSweep() (*predictSweepResult, error) {
	sb, err := harness.PredictSweepBench(harness.Options{Scale: kb.opts.Scale}, predictSweepConfigs)
	if err != nil {
		return nil, err
	}
	res := &predictSweepResult{SweepBench: *sb, MinSpeedup: predictSweepMinSpeedup}
	res.OK = res.SweepSpeedup >= res.MinSpeedup
	fmt.Printf("predict sweep: %d configs in %.1fms (calibration %.1fms) vs %.1fms/config simulated — %.0fx sweep, %.0fx amortized\n",
		res.Configs, res.PredictTotalMS, res.CalibrationMS, res.SimPerConfigMS,
		res.SweepSpeedup, res.AmortizedSpeedup)
	return res, nil
}

// kernelDiffDoc is the -kernel-diff-out artifact: the per-case ns/op
// comparison between a committed baseline and the fresh run.
type kernelDiffDoc struct {
	BaselinePath string `json:"baseline_path"`
	// HostMatch is false when the baseline was taken on a different host
	// shape (NumCPU or GOMAXPROCS differ). ns/op ratios between different
	// hosts are noise, so the regression gate is skipped — the comparison
	// rows are still recorded, and the zero-alloc guards (host-independent)
	// apply either way.
	HostMatch  bool            `json:"host_match"`
	Note       string          `json:"note,omitempty"`
	MaxRegress float64         `json:"max_regress"` // allowed fractional ns/op growth on guarded cases
	Cases      []kernelDiffRow `json:"cases"`
	Failures   []string        `json:"failures,omitempty"`
}

type kernelDiffRow struct {
	Name       string  `json:"name"`
	BaseNsOp   float64 `json:"base_ns_per_op"`
	NsOp       float64 `json:"ns_per_op"`
	Change     float64 `json:"change"` // fractional: 0.25 = 25% slower
	Guarded    bool    `json:"guarded"`
	Regression bool    `json:"regression"`
}

// kernelDiffMaxRegress is the allowed fractional ns/op growth for a
// guarded case between the committed baseline and a fresh CI run; wide
// enough to absorb shared-runner noise, tight enough to catch a real
// hot-path regression.
const kernelDiffMaxRegress = 0.25

// diff compares the fresh run against the committed baseline document and
// returns gate failures for guarded cases that regressed beyond the
// bound. Cases present on only one side (renames, filters) are skipped.
func (kb *kernelBenchRun) diff(doc *kernelBenchDoc) ([]string, error) {
	data, err := os.ReadFile(kb.diffPath)
	if err != nil {
		return nil, err
	}
	var base kernelBenchDoc
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("%s: %v", kb.diffPath, err)
	}
	baseNs := make(map[string]float64, len(base.Micro))
	for _, m := range base.Micro {
		baseNs[m.Name] = m.NsPerOp
	}
	out := kernelDiffDoc{BaselinePath: kb.diffPath, HostMatch: true, MaxRegress: kernelDiffMaxRegress}
	if base.Host.NumCPU != doc.Host.NumCPU || base.Host.GOMAXPROCS != doc.Host.GOMAXPROCS {
		out.HostMatch = false
		out.Note = fmt.Sprintf(
			"baseline host %d CPU / GOMAXPROCS %d, this host %d / %d: ns/op regression gating skipped (alloc guards still apply)",
			base.Host.NumCPU, base.Host.GOMAXPROCS, doc.Host.NumCPU, doc.Host.GOMAXPROCS)
		fmt.Printf("kernel-diff: %s\n", out.Note)
	}
	for _, m := range doc.Micro {
		bns, ok := baseNs[m.Name]
		if !ok || bns <= 0 {
			continue
		}
		row := kernelDiffRow{
			Name:     m.Name,
			BaseNsOp: bns,
			NsOp:     m.NsPerOp,
			Change:   m.NsPerOp/bns - 1,
			Guarded:  m.Guarded,
		}
		row.Regression = out.HostMatch && row.Guarded && row.Change > kernelDiffMaxRegress
		if row.Regression {
			out.Failures = append(out.Failures, fmt.Sprintf(
				"%s: %.1f ns/op vs baseline %.1f (%+.1f%%, bound +%.0f%%)",
				m.Name, m.NsPerOp, bns, 100*row.Change, 100*kernelDiffMaxRegress))
		}
		out.Cases = append(out.Cases, row)
		fmt.Printf("diff %-28s %12.1f -> %10.1f ns/op  %+6.1f%%\n", m.Name, bns, m.NsPerOp, 100*row.Change)
	}
	if len(out.Cases) == 0 {
		return nil, fmt.Errorf("-kernel-diff: no case of this run exists in %s", kb.diffPath)
	}
	if kb.diffOutPath != "" {
		if err := writeJSONFile(kb.diffOutPath, &out); err != nil {
			return nil, err
		}
		fmt.Printf("wrote %s\n", kb.diffOutPath)
	}
	return out.Failures, nil
}

// writeJSONFile writes v with stable two-space indentation.
func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseBenchOutput extracts per-benchmark numbers from `go test -bench
// -benchmem` text output lines such as
//
//	BenchmarkKernel/send_recv  1272314  959.1 ns/op  128 B/op  2 allocs/op
func parseBenchOutput(path string) ([]microResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []microResult
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := f[0]
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[i+1:]
		}
		name = strings.TrimSuffix(name, "-"+fmt.Sprint(runtime.GOMAXPROCS(0)))
		r := microResult{Name: name}
		r.N, _ = strconv.Atoi(f[1])
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			}
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return out, nil
}
