// Command dsmrun executes one application/protocol/block-size
// configuration on the simulated DSM machine and prints the paper-style
// execution-time breakdown plus protocol counters.
//
// Usage:
//
//	dsmrun -app adaptive|barnes|water [-protocol stache|predictive|update]
//	       [-nodes N] [-block B] [-net <preset>] [-aggregate] [-spmd] [-splash] [-size N] [-iters N]
//	       [-metrics out.json] [-metrics-out out.json]
//	       [-profile] [-profile-out profile.json] [-predict]
//	       [-trace-out t.json] [-trace-format chrome|jsonl]
//	       [-engine serial|parallel] [-workers N]
//	       [-cpuprofile f] [-memprofile f]
//
// -metrics writes the machine's full metrics report (breakdown, per-phase
// stats, protocol counters, histograms) as JSON; "-" selects stdout.
// -metrics-out is an alias for -metrics.
// -profile enables the causal profiler: every wake edge is recorded, and
// after the run dsmrun prints the exact time-attribution report (every
// simulated nanosecond of every node classified into compute / transit /
// occupancy / service / barrier / stall / presend / idle, validated to
// sum to the node's total) plus the critical path. -profile-out writes
// the same data as a stable profile.json artifact. With a chrome trace,
// -profile also overlays the critical path as a dedicated lane with flow
// arrows. Simulated results are identical with or without -profile.
// -predict cross-checks the analytical fast path (internal/predict)
// against the run: a second, recorded simulation at the predictor's 32B
// calibration block size is distilled into a calibration, the requested
// block size is predicted analytically, and the predicted-vs-simulated
// error table prints after the breakdown (-block must be 32<<k, k<=6, and
// -nodes at most 64).
// -trace-out streams the protocol event trace to a file: -trace-format
// chrome (default) produces a Chrome trace_event file for
// chrome://tracing or https://ui.perfetto.dev; jsonl produces one JSON
// object per event. Virtual time makes both byte-identical across
// identical runs.
//
// -net accepts every topology preset (network.Grammars lists them):
// flat machines (cm5, now, hwdsm), two- and three-level clusters
// (cluster:<groups>x<cores>, cluster:<groups>x<subgroups>x<cores>),
// 2D meshes (mesh:<w>x<h>) and fat trees (fattree:<levels>).
// -aggregate enables node-leader message aggregation on hierarchical
// machines: cross-group bulk traffic bound for one remote group is
// coalesced into a single leader-to-leader message. Timing changes;
// final memory contents do not.
//
// -engine parallel runs the simulation on the kernel's conservative
// parallel engine; every output (breakdown, metrics, traces) is
// byte-identical to -engine serial — only wall-clock time changes.
// A bad -protocol, -block, -nodes, -engine, -net or -workers value, or a
// negative -size or -iters, exits with status 2 and a one-line error.
// -cpuprofile/-memprofile write pprof profiles of the simulator itself.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"presto/internal/apps/adaptive"
	"presto/internal/apps/barnes"
	"presto/internal/apps/water"
	"presto/internal/causal"
	"presto/internal/predict"
	"presto/internal/prof"
	"presto/internal/rt"
	"presto/internal/sim"
	"presto/internal/trace"
)

func main() {
	app := flag.String("app", "", "application: adaptive, barnes or water")
	machine := rt.BindFlags(flag.CommandLine, true)
	size := flag.Int("size", 0, "problem size (mesh edge / bodies / molecules); 0 = paper size")
	iters := flag.Int("iters", 0, "iterations; 0 = paper count")
	spmd := flag.Bool("spmd", false, "barnes: hand-optimized SPMD baseline (use -protocol update)")
	splash := flag.Bool("splash", false, "water: Splash-2 shared-memory variant")
	metricsOut := flag.String("metrics", "", "write the metrics report as JSON to this file (\"-\" = stdout)")
	metricsOut2 := flag.String("metrics-out", "", "alias for -metrics: write the metrics report (including the full metrics registry) as JSON")
	predictFlag := flag.Bool("predict", false, "validate the analytical predictor against this run: record a 32B calibration of the same configuration, predict this block size, print the predicted-vs-simulated error table")
	profileOut := flag.String("profile-out", "", "with -profile: write the profile.json artifact to this file (\"-\" = stdout)")
	traceOut := flag.String("trace-out", "", "write the protocol event trace to this file")
	traceFormat := flag.String("trace-format", "chrome", "trace format: chrome or jsonl")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	mc, err := machine()
	if err == nil && *size < 0 {
		err = fmt.Errorf("-size %d is negative", *size)
	}
	if err == nil && *iters < 0 {
		err = fmt.Errorf("-iters %d is negative", *iters)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmrun: %v\n", err)
		os.Exit(2)
	}
	if *predictFlag && mc.Nodes > predict.MaxNodes {
		fmt.Fprintf(os.Stderr, "dsmrun: -predict calibrates at most %d nodes, not %d\n", predict.MaxNodes, mc.Nodes)
		os.Exit(2)
	}
	if *predictFlag && (mc.BlockSize < calBlock || mc.BlockSize > calBlock<<predict.MaxShift) {
		fmt.Fprintf(os.Stderr, "dsmrun: -predict extrapolates its %dB calibration to %d-%d B blocks (%d<<0..%d<<%d), not %d\n",
			calBlock, calBlock, calBlock<<predict.MaxShift, calBlock, calBlock, predict.MaxShift, mc.BlockSize)
		os.Exit(2)
	}

	stopProf = prof.Start(*cpuprofile, *memprofile)
	defer stopProf()

	if *metricsOut == "" {
		*metricsOut = *metricsOut2
	}

	var traceFile *os.File
	var chrome *trace.Chrome
	var jsonl *trace.JSONL
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		traceFile = f
		switch *traceFormat {
		case "chrome":
			chrome = trace.NewChrome()
			mc.Sink = chrome
		case "jsonl":
			jsonl = trace.NewJSONL(f)
			mc.Sink = jsonl
		default:
			fmt.Fprintf(os.Stderr, "dsmrun: unknown -trace-format %q (want chrome or jsonl)\n", *traceFormat)
			os.Exit(2)
		}
	}

	a := appRun{app: *app, size: *size, iters: *iters, spmd: *spmd, splash: *splash}
	m, extra, err := a.run(mc)
	if errors.Is(err, errUnknownApp) {
		fmt.Fprintln(os.Stderr, "dsmrun:", err)
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	b, c := m.Breakdown(), m.Counters()

	var prof *causal.Profile
	if mc.Profile {
		prof, err = m.Profile(*app)
		if err != nil {
			fatal(err)
		}
		// The attribution invariant is load-bearing: refuse to emit a
		// profile whose buckets do not sum to the simulated time.
		if err := prof.Validate(); err != nil {
			fatal(err)
		}
		if chrome != nil {
			path, err := m.CriticalPath()
			if err != nil {
				fatal(err)
			}
			chrome.SetCriticalPath(rt.PathOverlay(path))
		}
	}

	if traceFile != nil {
		switch {
		case chrome != nil:
			if err := chrome.Write(traceFile); err != nil {
				fatal(err)
			}
		case jsonl != nil:
			if err := jsonl.Close(); err != nil {
				fatal(err)
			}
		}
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
	}

	if *metricsOut != "" {
		out := os.Stdout
		if *metricsOut != "-" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		rep := m.Report()
		rep.Exec = m.ExecInfo()
		if err := writeJSON(out, rep); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("%s on %d nodes, %dB blocks, %s protocol\n", *app, m.Cfg.Nodes, m.Cfg.BlockSize, m.Cfg.Protocol)
	if mc.Engine == rt.EngineParallel {
		ei := m.ExecInfo()
		fmt.Printf("  engine            parallel: %d workers over %d lanes\n", ei.Workers, ei.Lanes)
	}
	fmt.Printf("  execution time    %v\n", b.Elapsed)
	fmt.Printf("  remote-data wait  %v\n", b.RemoteWait)
	fmt.Printf("  pre-send          %v\n", b.Presend)
	fmt.Printf("  compute+synch     %v (compute %v, synch %v)\n", b.ComputeSynch(), b.Compute, b.Sync)
	fmt.Printf("  faults            %d read, %d write\n", c.ReadFaults, c.WriteFaults)
	fmt.Printf("  messages          %d (%.2f MB)\n", c.MsgsSent, float64(c.BytesSent)/1e6)
	if c.AggMsgs > 0 {
		fmt.Printf("  aggregates        %d leader-to-leader (%d entries, %d cross-group msgs)\n",
			c.AggMsgs, c.AggEntriesOut, c.CrossMsgs)
	}
	fmt.Printf("  pre-sends         %d blocks (%d bulk messages, %d skipped, %d conflicts)\n",
		c.PresendsSent, c.BulkMsgs, c.PresendsSkipped, c.Conflicts)
	fmt.Printf("  %s\n", extra)
	printPhases(m)

	if prof != nil {
		fmt.Println()
		prof.Render(os.Stdout)
		if *profileOut != "" {
			out := os.Stdout
			if *profileOut != "-" {
				f, err := os.Create(*profileOut)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				out = f
			}
			if err := writeJSON(out, prof); err != nil {
				fatal(err)
			}
		}
	}

	if *predictFlag {
		if err := predictReport(a, mc, b); err != nil {
			fatal(err)
		}
	}
}

// appRun is the application half of a dsmrun invocation: everything but
// the machine.
type appRun struct {
	app          string
	size, iters  int
	spmd, splash bool
}

var errUnknownApp = errors.New("-app must be adaptive, barnes or water")

// run executes the application on a machine built from mc and returns
// the machine and the application's one-line result summary.
func (a appRun) run(mc rt.Config) (*rt.Machine, string, error) {
	switch a.app {
	case "adaptive":
		r, err := adaptive.Run(adaptive.Config{Machine: mc, Size: a.size, Iters: a.iters})
		if err != nil {
			return nil, "", err
		}
		return r.Machine, fmt.Sprintf("refined cells: %d, checksum %.4f", r.Refined, r.Checksum), nil
	case "barnes":
		r, err := barnes.Run(barnes.Config{Machine: mc, Bodies: a.size, Iters: a.iters, SPMD: a.spmd})
		if err != nil {
			return nil, "", err
		}
		return r.Machine, fmt.Sprintf("tree cells: %d, checksum %.4f", r.Cells, r.Checksum), nil
	case "water":
		r, err := water.Run(water.Config{Machine: mc, Molecules: a.size, Steps: a.iters, Splash: a.splash})
		if err != nil {
			return nil, "", err
		}
		return r.Machine, fmt.Sprintf("energy checksum %.4f", r.Energy), nil
	}
	return nil, "", errUnknownApp
}

// calBlock is the block size -predict calibrates at: the predictor's base.
const calBlock = 32

// predictReport validates the analytical fast path against the run that
// just finished: it records a calibration of the same configuration at
// the predictor's 32B base block size, extrapolates to the requested
// block size, and prints the error table plus the predicted breakdown.
func predictReport(a appRun, mc rt.Config, simulated rt.Breakdown) error {
	cc := mc
	cc.BlockSize = calBlock
	cc.Profile, cc.Record = true, true
	cc.Sink = nil

	m, _, err := a.run(cc)
	if err != nil {
		return fmt.Errorf("predict calibration: %w", err)
	}
	cal, err := predict.Calibrate(m, a.app)
	if err != nil {
		return err
	}
	pr, err := cal.Predict(predict.Target{BlockSize: mc.BlockSize})
	if err != nil {
		return fmt.Errorf("predicting %dB from the %dB calibration: %w", mc.BlockSize, cc.BlockSize, err)
	}

	fmt.Println()
	fmt.Printf("analytical predictor (calibrated at %dB, %s protocol):\n", cc.BlockSize, mc.Protocol)
	fmt.Printf("  predicted time    %v (simulated %v)\n", sim.Time(pr.ElapsedNS), simulated.Elapsed)
	fmt.Printf("  remote-data wait  %v (simulated %v)\n", pr.Breakdown.RemoteWait, simulated.RemoteWait)
	fmt.Printf("  pre-send          %v (simulated %v)\n", pr.Breakdown.Presend, simulated.Presend)
	var table predict.ErrorTable
	table.Add(a.app, fmt.Sprintf("%s/%s", a.app, mc.Protocol), mc.BlockSize,
		pr.ElapsedNS, int64(simulated.Elapsed))
	table.Render(os.Stdout)
	return nil
}

// printPhases renders the per-phase breakdown when phases were recorded.
func printPhases(m *rt.Machine) {
	phases := m.PhaseBreakdown()
	if len(phases) == 0 {
		return
	}
	fmt.Printf("  per-phase (per-node averages):\n")
	for _, p := range phases {
		hit := ""
		if p.PresendsIn > 0 {
			hit = fmt.Sprintf(", coverage %.1f%%, accuracy %.1f%%", 100*p.Coverage(), 100*p.Accuracy())
		}
		fmt.Printf("    %-14s iters %-4d remote-wait %-12v presend %-12v faults %d%s\n",
			p.Name, p.Iters, sim.Time(p.RemoteWaitNS), sim.Time(p.PresendNS), p.Faults(), hit)
	}
}

// writeJSON renders v with stable two-space indentation.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// stopProf flushes -cpuprofile/-memprofile output; fatal calls it so
// profiles survive error exits.
var stopProf = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsmrun:", err)
	stopProf()
	os.Exit(1)
}
