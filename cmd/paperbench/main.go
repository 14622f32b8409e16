// Command paperbench regenerates the paper's tables and figures.
//
// Usage:
//
//	paperbench [-experiment all|table1|figure4|figure5|figure6|figure7|scale|sweep|ablate-*]
//	           [-list] [-scale quick|paper] [-net <preset>] [-aggregate]
//	           [-csv out.csv] [-json out.json]
//	           [-engine serial|parallel] [-workers N]
//	           [-profile] [-predict]
//	           [-predict-validate out.csv] [-predict-validate-wide out.csv]
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
// the experiments build. Figure 5-7 and sweep rows then carry an exact
// time-attribution profile (validated: buckets sum to total simulated
// time), rendered as an extra table and embedded in the -json output.
// Simulated results are identical with or without it.
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
// -predict-validate is the predictor's accuracy gate: it writes the
// predicted-vs-simulated error table over figures 5-7 and a chaos seed
// band to a CSV file and exits non-zero unless the mean absolute error is
// under 15%.
//
// Host performance is measured by the benchmark in bench/, not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"presto/internal/harness"
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
	sc, err := harness.ParseScale(*scaleStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(2)
	}

	stopProf := prof.Start(*cpuprofile, *memprofile)
	defer stopProf()

	// SIGINT/SIGTERM stop the run at the next experiment boundary; the
	// artifacts for the work already done are flushed before exit so a
	// partial run stays inspectable.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	opts := harness.Options{Scale: sc, Machine: mc, Predict: *predictFlag}

	if *predictValidate != "" {
		if err := runPredictValidate(opts, *predictValidate, *predictWide, *predictBand); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			stopProf()
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

// runPredictValidate executes the predict-validate CI job: write the
// gated error table (harness.PredictValidation) as the uploaded
// artifact, optionally write the wider informational band, and return
// the gate's verdict (harness.PredictGate).
func runPredictValidate(opts harness.Options, path, widePath string, seeds int) error {
	table, err := harness.PredictValidation(opts, seeds)
	if err != nil {
		return err
	}
	if err := writeTable(path, table); err != nil {
		return err
	}
	table.Render(os.Stdout)
	fmt.Printf("wrote %s\n", path)

	if widePath != "" {
		wide, err := predict.ChaosBandShifts(seeds, []int{2, 3})
		if err != nil {
			return err
		}
		if err := writeTable(widePath, wide); err != nil {
			return err
		}
		fmt.Printf("wide band (4x/8x, informational): mean absolute error %.2f%% over %d rows (max %.2f%%)\n",
			wide.MAE(), len(wide.Rows), wide.MaxErr())
		fmt.Printf("wrote %s\n", widePath)
	}

	if err := harness.PredictGate(table); err != nil {
		return err
	}
	fmt.Printf("predict-validate: mean absolute error %.2f%% over %d rows — under the %.0f%% gate\n",
		table.MAE(), len(table.Rows), harness.PredictGateMAE)
	return nil
}

// writeTable writes an error table as CSV to path.
func writeTable(path string, t *predict.ErrorTable) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.WriteCSV(f)
	return f.Close()
}
