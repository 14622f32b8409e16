// Command prestobench is presto's benchmark. One invocation runs one named
// workload, checks the program's outputs and prints every metric by name.
//
//	bash bench/run.sh --workload barnes32 --seed 1996 --seconds 10 --trace 0
//
// Every timing is host time, measured from outside the program: the
// benchmark times calls into public functions, reads counters the program
// already exports and samples the process with runtime/pprof. Simulated
// time is the program's output and appears only as an exact count.
//
// Each timed pass runs in a fresh child process (this binary re-executed
// with -child). A finished rt.Machine keeps its protocol-processor
// goroutines parked forever, which pins the whole machine's memory; passes
// repeated inside one process would therefore grow the heap pass by pass
// (2.5 GB per 1024-node pass) and slow each other down. A process per pass
// is also what a dsmrun or paperbench user pays for: process start, a cold
// heap and its page faults are inside the numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const defaultSeed = 1996

// options are the benchmark's command-line settings.
type options struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	expected string
}

func main() {
	if len(os.Args) > 2 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so tests can call it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prestobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var selfcheck, pin bool
	fs.StringVar(&o.root, "root", ".", "checkout root (holds BENCHMARK.json and internal/)")
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 14, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 repeats the workload traced and prints the per-layer metrics instead")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs, one pass; numbers are never comparable")
	fs.StringVar(&o.expected, "expected", "", "pinned program results to check against (default: the embedded expected.json)")
	fs.BoolVar(&selfcheck, "selfcheck", false, "run every workload as two sets and compare them against the bounds in BENCHMARK.json")
	fs.BoolVar(&pin, "pin", false, "print the workload's program results for expected.json instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	if selfcheck {
		return runSelfcheck(o, stdout, stderr)
	}
	w := workloadByName(o.workload)
	if w == nil {
		fmt.Fprintf(stderr, "prestobench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "prestobench: %s: %v\n", w.name, err)
		return 1
	}
	if pin {
		out, _ := json.MarshalIndent(map[string]map[string]string{w.name: res.results}, "", "  ")
		fmt.Fprintf(stdout, "%s\n", out)
		return 0
	}
	res.print(stdout, o)
	if !res.correct() {
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the outcome of one benchmark run of one workload.
type runResult struct {
	workload  string
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string
	passes    int
	ops       int
	// results are the program results of the first pass (what -pin prints);
	// counts its exact counts.
	results map[string]string
	counts  map[string]float64
}

func (r *runResult) correct() bool { return r.failed == 0 && len(r.failures) == 0 }

func (r *runResult) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// print writes the human-readable report and, as the last line, the result
// object the driver reads.
func (r *runResult) print(w io.Writer, o options) {
	fmt.Fprintf(w, "workload %s  seed %d  passes %d  timed operations %d  trace %v  smoke %v\n",
		r.workload, o.seed, r.passes, r.ops, o.trace, o.smoke)
	fmt.Fprintf(w, "host num_cpu=%d gomaxprocs=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	trace := 0
	if o.trace {
		trace = 1
	}
	command := fmt.Sprintf("bash bench/run.sh --workload %s --seed %d --seconds %g --trace %d", r.workload, o.seed, o.seconds, trace)
	if o.smoke {
		command += " --smoke"
	}
	fmt.Fprintf(w, "command %s\n", command)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	fmt.Fprintf(w, "failed_share %d/%d\n", r.failed, r.attempted)
	line, _ := json.Marshal(resultLine{r.correct(), r.attempted, r.failed, r.metrics, o.smoke})
	fmt.Fprintf(w, "%s\n", line)
}

// resultLine is the object a run prints as its last line.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Smoke marks numbers that are never comparable.
	Smoke bool `json:"smoke,omitempty"`
}

// variant is one way of running a pass.
type variant struct {
	name string
	// traced records spans and a CPU profile in the child.
	traced bool
	// parallel runs the pass on the parallel engine; flight also turns on
	// rt.Config.Profile so the engine's flight record exists.
	parallel, flight bool
}

var (
	plainPass    = variant{name: "plain"}
	tracedPass   = variant{name: "traced", traced: true}
	parallelPass = variant{name: "parallel", parallel: true}
	flightPass   = variant{name: "flight", parallel: true, flight: true}
)

// runWorkload spawns passes of w until o.seconds are used, checks them and
// reduces them to the run's metrics.
func runWorkload(w *workload, o options) (*runResult, error) {
	exp, err := loadExpected(o.expected)
	if err != nil {
		return nil, err
	}
	outDir := filepath.Join(o.root, "bench", "out")
	if o.trace {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
	}
	cycle := []variant{plainPass}
	if o.trace {
		cycle = []variant{plainPass, tracedPass}
		if w.parallel {
			cycle = append(cycle, parallelPass, flightPass)
		}
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		// The layer drivers get the rest.
		budget = budget * 6 / 10
	}
	// At least one pass of every kind, and two to take a median of.
	minPasses := max(2, len(cycle))
	if o.smoke {
		minPasses = len(cycle)
	}

	// kilonode's untraced run closes with one pass on the parallel engine.
	// It is timed into no metric: its results and counts must equal the
	// serial passes', which checkPasses asserts for every pass alike.
	closing := w.parallel && !o.trace

	start := time.Now()
	var passes []*passReport
	var longest time.Duration
	spawn := func(v variant) error {
		t := time.Now()
		p, err := spawnPass(w, o, v, len(passes), outDir)
		if err != nil {
			return err
		}
		longest = max(longest, time.Since(t))
		passes = append(passes, p)
		return nil
	}
	for i := 0; ; i++ {
		need := longest // the next pass must fit, and the closing one after it
		if closing {
			need *= 2
		}
		if i >= minPasses && (o.smoke || time.Since(start)+need > budget) {
			break
		}
		if err := spawn(cycle[i%len(cycle)]); err != nil {
			return nil, err
		}
	}
	if closing {
		if err := spawn(parallelPass); err != nil {
			return nil, err
		}
	}

	res := &runResult{workload: w.name, metrics: map[string]metric{}, passes: len(passes),
		results: passes[0].Results, counts: passes[0].Counts}
	checkPasses(res, passes, exp.pins(w.name, o))
	if o.trace {
		if err := traceMetrics(res, w, o, passes, outDir); err != nil {
			return nil, err
		}
	} else {
		endToEndMetrics(res, passes)
	}
	return res, nil
}

// endToEndMetrics reduces the plain serial passes to the end-to-end
// metrics: medians over passes, and for wall_s over every timed operation.
func endToEndMetrics(res *runResult, passes []*passReport) {
	var setup, wall, rss []float64
	for _, p := range passes {
		if p.Variant != plainPass.name {
			continue
		}
		setup = append(setup, p.SetupS)
		wall = append(wall, p.Ops...)
		rss = append(rss, p.PeakRSSMB)
	}
	res.ops = len(wall)
	res.set("setup_s", median(setup), "s")
	res.set("wall_s", median(wall), "s")
	res.set("peak_rss_mb", median(rss), "MB")
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation, 0 when v is
// empty.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
