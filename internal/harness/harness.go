// Package harness regenerates the paper's experimental artifacts: Table 1
// (the benchmark workloads), Figure 4 (the compiler's annotated Barnes
// CFG), and Figures 5-7 (execution-time comparisons for Adaptive, Barnes
// and Water), plus the §5.4 block-size sweep and the ablations called out
// in DESIGN.md. Each experiment produces labeled rows (one per program
// version/bar) with the paper's three-way time split, rendered as text
// tables with ASCII bars.
package harness

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"

	"presto/internal/causal"
	"presto/internal/predict"
	"presto/internal/rt"
	"presto/internal/sim"
)

// Scale selects workload sizes.
type Scale int

const (
	// Quick runs CI-sized workloads (seconds of wall clock).
	Quick Scale = iota
	// Paper runs the paper's workload sizes (Table 1).
	Paper
)

// ParseScale maps a scale name, "quick" or "paper", to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick":
		return Quick, nil
	case "paper":
		return Paper, nil
	}
	return Quick, fmt.Errorf("harness: unknown scale %q (want quick or paper)", s)
}

// Options selects how experiments execute: the workload scale, a
// machine template stamped onto every machine an experiment builds, and
// the analytical fast path.
type Options struct {
	Scale Scale
	// Machine is the template every experiment machine starts from. Only
	// the run-wide fields may be set; the experiment picks each row's
	// shape, protocol and ablation knobs itself (RunExperiment rejects a
	// template that sets any other field):
	//   - Engine, Workers and Sched are copied. The engine and scheduler
	//     change wall clock only: results are byte-identical across them
	//     (asserted by the determinism and golden tests, which set
	//     rt.SchedHeap to run the reference oracle).
	//   - Profile is copied: figure 5-7 and sweep rows then carry a
	//     validated attribution profile (rendered after the phase table
	//     and exported in the JSON results).
	//   - Aggregate is OR-ed in: node-leader aggregation on every machine
	//     (a structural no-op without node groups). The scaling curve
	//     sweeps aggregation itself and overrides it per row.
	//   - Net applies to rows that pick no interconnect of their own (the
	//     platform-comparison rows keep their presets).
	Machine rt.Config
	// Predict switches the figure 5-7 and sweep experiments onto the
	// analytical fast path (internal/predict): one recorded calibration
	// simulation per (application, protocol) pair, every other block size
	// extrapolated without simulating. Rows at the calibration block size
	// are bit-identical to the simulated rows (the predictor's identity
	// guarantee); extrapolated rows stay within the validated error band.
	Predict bool
}

// withDefaults checks the machine template and fills its engine.
func (o Options) withDefaults() (Options, error) {
	rest := o.Machine
	rest.Engine, rest.Workers, rest.Sched, rest.Profile, rest.Aggregate, rest.Net = "", 0, "", false, false, nil
	v := reflect.ValueOf(rest)
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).IsZero() {
			return o, fmt.Errorf("harness: machine template sets %s; experiments pick it per row (a template sets only Engine, Workers, Sched, Profile, Aggregate and Net)", v.Type().Field(i).Name)
		}
	}
	if o.Machine.Engine == "" {
		o.Machine.Engine = rt.EngineSerial
	}
	return o, nil
}

// machine stamps the template onto one experiment machine.
func (o Options) machine(c rt.Config) rt.Config {
	t := o.Machine
	c.Engine, c.Workers, c.Sched, c.Profile = t.Engine, t.Workers, t.Sched, t.Profile
	c.Aggregate = c.Aggregate || t.Aggregate
	if c.Net == nil {
		c.Net = t.Net
	}
	return c
}

// Row is one bar of a figure: a program version's time breakdown.
type Row struct {
	Label     string
	BlockSize int
	B         rt.Breakdown
	C         rt.Counters
	// Phases is the per-parallel-phase breakdown (empty for rows whose
	// runner predates phase attribution).
	Phases []rt.PhaseStat
	// Profile is the validated causal attribution profile, present when
	// the experiment ran with Options.Profile.
	Profile *causal.Profile `json:"profile,omitempty"`
}

// attachProfile assembles and validates the row's causal profile when
// profiling is on (a no-op otherwise). The attribution invariant is
// enforced here: a profile whose buckets do not sum to the simulated
// time fails the experiment.
func (o Options) attachProfile(row *Row, m *rt.Machine, app string) error {
	if !o.Machine.Profile {
		return nil
	}
	p, err := m.Profile(app)
	if err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("%s: %w", row.Label, err)
	}
	row.Profile = p
	return nil
}

// Total returns the row's execution time.
func (r Row) Total() sim.Time { return r.B.Elapsed }

// Result is one experiment's output.
type Result struct {
	ID    string
	Title string
	Rows  []Row
	// Notes carries derived findings (speedups, crossovers) recorded in
	// EXPERIMENTS.md.
	Notes []string
	// Engine records the kernel engine the experiment ran under. It is
	// metadata only: rows and CSV output are engine-independent.
	Engine rt.EngineKind
	// Error is the predicted-vs-simulated comparison table produced by the
	// predict-error experiment; when set it replaces Rows as the CSV
	// payload (the table is the experiment's artifact).
	Error *predict.ErrorTable
	// Curve is the scaling experiment's payload; like Error it replaces
	// Rows as the CSV payload when set.
	Curve *ScalingCurve
}

// Best returns the fastest row matching the label prefix.
func (res *Result) Best(prefix string) (Row, bool) {
	var best Row
	found := false
	for _, r := range res.Rows {
		if !strings.HasPrefix(r.Label, prefix) {
			continue
		}
		if !found || r.Total() < best.Total() {
			best = r
			found = true
		}
	}
	return best, found
}

// Find returns the row with the exact label.
func (res *Result) Find(label string) (Row, bool) {
	for _, r := range res.Rows {
		if r.Label == label {
			return r, true
		}
	}
	return Row{}, false
}

// AddNote records a derived finding.
func (res *Result) AddNote(format string, args ...any) {
	res.Notes = append(res.Notes, fmt.Sprintf(format, args...))
}

// Render prints the figure as a table plus normalized stacked bars, in
// the spirit of the paper's figures (bars normalized to the fastest
// version, split into remote-wait / pre-send / compute+synch).
func (res *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n\n", res.ID, res.Title)
	if res.Engine != "" && res.Engine != rt.EngineSerial {
		fmt.Fprintf(w, "(engine: %s)\n\n", res.Engine)
	}
	if res.Error != nil {
		res.Error.Render(w)
		for _, n := range res.Notes {
			fmt.Fprintf(w, "  - %s\n", n)
		}
		fmt.Fprintln(w)
		return
	}
	if res.Curve != nil {
		res.Curve.Render(w)
		if len(res.Notes) > 0 {
			fmt.Fprintln(w)
			for _, n := range res.Notes {
				fmt.Fprintf(w, "  - %s\n", n)
			}
		}
		fmt.Fprintln(w)
		return
	}
	if len(res.Rows) == 0 {
		for _, n := range res.Notes {
			fmt.Fprintln(w, n)
		}
		return
	}
	fastest := res.Rows[0].Total()
	for _, r := range res.Rows {
		if r.Total() < fastest {
			fastest = r.Total()
		}
	}
	fmt.Fprintf(w, "%-26s %10s %12s %12s %14s %8s\n",
		"version", "total", "remote-wait", "presend", "compute+synch", "rel")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-26s %10v %12v %12v %14v %8.2f\n",
			r.Label, r.B.Elapsed, r.B.RemoteWait, r.B.Presend, r.B.ComputeSynch(),
			float64(r.Total())/float64(fastest))
	}
	fmt.Fprintln(w)
	// Stacked bars: #=compute+synch, p=presend, r=remote wait; width
	// proportional to time relative to the slowest version.
	var slowest sim.Time
	for _, r := range res.Rows {
		if r.Total() > slowest {
			slowest = r.Total()
		}
	}
	const width = 60
	for _, r := range res.Rows {
		cs := int(float64(r.B.ComputeSynch()) / float64(slowest) * width)
		ps := int(float64(r.B.Presend) / float64(slowest) * width)
		rw := int(float64(r.B.RemoteWait) / float64(slowest) * width)
		fmt.Fprintf(w, "%-26s |%s%s%s\n", r.Label,
			strings.Repeat("#", cs), strings.Repeat("p", ps), strings.Repeat("r", rw))
	}
	fmt.Fprintln(w, "\n  # compute+synch   p predictive protocol (pre-send)   r remote-data wait")
	res.renderPhases(w)
	res.renderAttribution(w)
	if len(res.Notes) > 0 {
		fmt.Fprintln(w)
		for _, n := range res.Notes {
			fmt.Fprintf(w, "  - %s\n", n)
		}
	}
	fmt.Fprintln(w)
}

// renderPhases prints each row's per-phase breakdown: where the time went
// and how much of the communication the pre-send anticipated.
func (res *Result) renderPhases(w io.Writer) {
	any := false
	for _, r := range res.Rows {
		if len(r.Phases) > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	fmt.Fprintf(w, "\nper-phase breakdown (times are per-node averages):\n")
	fmt.Fprintf(w, "  %-26s %-14s %6s %12s %12s %8s %9s %9s\n",
		"version", "phase", "iters", "remote-wait", "presend", "faults", "presends", "hit-rate")
	for _, r := range res.Rows {
		for _, p := range r.Phases {
			hit := "-"
			if p.PresendsIn > 0 {
				hit = fmt.Sprintf("%8.1f%%", 100*p.Coverage())
			}
			fmt.Fprintf(w, "  %-26s %-14s %6d %12v %12v %8d %9d %9s\n",
				r.Label, p.Name, p.Iters,
				sim.Time(p.RemoteWaitNS), sim.Time(p.PresendNS),
				p.Faults(), p.PresendsIn, hit)
		}
	}
}

// renderAttribution prints each profiled row's exact time-attribution
// split (machine-summed causal buckets) plus its critical-path length —
// the paperbench -profile view of the figure sweeps.
func (res *Result) renderAttribution(w io.Writer) {
	any := false
	for _, r := range res.Rows {
		if r.Profile != nil {
			any = true
			break
		}
	}
	if !any {
		return
	}
	fmt.Fprintf(w, "\ncausal attribution (machine-summed, %% of total accounted time):\n")
	fmt.Fprintf(w, "  %-26s %8s %8s %8s %8s %8s %8s %8s %8s %12s\n",
		"version", "compute", "transit", "occup", "service", "barrier", "stall", "presend", "idle", "crit-path")
	for _, r := range res.Rows {
		p := r.Profile
		if p == nil {
			continue
		}
		b := p.MachineBuckets()
		tot := float64(b.Total())
		pc := func(v int64) string {
			if tot == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f%%", 100*float64(v)/tot)
		}
		fmt.Fprintf(w, "  %-26s %8s %8s %8s %8s %8s %8s %8s %8s %12v\n",
			r.Label, pc(b.ComputeNS), pc(b.TransitNS), pc(b.OccupancyNS), pc(b.ServiceNS),
			pc(b.BarrierNS), pc(b.StallNS), pc(b.PresendNS), pc(b.IdleNS), sim.Time(p.Path.LengthNS))
	}
}

// CSV renders the rows as comma-separated values for external plotting.
// A result carrying a predicted-vs-simulated error table renders that
// table instead — it is the experiment's payload.
func (res *Result) CSV(w io.Writer) {
	if res.Error != nil {
		res.Error.WriteCSV(w)
		return
	}
	if res.Curve != nil {
		res.Curve.WriteCSV(w)
		return
	}
	fmt.Fprintln(w, "experiment,version,block_bytes,total_s,remote_wait_s,presend_s,compute_synch_s,read_faults,write_faults,msgs,presends,conflicts")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%s,%s,%d,%.6f,%.6f,%.6f,%.6f,%d,%d,%d,%d,%d\n",
			res.ID, r.Label, r.BlockSize,
			r.B.Elapsed.Seconds(), r.B.RemoteWait.Seconds(), r.B.Presend.Seconds(),
			r.B.ComputeSynch().Seconds(),
			r.C.ReadFaults, r.C.WriteFaults, r.C.MsgsSent, r.C.PresendsSent, r.C.Conflicts)
	}
}

// Experiment is one registered paper artifact.
type Experiment struct {
	ID    string
	Title string
	// Paper states the qualitative claim being reproduced.
	Paper string
	Run   func(o Options) (*Result, error)
}

// RunExperiment executes the experiment with the given options and stamps
// the result with the engine it ran under.
func RunExperiment(e Experiment, o Options) (*Result, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	res, err := e.Run(o)
	if res != nil {
		res.Engine = o.Machine.Engine
	}
	return res, err
}

// RunCSV executes the experiment and returns its rows rendered as CSV
// bytes alongside the result. This is the serving layer's experiment
// payload: CSV bytes are deterministic for a fixed configuration, so a
// run through dsmserve must be byte-identical to an in-process run.
func RunCSV(e Experiment, o Options) ([]byte, *Result, error) {
	res, err := RunExperiment(e, o)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	res.CSV(&buf)
	return buf.Bytes(), res, nil
}

var registry []Experiment

// Register installs an experiment (called from init functions).
func Register(e Experiment) { registry = append(registry, e) }

// All returns registered experiments sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns a registered experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ratio formats a speedup with two decimals.
func ratio(a, b sim.Time) float64 { return float64(a) / float64(b) }
