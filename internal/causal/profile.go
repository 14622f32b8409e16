package causal

import (
	"fmt"
	"io"
	"sort"

	"presto/internal/sim"
)

// SchemaVersion identifies the profile.json layout. Consumers (the
// future internal/predict) must check it before parsing.
const SchemaVersion = "presto-profile/1"

// Buckets is the exact time-attribution breakdown: every simulated
// nanosecond of a processor's timeline lands in exactly one bucket, so
// Total() equals the processor's final virtual clock (Validate checks
// this invariant).
type Buckets struct {
	ComputeNS   int64 `json:"compute_ns"`
	TransitNS   int64 `json:"transit_ns"`
	OccupancyNS int64 `json:"occupancy_ns"`
	ServiceNS   int64 `json:"service_ns"`
	BarrierNS   int64 `json:"barrier_ns"`
	StallNS     int64 `json:"stall_ns"`
	PresendNS   int64 `json:"presend_ns"`
	IdleNS      int64 `json:"idle_ns"`
}

// FromSlot converts a kernel attribution slot into schema buckets.
func FromSlot(s *sim.AttrSlot) Buckets {
	return Buckets{
		ComputeNS:   int64(s[sim.CatCompute]),
		TransitNS:   int64(s[sim.CatTransit]),
		OccupancyNS: int64(s[sim.CatOccupancy]),
		ServiceNS:   int64(s[sim.CatService]),
		BarrierNS:   int64(s[sim.CatBarrier]),
		StallNS:     int64(s[sim.CatStall]),
		PresendNS:   int64(s[sim.CatPresend]),
		IdleNS:      int64(s[sim.CatIdle]),
	}
}

// Total sums the buckets.
func (b Buckets) Total() int64 {
	return b.ComputeNS + b.TransitNS + b.OccupancyNS + b.ServiceNS +
		b.BarrierNS + b.StallNS + b.PresendNS + b.IdleNS
}

// Add accumulates o into b.
func (b *Buckets) Add(o Buckets) {
	b.ComputeNS += o.ComputeNS
	b.TransitNS += o.TransitNS
	b.OccupancyNS += o.OccupancyNS
	b.ServiceNS += o.ServiceNS
	b.BarrierNS += o.BarrierNS
	b.StallNS += o.StallNS
	b.PresendNS += o.PresendNS
	b.IdleNS += o.IdleNS
}

// each iterates the buckets in schema order with their labels.
func (b Buckets) each(fn func(label string, ns int64)) {
	fn("compute", b.ComputeNS)
	fn("transit", b.TransitNS)
	fn("occupancy", b.OccupancyNS)
	fn("service", b.ServiceNS)
	fn("barrier", b.BarrierNS)
	fn("stall", b.StallNS)
	fn("presend", b.PresendNS)
	fn("idle", b.IdleNS)
}

// PhaseAttr is one compute processor's attribution within one parallel
// phase (-1 collects time outside any phase).
type PhaseAttr struct {
	Phase   int     `json:"phase"`
	Name    string  `json:"name,omitempty"`
	Buckets Buckets `json:"buckets"`
}

// NodeProfile is one node's attribution: the compute processor's full
// timeline (TotalNS, split per phase) and the protocol processor's own
// timeline, reported separately — protocol service overlaps compute-side
// waits, so folding it in would double-count.
type NodeProfile struct {
	Node         int         `json:"node"`
	TotalNS      int64       `json:"total_ns"`
	Buckets      Buckets     `json:"buckets"`
	Phases       []PhaseAttr `json:"phases"`
	ProtoTotalNS int64       `json:"proto_total_ns"`
	Proto        Buckets     `json:"proto"`
}

// SegmentJSON is one critical-path segment in the artifact.
type SegmentJSON struct {
	Proc    string `json:"proc"`
	Kind    string `json:"kind"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// PathProfile condenses the critical path for the artifact: aggregates
// plus the longest segments (the full path can run to thousands of
// segments; TopSegments keeps the artifact bounded).
type PathProfile struct {
	LengthNS    int64            `json:"length_ns"`
	Truncated   bool             `json:"truncated,omitempty"`
	Segments    int              `json:"segments"`
	ByKindNS    map[string]int64 `json:"by_kind_ns"`
	ByProcNS    map[string]int64 `json:"by_proc_ns"`
	TopSegments []SegmentJSON    `json:"top_segments"`
}

// EngineProfile is the parallel engine's flight data. Window counts and
// histograms are deterministic; the *WallNS timers are wall-clock and
// vary run to run (they never feed fingerprints or goldens).
type EngineProfile struct {
	Workers int `json:"workers"`
	// Lanes is the engine's lane count.
	Lanes int `json:"lanes,omitempty"`
	// LookaheadNS is the executed window width: the narrowest row of the
	// lane-pair lookahead matrix.
	LookaheadNS   int64   `json:"lookahead_ns"`
	Windows       int64   `json:"windows"`
	Events        int64   `json:"events"`
	SoloWindows   int64   `json:"solo_windows"`
	MergedWindows int64   `json:"merged_windows"`
	Steals        int64   `json:"steals"`
	LaneHist      []int64 `json:"lane_hist"`
	EventHist     []int64 `json:"event_hist"`
	OpenWallNS    int64   `json:"open_wall_ns"`
	ExecWallNS    int64   `json:"exec_wall_ns"`
	CommitWallNS  int64   `json:"commit_wall_ns"`
}

// Profile is the profile.json artifact (see DESIGN.md §10 for the full
// schema contract).
type Profile struct {
	Schema    string         `json:"schema"`
	App       string         `json:"app,omitempty"`
	Protocol  string         `json:"protocol"`
	Nodes     int            `json:"nodes"`
	BlockSize int            `json:"block_size"`
	Engine    string         `json:"engine"`
	ElapsedNS int64          `json:"elapsed_ns"`
	PerNode   []NodeProfile  `json:"per_node"`
	Path      PathProfile    `json:"critical_path"`
	Flight    *EngineProfile `json:"engine_flight,omitempty"`
}

// TopSegments returns the n longest segments of a path, ties broken by
// start time, converted to the artifact form.
func TopSegments(p Path, n int) []SegmentJSON {
	segs := append([]Segment(nil), p.Segments...)
	sort.Slice(segs, func(i, j int) bool {
		if d1, d2 := segs[i].Dur(), segs[j].Dur(); d1 != d2 {
			return d1 > d2
		}
		return segs[i].Start < segs[j].Start
	})
	if len(segs) > n {
		segs = segs[:n]
	}
	out := make([]SegmentJSON, len(segs))
	for i, s := range segs {
		out[i] = SegmentJSON{Proc: s.Name, Kind: s.Kind, StartNS: int64(s.Start), EndNS: int64(s.End)}
	}
	return out
}

// PathProfileOf condenses a computed path, keeping the top segments.
func PathProfileOf(p Path, top int) PathProfile {
	out := PathProfile{
		LengthNS:    int64(p.Length),
		Truncated:   p.Truncated,
		Segments:    len(p.Segments),
		ByKindNS:    map[string]int64{},
		ByProcNS:    map[string]int64{},
		TopSegments: TopSegments(p, top),
	}
	for k, v := range p.ByKind() {
		out.ByKindNS[k] = int64(v)
	}
	for k, v := range p.ByProc() {
		out.ByProcNS[k] = int64(v)
	}
	return out
}

// Validate checks the profile's internal invariants:
//   - schema version matches
//   - per node, the bucket sum equals the compute processor's total
//     simulated time exactly, and the per-phase buckets sum to the
//     node buckets category by category
//   - the protocol processor's buckets sum to its total
//   - on serial runs, the critical-path length equals the end-to-end
//     elapsed time (unless the recorder ring truncated the walk)
func (p *Profile) Validate() error {
	if p.Schema != SchemaVersion {
		return fmt.Errorf("profile: schema %q, want %q", p.Schema, SchemaVersion)
	}
	for _, n := range p.PerNode {
		if got := n.Buckets.Total(); got != n.TotalNS {
			return fmt.Errorf("profile: node %d buckets sum %d != total %d", n.Node, got, n.TotalNS)
		}
		var phased Buckets
		for _, ph := range n.Phases {
			phased.Add(ph.Buckets)
		}
		if phased != n.Buckets {
			return fmt.Errorf("profile: node %d phase buckets %+v != node buckets %+v", n.Node, phased, n.Buckets)
		}
		if got := n.Proto.Total(); got != n.ProtoTotalNS {
			return fmt.Errorf("profile: node %d proto buckets sum %d != total %d", n.Node, got, n.ProtoTotalNS)
		}
	}
	if p.Engine == "serial" && !p.Path.Truncated && p.Path.LengthNS != p.ElapsedNS {
		return fmt.Errorf("profile: critical-path length %d != elapsed %d", p.Path.LengthNS, p.ElapsedNS)
	}
	return nil
}

// MachineBuckets sums the per-node compute-processor buckets.
func (p *Profile) MachineBuckets() Buckets {
	var b Buckets
	for _, n := range p.PerNode {
		b.Add(n.Buckets)
	}
	return b
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// Render writes the human-readable profile report: machine attribution,
// per-phase table, top critical-path segments, and (parallel runs) the
// engine flight summary.
func (p *Profile) Render(w io.Writer) {
	fmt.Fprintf(w, "causal profile: %s protocol=%s nodes=%d block=%d engine=%s\n",
		orDefault(p.App, "?"), p.Protocol, p.Nodes, p.BlockSize, p.Engine)
	fmt.Fprintf(w, "elapsed %v\n\n", sim.Time(p.ElapsedNS))

	total := p.MachineBuckets()
	grand := total.Total()
	fmt.Fprintf(w, "time attribution (all compute processors, %v):\n", sim.Time(grand))
	total.each(func(label string, ns int64) {
		if ns == 0 {
			return
		}
		fmt.Fprintf(w, "  %-10s %14v  %5.1f%%\n", label, sim.Time(ns), pct(ns, grand))
	})

	// Per-phase table: aggregate each phase over nodes.
	type phaseRow struct {
		phase int
		name  string
		b     Buckets
	}
	agg := map[int]*phaseRow{}
	for _, n := range p.PerNode {
		for _, ph := range n.Phases {
			r := agg[ph.Phase]
			if r == nil {
				r = &phaseRow{phase: ph.Phase, name: ph.Name}
				agg[ph.Phase] = r
			}
			r.b.Add(ph.Buckets)
		}
	}
	rows := make([]*phaseRow, 0, len(agg))
	for _, r := range agg {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].phase < rows[j].phase })
	if len(rows) > 0 {
		fmt.Fprintf(w, "\nper-phase attribution (node-summed ns):\n")
		fmt.Fprintf(w, "  %-16s %12s %12s %12s %12s %12s %12s %12s %12s\n",
			"phase", "compute", "transit", "occupancy", "service", "barrier", "stall", "presend", "idle")
		for _, r := range rows {
			name := r.name
			if name == "" {
				if r.phase < 0 {
					name = "(outside)"
				} else {
					name = fmt.Sprintf("phase %d", r.phase)
				}
			}
			fmt.Fprintf(w, "  %-16s %12d %12d %12d %12d %12d %12d %12d %12d\n",
				name, r.b.ComputeNS, r.b.TransitNS, r.b.OccupancyNS, r.b.ServiceNS,
				r.b.BarrierNS, r.b.StallNS, r.b.PresendNS, r.b.IdleNS)
		}
	}

	fmt.Fprintf(w, "\ncritical path: %v over %d segments", sim.Time(p.Path.LengthNS), p.Path.Segments)
	if p.Path.Truncated {
		fmt.Fprintf(w, " (TRUNCATED: recorder ring wrapped)")
	}
	fmt.Fprintln(w)
	kinds := make([]string, 0, len(p.Path.ByKindNS))
	for k := range p.Path.ByKindNS {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  on %-8s %14v  %5.1f%%\n", k, sim.Time(p.Path.ByKindNS[k]), pct(p.Path.ByKindNS[k], p.Path.LengthNS))
	}
	if len(p.Path.TopSegments) > 0 {
		fmt.Fprintf(w, "  top segments:\n")
		n := len(p.Path.TopSegments)
		if n > 10 {
			n = 10
		}
		for _, s := range p.Path.TopSegments[:n] {
			fmt.Fprintf(w, "    %-10s %-8s %14v  [%v .. %v]\n",
				s.Proc, s.Kind, sim.Time(s.EndNS-s.StartNS), sim.Time(s.StartNS), sim.Time(s.EndNS))
		}
	}

	if f := p.Flight; f != nil {
		fmt.Fprintf(w, "\nparallel engine: %d windows, %d events (%.1f events/window), %d solo-lane windows (%.1f%%)\n",
			f.Windows, f.Events, avg(f.Events, f.Windows), f.SoloWindows, pct(f.SoloWindows, f.Windows))
		if f.Lanes > 0 {
			fmt.Fprintf(w, "  %d lanes, lookahead %v; %d merged-commit windows (%.1f%%), %d steals\n",
				f.Lanes, sim.Time(f.LookaheadNS),
				f.MergedWindows, pct(f.MergedWindows, f.Windows), f.Steals)
		}
		fmt.Fprintf(w, "  active lanes per window:")
		for i, c := range f.LaneHist {
			if c != 0 {
				fmt.Fprintf(w, " %d:%d", i+1, c)
			}
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  wall clock: open %v, exec %v, commit %v\n",
			sim.Time(f.OpenWallNS), sim.Time(f.ExecWallNS), sim.Time(f.CommitWallNS))
	}
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func avg(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
