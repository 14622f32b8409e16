// Package rt is the data-parallel runtime of the simulated machine: it
// plays the role C**'s runtime system played on Blizzard. It builds a
// machine of N nodes (each with a compute and a protocol processor),
// distributes aggregate data over the shared address space (block,
// row-block and tiled distributions, paper §4.1), executes SPMD programs
// with compiler-placed parallel-phase directives, and accounts each node's
// execution time into the paper's three buckets: remote-data wait,
// predictive-protocol (pre-send), and compute+synchronization.
package rt

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"

	"presto/internal/blockstate"
	"presto/internal/core"
	"presto/internal/memory"
	"presto/internal/metrics"
	"presto/internal/network"
	"presto/internal/sim"
	"presto/internal/stache"
	"presto/internal/tempest"
	"presto/internal/trace"
	"presto/internal/update"
)

// ProtocolKind selects the coherence protocol a machine runs.
type ProtocolKind string

const (
	// ProtoStache is the default write-invalidate protocol (the paper's
	// unoptimized configuration).
	ProtoStache ProtocolKind = "stache"
	// ProtoPredictive is the paper's predictive protocol.
	ProtoPredictive ProtocolKind = "predictive"
	// ProtoUpdate is the write-update protocol used by the hand-optimized
	// SPMD baseline (Falsafi et al.).
	ProtoUpdate ProtocolKind = "update"
)

// EngineKind selects how the simulation kernel executes events.
type EngineKind string

const (
	// EngineSerial is the classic single-threaded event loop.
	EngineSerial EngineKind = "serial"
	// EngineParallel runs nodes concurrently inside conservative time
	// windows bounded by the interconnect's minimum latency, committing
	// results in serial event order — output is byte-identical to
	// EngineSerial.
	EngineParallel EngineKind = "parallel"
)

// SchedKind selects the kernel's pending-event scheduler.
type SchedKind string

const (
	// SchedWheel is the timing-wheel scheduler (default). The bucket width
	// is the interconnect's minimum cross-node latency, aligning one
	// conservative lookahead window with O(1) buckets.
	SchedWheel SchedKind = "wheel"
	// SchedHeap is the binary-heap reference scheduler, a test oracle —
	// output is byte-identical to SchedWheel.
	SchedHeap SchedKind = "heap"
)

// Config describes one machine configuration. It is the run spec: the
// CLIs, the harness, the chaos oracle and the service all describe a run
// by filling one of these. Sched and Storage select reference oracles
// and are set by Go tests only — no flag or service field reaches them.
type Config struct {
	// Nodes is the processor count (the paper used 32).
	Nodes int
	// BlockSize is the cache-block size in bytes (32–1024 in the paper).
	BlockSize int
	// Protocol selects the coherence protocol (default ProtoStache).
	Protocol ProtocolKind
	// Net overrides the interconnect cost model (default network.CM5).
	Net *network.Params
	// NoCoalesce disables pre-send bulk coalescing (ablation).
	NoCoalesce bool
	// Aggregate enables node-leader message aggregation on clustered
	// interconnects: cross-group bulk traffic (pre-send grants, update
	// pushes, gather replies) destined for one remote group is coalesced
	// into a single leader-to-leader message and redistributed over the
	// cheap intra-group fabric (tempest/aggregate.go). Timing-visible
	// but memory-invariant; a no-op on flat interconnects.
	Aggregate bool
	// AnticipateConflicts enables the conflict-anticipation extension.
	AnticipateConflicts bool
	// Sink, when non-nil, receives every node's protocol trace events: a
	// bounded trace.Ring (whose tail check.Machine attaches to violations),
	// a JSONL stream or a Chrome trace_event exporter (internal/trace).
	Sink trace.Sink
	// MaxEvents, when positive, bounds simulation events (livelock guard).
	MaxEvents int64
	// FlushEvery, when positive, makes the predictive protocol rebuild
	// each phase schedule every FlushEvery-th pre-send (deletion-heavy
	// patterns, paper §3.3).
	FlushEvery int
	// Engine selects the kernel execution strategy (default EngineSerial).
	Engine EngineKind
	// Workers caps the worker goroutines of the parallel engine. 0 means
	// auto: GOMAXPROCS clamped to the machine's lane count. Negative
	// values and, under EngineParallel, values beyond the lane count are
	// configuration errors (Validate reports them).
	Workers int
	// Sched selects the kernel's pending-event scheduler (default
	// SchedWheel). SchedHeap is the reference heap the differential tests
	// compare against; results are byte-identical either way.
	Sched SchedKind
	// Storage selects the block-state backend for directories, protocol
	// deferral state and schedules: blockstate.Dense (default) uses paged
	// tables indexed by block index; blockstate.MapRef keeps the map-based
	// reference implementation for differential testing.
	Storage blockstate.Kind
	// Profile enables the causal profiler: the kernel's flight recorder
	// records every binding wake, every processor's simulated time is
	// attributed into exact categories, and Machine.Profile assembles the
	// critical path and attribution report after the run. Simulated
	// results (fingerprints, metrics, goldens) are identical either way.
	Profile bool
	// Record attaches a communication recorder (tempest.CommRecord) to
	// every node for the analytical predictor (internal/predict): each
	// node's shared accesses, sliced into (phase, iteration) episodes as
	// they are recorded at about 8 bytes an access, plus its pre-send
	// arrivals. Observation only: simulated results are identical either
	// way.
	Record bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Nodes == 0 {
		out.Nodes = 32
	}
	if out.BlockSize == 0 {
		out.BlockSize = 32
	}
	if out.Protocol == "" {
		out.Protocol = ProtoStache
	}
	if out.Net == nil {
		out.Net = network.CM5()
	}
	if out.Engine == "" {
		out.Engine = EngineSerial
	}
	if out.Sched == "" {
		out.Sched = SchedWheel
	}
	return out
}

// Validate reports a configuration the machine cannot run: an unknown
// protocol, engine, scheduler or storage backend, a block size or node
// count out of range, bad interconnect parameters, or a worker count the
// engine cannot honor. The CLIs and the service call it on
// outside input so a bad value is one error line, not a panic in New;
// Run calls it before anything is spawned, because a configuration error
// past that point would strand the compute processors' goroutines.
//
// A zero Nodes marks a template whose machine size is picked later (a
// harness experiment sizes each row): the checks that relate the node
// count to the interconnect and the worker count then wait for Run.
func (c Config) Validate() error {
	sized := c.Nodes != 0
	c = c.withDefaults()
	if _, err := ParseProtocol(string(c.Protocol)); err != nil {
		return err
	}
	if _, err := ParseEngine(string(c.Engine)); err != nil {
		return err
	}
	if c.Sched != SchedWheel && c.Sched != SchedHeap {
		return fmt.Errorf("rt: unknown scheduler %q", c.Sched)
	}
	if c.Storage != "" && c.Storage != blockstate.Dense && c.Storage != blockstate.MapRef {
		return fmt.Errorf("rt: unknown storage backend %q", c.Storage)
	}
	if c.BlockSize < 16 || c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("rt: block size %d must be a power of two >= 16", c.BlockSize)
	}
	if c.Nodes < 1 || c.Nodes > network.MaxNodes {
		return fmt.Errorf("rt: node count %d out of range [1,%d]", c.Nodes, network.MaxNodes)
	}
	if c.Workers < 0 {
		return fmt.Errorf("rt: negative worker count %d (0 means auto)", c.Workers)
	}
	if err := c.Net.Validate(); err != nil {
		return fmt.Errorf("rt: bad interconnect parameters: %w", err)
	}
	if !sized {
		return nil
	}
	gsize := c.laneSize()
	if c.Nodes%gsize != 0 {
		return fmt.Errorf("rt: %d nodes do not tile into groups of %d", c.Nodes, gsize)
	}
	if want := c.Net.ExpectNodes(); want != 0 && c.Nodes != want {
		return fmt.Errorf("rt: interconnect describes %d nodes, machine has %d", want, c.Nodes)
	}
	// Workers execute lanes, so a surplus could never run.
	if lanes := c.Lanes(); c.Engine == EngineParallel && c.Workers > lanes {
		return fmt.Errorf("rt: %d workers exceed the machine's %d lanes (workers execute lanes; use 0 for auto)", c.Workers, lanes)
	}
	return nil
}

// laneSize is the number of nodes that share one parallel-engine lane,
// the unit of concurrent execution. On a flat interconnect each node is a
// lane: a node's compute and protocol processors share state (Store, Dir,
// Stats, metrics), so they must execute on the same lane. On a clustered
// interconnect the lane is a whole node group — coarsening to the
// interconnect partition makes every lane pair cross-group, so the pair
// lookahead matrix bounds windows by the (large) top-level transit
// instead of the intra-group minimum.
func (c *Config) laneSize() int {
	if c.Net.Clustered() {
		return c.Net.GroupSize
	}
	return 1
}

// Lanes is the parallel engine's lane count for this configuration — the
// most workers it can use.
func (c Config) Lanes() int {
	c = c.withDefaults()
	return c.Nodes / c.laneSize()
}

// Machine is one simulated DSM machine instance. Allocate aggregates
// first, then call Run exactly once.
type Machine struct {
	Cfg    Config
	Kernel *sim.Kernel
	AS     *memory.AddressSpace
	Proto  tempest.Protocol
	Nodes  []*tempest.Node

	barrier *sim.Barrier
	// paddedStride maps block-padded array regions to their element
	// stride (see PaddedStride).
	paddedStride map[int]int64
	redBufs      [2][]float64
	combBufs     [][]float64
	ends         []sim.Time
	ran          bool
	phaseNames   map[int]string
	prof         []*nodeProf
	workers      int
	lanes        int
	lookahead    sim.Time // executed window width (parallel engine)
	hashPages    []uint64 // HashMemory's scratch: held page keys
}

// New builds a machine for the given configuration.
func New(cfg Config) *Machine {
	c := cfg.withDefaults()
	m := &Machine{
		Cfg:        c,
		Kernel:     sim.NewKernel(),
		AS:         memory.NewAddressSpace(c.Nodes, c.BlockSize),
		phaseNames: make(map[int]string),
	}
	switch c.Protocol {
	case ProtoStache:
		s := stache.New()
		s.Storage = c.Storage
		m.Proto = s
	case ProtoPredictive:
		p := core.New()
		p.Storage = c.Storage
		p.Coalesce = !c.NoCoalesce
		p.AnticipateConflicts = c.AnticipateConflicts
		p.FlushEvery = c.FlushEvery
		m.Proto = p
	case ProtoUpdate:
		u := update.New()
		u.Storage = c.Storage
		m.Proto = u
	default:
		panic(fmt.Sprintf("rt: unknown protocol %q", c.Protocol))
	}
	m.barrier = m.Kernel.NewBarrier(c.Nodes, c.Net.BarrierLatency)
	return m
}

// Program is the SPMD body run by every node's compute processor.
type Program func(w *Worker)

// Run builds the nodes over the allocated regions, spawns the protocol
// and compute processors, and runs the simulation to completion.
func (m *Machine) Run(prog Program) error {
	if m.ran {
		return fmt.Errorf("rt: machine already ran")
	}
	m.ran = true
	c := m.Cfg
	if err := c.Validate(); err != nil {
		return err
	}
	gsize := c.laneSize()
	if c.Engine == EngineParallel {
		m.lanes = c.Lanes()
		m.workers = c.Workers
		if m.workers == 0 {
			m.workers = min(runtime.GOMAXPROCS(0), m.lanes)
		}
	}
	if c.Sched == SchedHeap {
		m.Kernel.UseScheduler(sim.SchedHeap, 0, 0)
	} else {
		// Size the wheel to the machine: two processors per node can keep
		// roughly that many events in flight, so a 1024-node burst stays
		// on the O(1) bucket path instead of thrashing the overflow heap.
		m.Kernel.UseScheduler(sim.SchedWheel, c.Net.MinLatency(), 2*c.Nodes)
	}
	m.Kernel.MaxEvents = c.MaxEvents
	m.Nodes = make([]*tempest.Node, c.Nodes)
	for i := 0; i < c.Nodes; i++ {
		n := tempest.NewNode(i, m.AS, c.Net, m.Proto)
		if c.Storage == blockstate.MapRef {
			n.Dir = tempest.NewDirectoryRef(m.AS)
		}
		n.Trace = c.Sink
		if c.Record {
			n.Rec = tempest.NewCommRecord()
		}
		m.Nodes[i] = n
	}
	for _, n := range m.Nodes {
		n.Peers = m.Nodes
		m.Proto.Init(n)
		if c.Aggregate {
			n.EnableAggregation()
		}
	}
	if c.Profile {
		m.Kernel.EnableRecorder(sim.DefaultRecorderCap)
		m.prof = make([]*nodeProf, c.Nodes)
		for i := range m.prof {
			m.prof[i] = &nodeProf{}
		}
	}
	for _, n := range m.Nodes {
		n := n
		n.ProtoProc = m.Kernel.SpawnHandler(fmt.Sprintf("proto%d", n.ID), n.HandleDelivery)
		if m.prof != nil {
			// The protocol processor's whole timeline lands in the node's
			// proto slot; its on-CPU time is protocol service by definition.
			n.ProtoProc.SetRunCat(sim.CatService)
			n.ProtoProc.SetAttrSlot(&m.prof[n.ID].proto)
		}
	}
	m.redBufs[0] = make([]float64, c.Nodes)
	m.redBufs[1] = make([]float64, c.Nodes)
	m.combBufs = make([][]float64, c.Nodes)
	m.ends = make([]sim.Time, c.Nodes)
	for _, n := range m.Nodes {
		n := n
		w := &Worker{M: m, Node: n, ID: n.ID}
		n.Compute = m.Kernel.Spawn(fmt.Sprintf("compute%d", n.ID), func(p *sim.Proc) {
			w.P = p
			prog(w)
			m.ends[n.ID] = p.Now()
		})
		if m.prof != nil {
			np := m.prof[n.ID]
			n.Compute.SetAttrSlot(np.slot(-1))
			n.Prof = np.slot
		}
	}
	if c.Engine == EngineSerial {
		return m.Kernel.Run()
	}
	// Spawn order is protos 0..N-1 then computes N..2N-1, so ID mod Nodes
	// maps both of node i's procs to node i, and dividing by the group size
	// folds a group's nodes onto one lane.
	pcfg := sim.ParallelConfig{
		Workers: m.workers,
		Lanes:   m.lanes,
		LaneOf:  func(p *sim.Proc) int { return (p.ID() % c.Nodes) / gsize },
	}
	if m.lanes == 1 {
		// One lane has no cross-lane hazards; any positive window is
		// conservative. The barrier cost is a comfortably wide one.
		pcfg.Lookahead = c.Net.BarrierLatency
		m.lookahead = pcfg.Lookahead
	} else {
		pcfg.PairLookahead = func(i, j int) sim.Time {
			return c.Net.PairMinLatency(i*gsize, j*gsize)
		}
		// The executed width is the matrix's narrowest row. Every lane
		// pair of a clustered machine crosses groups (uniform cost); on a
		// flat one the matrix collapses to the global minimum.
		if c.Net.Clustered() {
			m.lookahead = c.Net.PairMinLatency(0, gsize)
		} else {
			m.lookahead = c.Net.MinLatency()
		}
	}
	return m.Kernel.RunParallel(pcfg)
}

// Elapsed returns the machine's execution time: the latest compute
// processor completion across nodes.
func (m *Machine) Elapsed() sim.Time {
	var max sim.Time
	for _, e := range m.ends {
		if e > max {
			max = e
		}
	}
	return max
}

// Breakdown is the machine-level execution-time decomposition used by the
// paper's figures. Bucket values are averages over nodes, so a balanced
// run's buckets sum to roughly Elapsed.
type Breakdown struct {
	Elapsed    sim.Time
	Compute    sim.Time
	RemoteWait sim.Time
	Presend    sim.Time
	Sync       sim.Time
}

// ComputeSynch returns the combined compute+synchronization bucket
// (the paper's figures merge these).
func (b Breakdown) ComputeSynch() sim.Time { return b.Compute + b.Sync }

// Breakdown aggregates per-node stats into the figure buckets.
func (m *Machine) Breakdown() Breakdown {
	var b Breakdown
	for _, n := range m.Nodes {
		b.Compute += n.Stats.Compute
		b.RemoteWait += n.Stats.RemoteWait
		b.Presend += n.Stats.Presend
		b.Sync += n.Stats.Sync
	}
	nn := sim.Time(len(m.Nodes))
	if nn > 0 {
		b.Compute /= nn
		b.RemoteWait /= nn
		b.Presend /= nn
		b.Sync /= nn
	}
	b.Elapsed = m.Elapsed()
	return b
}

// Counters aggregates protocol event counters across nodes.
type Counters struct {
	ReadFaults, WriteFaults       int64
	MsgsSent, BytesSent           int64
	PresendsSent, PresendsSkipped int64
	BulkMsgs, Conflicts           int64
	// CrossMsgs counts messages that left the sender's local fabric
	// (another group on a clustered machine; any remote node on a flat
	// one) — the traffic node-leader aggregation attacks.
	CrossMsgs int64
	// AggMsgs counts leader-to-leader aggregates; AggEntriesOut/In are
	// the coalesced-entry conservation pair (equal at quiescence).
	AggMsgs, AggEntriesOut, AggEntriesIn int64
}

// Counters sums the per-node counters.
func (m *Machine) Counters() Counters {
	var c Counters
	for _, n := range m.Nodes {
		c.ReadFaults += n.Stats.ReadFaults
		c.WriteFaults += n.Stats.WriteFaults
		c.MsgsSent += n.Stats.MsgsSent
		c.BytesSent += n.Stats.BytesSent
		c.PresendsSent += n.Stats.PresendsSent
		c.PresendsSkipped += n.Stats.PresendsSkipped
		c.BulkMsgs += n.Stats.BulkMsgs
		c.Conflicts += n.Stats.Conflicts
		c.CrossMsgs += n.Stats.CrossMsgs
		c.AggMsgs += n.Stats.AggMsgs
		c.AggEntriesOut += n.Stats.AggEntriesOut
		c.AggEntriesIn += n.Stats.AggEntriesIn
	}
	return c
}

// PerNode returns each node's time breakdown (imbalance analysis: the
// paper notes Adaptive's shared-data wait is distributed unevenly, §5.1).
func (m *Machine) PerNode() []Breakdown {
	out := make([]Breakdown, len(m.Nodes))
	for i, n := range m.Nodes {
		out[i] = Breakdown{
			Elapsed:    m.ends[i],
			Compute:    n.Stats.Compute,
			RemoteWait: n.Stats.RemoteWait,
			Presend:    n.Stats.Presend,
			Sync:       n.Stats.Sync,
		}
	}
	return out
}

// NamePhase attaches a human-readable name to a parallel-phase ID, used by
// trace spans and the per-phase breakdown. Call before Run.
func (m *Machine) NamePhase(id int, name string) {
	m.phaseNames[id] = name
}

// PhaseName returns the registered name for a phase, or "phase <id>".
func (m *Machine) PhaseName(id int) string {
	if s, ok := m.phaseNames[id]; ok {
		return s
	}
	return fmt.Sprintf("phase %d", id)
}

// PhaseStat is the machine-level per-phase breakdown: times are averages
// over nodes (like Breakdown), event counts are sums.
type PhaseStat struct {
	Phase int    `json:"phase"`
	Name  string `json:"name"`
	// Iters is the executions of the phase directive per node.
	Iters int64 `json:"iters"`
	// Per-node average times (virtual ns).
	ComputeNS    int64 `json:"compute_ns"`
	RemoteWaitNS int64 `json:"remote_wait_ns"`
	PresendNS    int64 `json:"presend_ns"`
	SyncNS       int64 `json:"sync_ns"`
	// Machine-wide event sums.
	ReadFaults  int64 `json:"read_faults"`
	WriteFaults int64 `json:"write_faults"`
	PresendsIn  int64 `json:"presends_in"`
	PresendHits int64 `json:"presend_hits"`
}

// Faults is the phase's total access faults.
func (p PhaseStat) Faults() int64 { return p.ReadFaults + p.WriteFaults }

// Coverage is the fraction of would-be faults the pre-send averted:
// hits / (hits + faults). Zero when the phase had no remote accesses.
func (p PhaseStat) Coverage() float64 {
	d := p.PresendHits + p.Faults()
	if d == 0 {
		return 0
	}
	return float64(p.PresendHits) / float64(d)
}

// Accuracy is the fraction of pre-sent blocks actually consumed:
// hits / presends-received. Zero when nothing was pre-sent.
func (p PhaseStat) Accuracy() float64 {
	if p.PresendsIn == 0 {
		return 0
	}
	return float64(p.PresendHits) / float64(p.PresendsIn)
}

// PhaseBreakdown aggregates every node's per-phase stats, sorted by phase
// ID. Iters is per-node (they agree under SPMD execution).
func (m *Machine) PhaseBreakdown() []PhaseStat {
	agg := make(map[int]*PhaseStat)
	for _, n := range m.Nodes {
		for _, ps := range n.Met.Phases.All() {
			a := agg[ps.Phase]
			if a == nil {
				a = &PhaseStat{Phase: ps.Phase, Name: m.PhaseName(ps.Phase)}
				agg[ps.Phase] = a
			}
			if ps.Iters > a.Iters {
				a.Iters = ps.Iters
			}
			a.ComputeNS += ps.ComputeNS
			a.RemoteWaitNS += ps.RemoteWaitNS
			a.PresendNS += ps.PresendNS
			a.SyncNS += ps.SyncNS
			a.ReadFaults += ps.ReadFaults
			a.WriteFaults += ps.WriteFaults
			a.PresendsIn += ps.PresendsIn
			a.PresendHits += ps.PresendHits
		}
	}
	out := make([]PhaseStat, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Phase < out[j].Phase })
	nn := int64(len(m.Nodes))
	if nn > 0 {
		for i := range out {
			out[i].ComputeNS /= nn
			out[i].RemoteWaitNS /= nn
			out[i].PresendNS /= nn
			out[i].SyncNS /= nn
		}
	}
	return out
}

// MetricsReport is the machine's full post-run metrics export
// (dsmrun -metrics).
type MetricsReport struct {
	Protocol  string            `json:"protocol"`
	Nodes     int               `json:"nodes"`
	BlockSize int               `json:"block_size"`
	ElapsedNS int64             `json:"elapsed_ns"`
	Breakdown Breakdown         `json:"breakdown"`
	Counters  Counters          `json:"counters"`
	Phases    []PhaseStat       `json:"phases"`
	Kernel    sim.KernelStats   `json:"kernel"`
	Registry  *metrics.Snapshot `json:"registry"`
	// Exec carries host- and engine-dependent execution facts. It is NOT
	// filled by Report — the deterministic body above must stay
	// byte-identical across engines and hosts — callers that want it
	// (dsmrun -metrics) attach Machine.ExecInfo() explicitly.
	Exec *ExecInfo `json:"exec,omitempty"`
}

// ExecInfo describes how the engine actually executed a run: effective
// worker and lane counts plus host shape. These facts vary across hosts
// and engine configurations while the simulated results do not, so they
// are kept out of Report's deterministic body.
type ExecInfo struct {
	Engine     string `json:"engine"`
	Workers    int    `json:"workers,omitempty"`
	Lanes      int    `json:"lanes,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// ExecInfo reports the engine execution facts for the completed run.
func (m *Machine) ExecInfo() *ExecInfo {
	e := &ExecInfo{
		Engine:     string(m.Cfg.Engine),
		Workers:    m.workers,
		Lanes:      m.lanes,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if e.Engine == "" {
		e.Engine = string(EngineSerial)
	}
	return e
}

// Report assembles the metrics export. Call after Run.
func (m *Machine) Report() MetricsReport {
	return MetricsReport{
		Protocol:  string(m.Cfg.Protocol),
		Nodes:     m.Cfg.Nodes,
		BlockSize: m.Cfg.BlockSize,
		ElapsedNS: int64(m.Elapsed()),
		Breakdown: m.Breakdown(),
		Counters:  m.Counters(),
		Phases:    m.PhaseBreakdown(),
		Kernel:    m.Kernel.Stats(),
		Registry:  m.registry(),
	}
}

// registry renders every node's instruments, each under its "nNN/"
// prefix, in name order.
func (m *Machine) registry() *metrics.Snapshot {
	s := &metrics.Snapshot{}
	for _, n := range m.Nodes {
		n.Met.AppendTo(s, n.ID)
	}
	s.Sort()
	return s
}

// SnapshotBlock returns the authoritative contents of the block
// containing a after the run completes: the home node's copy, or the
// exclusive owner's when the directory records one (validation only — not
// part of the simulated execution). The result is read-only: a block no
// node ever touched is the address space's shared zero block, which the
// snapshot does not materialize.
func (m *Machine) SnapshotBlock(a memory.Addr) []byte {
	b := m.AS.BlockOf(a)
	home := m.Nodes[m.AS.HomeOf(a)]
	src := home.Store
	if e := home.Dir.Lookup(b); e != nil && e.State == tempest.DirRemoteExcl {
		src = m.Nodes[e.Owner].Store
	}
	_, data := src.Peek(b)
	if data == nil {
		panic(fmt.Sprintf("rt: snapshot of absent block %#x", uint64(b)))
	}
	return data
}

// SnapshotF64 reads a shared value after the run completes, consulting the
// directory to find the node holding the current copy (validation only —
// not part of the simulated execution).
func (m *Machine) SnapshotF64(a memory.Addr) float64 {
	data := m.SnapshotBlock(a)
	off := a.Offset() & int64(m.Cfg.BlockSize-1)
	return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
}

// FNV-1a parameters of HashMemory.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	fnvPrime8 = 0x1efac7090aef4a21 // fnvPrime^8 mod 2^64: the fold of a zero word
)

// HashMemory folds the authoritative contents of every allocated region
// into one 64-bit FNV-1a hash. For a deterministic program whose writes do
// not depend on racy read values, the hash is protocol-independent — the
// chaos subsystem's differential oracle compares it across coherence
// protocols ("same program, same final memory").
//
// The hash is exactly the byte-wise fold, computed without visiting what
// is known to be zero. A zero byte folds as h·p (the XOR changes nothing),
// so k zero bytes fold as one multiply by p^k. A line-table page that no
// node's Store holds is all zero: with no line anywhere there is no
// exclusive owner, and its home reads the shared zero block. So the walk
// gathers the pages any node holds, once, in address order, folds each
// held page block by block (each zero word as one multiply) and each gap
// between held pages as one power of p. Nothing is materialized, and
// after a machine's first hash nothing is allocated.
func (m *Machine) HashMemory() uint64 {
	held := m.hashPages[:0]
	for _, n := range m.Nodes {
		held = n.Store.AppendPageKeys(held)
	}
	slices.Sort(held)
	held = slices.Compact(held)
	m.hashPages = held

	h := uint64(fnvOffset)
	bs := int64(m.Cfg.BlockSize)
	for _, r := range m.AS.Regions() {
		nb, next := r.NumBlocks(), int64(0)
		for ; len(held) > 0; held = held[1:] {
			b := m.AS.PageFirst(held[0])
			if b.RegionID() != r.ID {
				break
			}
			first := m.AS.BlockIndex(b)
			h *= fnvPow((first - next) * bs)
			next = min(first+memory.PageBlocks, nb)
			for idx := first; idx < next; idx++ {
				h = fnvFold(h, m.SnapshotBlock(r.BlockAt(idx)))
			}
		}
		h *= fnvPow((nb - next) * bs)
	}
	return h
}

// fnvPow returns fnvPrime^k mod 2^64: the fold of k zero bytes.
func fnvPow(k int64) uint64 {
	r, b := uint64(1), uint64(fnvPrime)
	for ; k > 0; k >>= 1 {
		if k&1 != 0 {
			r *= b
		}
		b *= b
	}
	return r
}

// fnvFold folds data (a whole number of 8-byte words) into h byte by
// byte, each zero word as one multiply.
func fnvFold(h uint64, data []byte) uint64 {
	for i := 0; i+8 <= len(data); i += 8 {
		w := binary.LittleEndian.Uint64(data[i:])
		if w == 0 {
			h *= fnvPrime8
			continue
		}
		for j := 0; j < 8; j++ {
			h = (h ^ w&0xff) * fnvPrime
			w >>= 8
		}
	}
	return h
}
