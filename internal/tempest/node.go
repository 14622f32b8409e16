// Package tempest is the user-level shared-memory substrate of the
// simulated machine, modeled on the Tempest interface that Blizzard
// implemented on the CM-5: fine-grain access control (package memory),
// access faults vectored to user-level protocol handlers, low-level
// messaging between nodes, and the directory bookkeeping shared by the
// coherence protocols built on top (stache, the predictive protocol, and
// the write-update baseline).
//
// Each simulated node runs two sim Procs: a compute processor executing
// application code, and a protocol processor running a message-handler
// loop (Blizzard dispatched protocol handlers from active messages and
// polling; the split models handler occupancy without modeling preemption
// of compute, a second-order effect).
package tempest

import (
	"encoding/binary"
	"fmt"
	"math"

	"presto/internal/blockstate"
	"presto/internal/memory"
	"presto/internal/metrics"
	"presto/internal/network"
	"presto/internal/sim"
	"presto/internal/trace"
)

// Protocol is a user-level cache-coherence protocol in the Tempest sense.
// Implementations keep their per-node state via Node.ProtoState.
type Protocol interface {
	// Name identifies the protocol in reports.
	Name() string
	// Init prepares per-node protocol state; called once per node before
	// the simulation starts.
	Init(n *Node)
	// OnFault runs on n's compute processor after an access fault on
	// block b has been detected and vectored. It either initiates the
	// request that will eventually make the block accessible and wake
	// the compute processor (returning false), or resolves the fault
	// locally without blocking (returning true).
	OnFault(n *Node, b memory.Block, write bool) (resolved bool)
	// Handle runs on n's protocol processor for each arriving message
	// (dispatch overhead has already been charged).
	Handle(n *Node, d sim.Delivery)
}

// PhaseProtocol is implemented by protocols that accept the compiler's
// parallel-phase directives (the predictive protocol).
type PhaseProtocol interface {
	Protocol
	// BeginPhase runs on n's compute processor at a phase directive. It
	// may block (executing the pre-send phase) and returns the virtual
	// time spent pre-sending on this node.
	BeginPhase(n *Node, phase int) sim.Time
	// EndPhase runs on n's compute processor when the parallel phase
	// completes (after the phase's closing barrier).
	EndPhase(n *Node, phase int)
}

// Stats is one node's time breakdown and event counters. The three time
// buckets mirror the paper's figure legends: remote-data wait, predictive
// protocol (pre-send), and compute+synchronization.
type Stats struct {
	Compute    sim.Time // application computation (Advance'd by the app)
	RemoteWait sim.Time // blocked in access faults
	Presend    sim.Time // executing pre-send directives
	Sync       sim.Time // waiting at barriers

	ReadFaults  int64
	WriteFaults int64
	MsgsSent    int64
	BytesSent   int64

	PresendsSent    int64 // blocks pre-sent from this home
	PresendsSkipped int64 // schedule entries skipped (target already had a copy)
	BulkMsgs        int64 // coalesced pre-send messages
	Conflicts       int64 // schedule entries recorded as conflicts

	// CrossMsgs counts messages that left the sender's local fabric: on
	// a clustered machine, messages to another group; on a flat machine,
	// every remote message. The scaling experiments' aggregation ratio
	// guard rides on it.
	CrossMsgs int64

	// Node-leader aggregation conservation (see aggregate.go): AggMsgs
	// counts MsgAgg sent, AggEntriesOut counts bulk entries coalesced
	// into them, AggEntriesIn counts entries this node redistributed as
	// a group leader. Machine-wide, ΣAggEntriesOut == ΣAggEntriesIn at
	// quiescence, exactly (check.Accounting) — the identity that catches
	// a dropped coalesced entry.
	AggMsgs       int64
	AggEntriesOut int64
	AggEntriesIn  int64
}

// Total returns the node's total accounted virtual time.
func (s *Stats) Total() sim.Time { return s.Compute + s.RemoteWait + s.Presend + s.Sync }

// Node is one simulated machine node.
type Node struct {
	ID    int
	AS    *memory.AddressSpace
	Store *memory.Store
	Net   *network.Params
	Proto Protocol
	Dir   *Directory // directory for blocks this node homes

	Compute   *sim.Proc // set by the runtime when the compute Proc spawns
	ProtoProc *sim.Proc
	Peers     []*Node // all nodes, indexed by ID (includes self)

	Stats Stats

	// Compute-processor fault rendezvous.
	waiting   bool
	waitBlock memory.Block

	// sigStash holds application signals that arrived while the compute
	// processor was blocked in a protocol wait.
	sigStash []sim.Delivery

	// pendingUse tracks blocks granted to a fault-waiting compute
	// processor that have not yet been accessed. Protocols defer recalls
	// and invalidations for such blocks until the access completes,
	// which guarantees every grantee makes progress (no migratory
	// livelock). pendingDeferred marks the subset with a protocol action
	// waiting on the use.
	pendingUse      *blockstate.BitTable
	pendingDeferred *blockstate.BitTable

	// ProtoState holds protocol-private per-node state.
	ProtoState any

	// Trace, when non-nil, receives protocol events (ring, JSONL or
	// Chrome backends — see internal/trace).
	Trace trace.Sink

	// Met is the node's metric instrument set (never nil).
	Met *Metrics

	// Rec, when non-nil, records the node's communication schedule for
	// the analytical predictor (rt.Config.Record). Updated only by this
	// node's own processors, which share a lane under the parallel
	// engine, so recording is race-free without synchronization.
	Rec *CommRecord

	// Prof, when non-nil, maps a phase ID (-1 = between phases) to the
	// attribution slot the compute processor's time is charged into. The
	// runtime installs it when causal profiling is on; BeginPhaseMetrics/
	// EndPhaseMetrics switch the compute processor's slot through it.
	Prof func(phase int) *sim.AttrSlot

	// flowSeq counts this node's traced sends. Flow IDs are node-tagged
	// (node ID in the high bits) so they are unique machine-wide without
	// any cross-node shared counter — a requirement for the parallel
	// engine, where nodes trace concurrently.
	flowSeq int64

	// Phase attribution: curPhase points at the per-phase accumulator of
	// the parallel phase the compute processor currently executes (nil
	// between phases).
	curPhase  *metrics.PhaseStats
	phaseID   int
	phaseIter int

	// presendFresh tracks pre-sent blocks installed but not yet consumed
	// by a compute access (schedule hit/accuracy accounting).
	presendFresh *blockstate.BitTable

	// Node-leader aggregation state (see aggregate.go): aggBufs is
	// indexed by destination group, aggDirty lists non-empty groups in
	// first-enqueue order.
	aggOn    bool
	aggBufs  []aggBuf
	aggDirty []int
}

// NewNode constructs a node over the given address space. The runtime
// wires Peers and spawns the Procs.
func NewNode(id int, as *memory.AddressSpace, net *network.Params, proto Protocol) *Node {
	n := &Node{
		ID:              id,
		AS:              as,
		Store:           memory.NewStore(as, id),
		Net:             net,
		Proto:           proto,
		Dir:             NewDirectory(as),
		phaseID:         -1,
		pendingUse:      blockstate.NewBitTable(as),
		pendingDeferred: blockstate.NewBitTable(as),
		presendFresh:    blockstate.NewBitTable(as),
		Met:             new(Metrics),
	}
	return n
}

// BeginPhaseMetrics establishes phase id (0-based iteration iter) as the
// attribution target for faults, wait time and pre-send consumption on
// this node. Called by the runtime at each phase directive.
func (n *Node) BeginPhaseMetrics(id, iter int) {
	ps := n.Met.Phases.Phase(id)
	ps.Iters++
	n.curPhase = ps
	n.phaseID = id
	n.phaseIter = iter
	if n.Prof != nil {
		n.Compute.SetAttrSlot(n.Prof(id))
	}
}

// EndPhaseMetrics leaves the current phase.
func (n *Node) EndPhaseMetrics() {
	n.curPhase = nil
	n.phaseID = -1
	n.phaseIter = 0
	if n.Prof != nil {
		n.Compute.SetAttrSlot(n.Prof(-1))
	}
}

// CurPhase returns the accumulator of the phase the compute processor is
// currently in, or nil between phases.
func (n *Node) CurPhase() *metrics.PhaseStats { return n.curPhase }

// PhaseContext reports the current phase ID (-1 if none) and iteration
// for trace attribution.
func (n *Node) PhaseContext() (phase, iter int) { return n.phaseID, n.phaseIter }

// SetDirState transitions a directory entry's state, counting the
// transition. All protocol state changes route through this so the
// per-node transition matrix is complete.
func (n *Node) SetDirState(e *DirEntry, to DirState) {
	if e.State != to {
		n.Met.Dir[e.State][to].Inc()
	}
	e.State = to
}

// NotePresendArrival records that a pre-sent copy of b was installed at
// this node. When the compute processor is not already fault-waiting on b
// (i.e. the pre-send genuinely arrived early), the block becomes eligible
// for a schedule hit on its first access.
func (n *Node) NotePresendArrival(b memory.Block) {
	n.Met.PresendsIn.Inc()
	if n.curPhase != nil {
		n.curPhase.PresendsIn++
	}
	if n.Rec != nil {
		n.Rec.NotePresend(n.phaseID, b)
	}
	if wb, waiting := n.FaultWaitBlock(); waiting && wb == b {
		n.Met.PresendsRaced.Inc()
		return // raced with a fault: the fault was not averted
	}
	n.Store.Bump() // a fresh mark: a cursor hit would not score it
	if !n.presendFresh.Set(b) {
		// A re-pre-send superseding a still-fresh copy: the earlier
		// install was never consumed, so score it stale — every install
		// must land in exactly one bucket (check.Accounting).
		n.Met.PresendsStale.Inc()
	}
}

// PresendFreshCount reports the pre-sent blocks installed at this node
// that no compute access has consumed yet. At quiescence the exact
// accounting identity PresendsIn == PresendHits + PresendsStale +
// PresendFreshCount must hold (checked by internal/check).
func (n *Node) PresendFreshCount() int { return n.presendFresh.Count() }

// ResetPresendCounters zeroes the node's schedule-hit bookkeeping for
// phase id (all phases when id < 0), including pending unconsumed
// pre-sends. Used when schedules are flushed so hit rates are measured
// from the rebuild onward.
func (n *Node) ResetPresendCounters(id int) {
	if id < 0 {
		for _, ps := range n.Met.Phases.All() {
			ps.ResetHits()
		}
		n.Met.PresendsIn.Set(0)
		n.Met.PresendHits.Set(0)
		n.Met.PresendsStale.Set(0)
		n.Met.PresendsRaced.Set(0)
	} else if ps := n.Met.Phases.Lookup(id); ps != nil {
		ps.ResetHits()
		// The fresh set is not phase-tagged, so a per-phase flush drops
		// every unconsumed pre-send. Account them as stale (wasted) so the
		// node-global exact identity PresendsIn == PresendHits +
		// PresendsStale + PresendFreshCount survives the flush.
		n.Met.PresendsStale.Add(int64(n.presendFresh.Count()))
	}
	n.presendFresh.Reset()
}

// tracedMsg wraps a protocol message with the flow ID that links its
// traced Send event to the Recv event; HandleDelivery unwraps it before
// dispatch. Only used while tracing is enabled.
type tracedMsg struct {
	Msg  Msg
	Flow int64
}

// PayloadBytes implements Msg (wire size is the wrapped message's).
func (t tracedMsg) PayloadBytes() int { return t.Msg.PayloadBytes() }

// Post sends a protocol message from src (the currently running Proc on
// this node) to dst's protocol processor, charging sender occupancy and
// network transit per the cost model. Node-local messages (dst == n) use
// the cheap local path.
func (n *Node) Post(src *sim.Proc, dst *Node, m Msg) {
	kind := KindOf(m)
	n.Met.Sent[kind].Inc()
	payload := m.PayloadBytes()
	var send Msg = m
	if n.Trace != nil {
		n.flowSeq++
		flow := int64(n.ID)<<32 | n.flowSeq
		send = tracedMsg{Msg: m, Flow: flow}
		proc := trace.ProcProto
		if src == n.Compute {
			proc = trace.ProcCompute
		}
		ev := trace.Event{
			At: src.Now(), Node: n.ID, Proc: proc, Kind: trace.Send,
			Phase: n.phaseID, Iter: n.phaseIter, Flow: flow,
			What: fmt.Sprintf("%s -> n%d", MsgString(m), dst.ID),
		}
		src.OnCommit(func() { n.Trace.Record(ev) })
	}
	if dst == n {
		src.AdvanceCat(n.Net.LocalOverhead, sim.CatOccupancy)
		src.Send(n.ProtoProc, send, n.Net.LocalDelay)
		return
	}
	n.Met.MsgPayload.Observe(int64(payload))
	// The *At cost variants apply seeded per-message jitter when the
	// Params enable it (chaos testing); with jitter off they are exactly
	// SendCost/TransitDelayPair. The pair-aware transit rides the cheap
	// intra-group fabric when a clustered interconnect places both nodes
	// in one group; on flat interconnects it is exactly TransitDelay.
	src.AdvanceCat(n.Net.SendCostAt(payload, src.Now(), n.ID, dst.ID), sim.CatOccupancy)
	src.Send(dst.ProtoProc, send, n.Net.TransitDelayPairAt(payload, src.Now(), n.ID, dst.ID))
	n.Stats.MsgsSent++
	n.Stats.BytesSent += int64(payload + n.Net.HeaderBytes)
	if !n.Net.SameGroup(n.ID, dst.ID) {
		n.Stats.CrossMsgs++
	}
}

// MsgString renders a protocol message compactly for traces.
func MsgString(m Msg) string {
	switch v := m.(type) {
	case MsgGetRO:
		return fmt.Sprintf("GetRO(%#x req=%d)", uint64(v.Block), v.Req)
	case MsgGetRW:
		return fmt.Sprintf("GetRW(%#x req=%d)", uint64(v.Block), v.Req)
	case MsgDataRO:
		return fmt.Sprintf("DataRO(%#x p=%v)", uint64(v.Block), v.Presend)
	case MsgDataRW:
		return fmt.Sprintf("DataRW(%#x p=%v)", uint64(v.Block), v.Presend)
	case MsgInval:
		return fmt.Sprintf("Inval(%#x)", uint64(v.Block))
	case MsgInvalAck:
		return fmt.Sprintf("InvalAck(%#x from=%d)", uint64(v.Block), v.From)
	case MsgRecallRO:
		return fmt.Sprintf("RecallRO(%#x)", uint64(v.Block))
	case MsgRecallRW:
		return fmt.Sprintf("RecallRW(%#x)", uint64(v.Block))
	case MsgWriteBack:
		return fmt.Sprintf("WriteBack(%#x from=%d dg=%v)", uint64(v.Block), v.From, v.Downgraded)
	case MsgBulk:
		return fmt.Sprintf("Bulk(%d blocks)", len(v.Entries))
	case MsgAgg:
		k := 0
		for _, part := range v.Parts {
			k += len(part.Bulk.Entries)
		}
		return fmt.Sprintf("Agg(%d parts, %d blocks)", len(v.Parts), k)
	default:
		return fmt.Sprintf("%T", m)
	}
}

// InstallCost returns the modeled receiver-side cost of installing a data
// block (copy into the line plus access-control tag update).
func (n *Node) InstallCost(bytes int) sim.Time {
	return sim.Time(bytes) * n.Net.PerByteSend
}

// WakeCompute releases the compute processor if it is fault-waiting on
// block b. Must be called from the protocol processor.
func (n *Node) WakeCompute(b memory.Block) {
	if n.waiting && n.waitBlock == b {
		n.waiting = false
		n.ProtoProc.Send(n.Compute, MsgWake{Block: b}, n.Net.LocalDelay)
	}
}

// FaultWaitBlock reports the block the compute processor is currently
// fault-waiting on, if any.
func (n *Node) FaultWaitBlock() (memory.Block, bool) { return n.waitBlock, n.waiting }

// fault vectors an access fault on the compute processor p: it charges
// detection cost, invokes the protocol, and blocks until the protocol
// processor wakes it. Time spent is accounted as remote-data wait.
func (n *Node) fault(p *sim.Proc, a memory.Addr, write bool) {
	start := p.Now()
	p.AdvanceCat(n.Net.FaultDetect, sim.CatOccupancy)
	b := n.AS.BlockOf(a)
	if n.Trace != nil {
		ev := trace.Event{
			At: p.Now(), Node: n.ID, Proc: trace.ProcCompute, Kind: trace.Fault,
			Phase: n.phaseID, Iter: n.phaseIter,
			What: fmt.Sprintf("block %#x write=%v", uint64(b), write),
		}
		p.OnCommit(func() { n.Trace.Record(ev) })
	}
	if n.presendFresh.Count() > 0 && n.presendFresh.Clear(b) {
		// A pre-sent copy was installed but invalidated or recalled
		// before the compute processor consumed it: a wasted pre-send.
		n.Met.PresendsStale.Inc()
	}
	n.waiting, n.waitBlock = true, b
	resolved := n.Proto.OnFault(n, b, write)
	if resolved {
		n.waiting = false
	} else {
		p.SetWaitCat(sim.CatStall)
		n.RecvCompute(p, func(m any) bool {
			w, ok := m.(MsgWake)
			return ok && w.Block == b
		})
		p.SetWaitCat(sim.CatIdle)
	}
	dt := p.Now() - start
	n.Stats.RemoteWait += dt
	n.Met.FaultLatency.Observe(int64(dt))
	if n.Rec != nil {
		n.Rec.NoteStall(dt)
	}
	if ps := n.curPhase; ps != nil {
		ps.RemoteWaitNS += int64(dt)
		if write {
			ps.WriteFaults++
		} else {
			ps.ReadFaults++
		}
	}
	if write {
		n.Stats.WriteFaults++
	} else {
		n.Stats.ReadFaults++
	}
}

// ReadRun gives compute processor p read access to a's block: it faults
// into the protocol until the node's tag allows a load of the 8-byte word
// at a, does the first-use bookkeeping (finishUse), and returns the node's
// bytes of the block from a to its end (read-only). It is the one access
// path of every Read* accessor. A hit neither yields nor advances virtual
// time, and after it the block's first-use marks are clear, so loading
// more words of the block from the returned bytes is exactly what loading
// them one by one would do — except on a recording node, which notes every
// word as its own access: there ReadRun returns only the word at a.
func (n *Node) ReadRun(p *sim.Proc, a memory.Addr) []byte {
	if n.Rec != nil {
		n.Rec.NoteAccess(n.phaseID, n.phaseIter, p.Now(), n.AS.BlockOf(a), false)
	}
	for {
		if d := n.Store.LoadRun(a, 8); d != nil {
			n.finishUse(p, a)
			if n.Rec != nil {
				return d[:8]
			}
			return d
		}
		n.fault(p, a, false)
	}
}

// WriteRun is ReadRun for stores: it faults until the tag allows a store,
// and the caller writes the returned bytes.
func (n *Node) WriteRun(p *sim.Proc, a memory.Addr) []byte {
	if n.Rec != nil {
		n.Rec.NoteAccess(n.phaseID, n.phaseIter, p.Now(), n.AS.BlockOf(a), true)
	}
	for {
		if d := n.Store.StoreRun(a, 8); d != nil {
			n.finishUse(p, a)
			if n.Rec != nil {
				return d[:8]
			}
			return d
		}
		n.fault(p, a, true)
	}
}

// Cursor is one read site's memo of the block run its last read returned
// (each lowered cstar read site has its own). It holds while the Store's
// epoch is the one it was filled at. Every tag change and fresh mark moves
// the epoch; a grant's pending use marks only the block being faulted on,
// whose tag change has moved it, and the faulting ReadRun clears the mark
// before it fills a cursor. So a held run's block is readable with its
// marks clear, where ReadRun neither yields nor advances time: loading from
// the run is exact. The zero Cursor is empty.
type Cursor struct {
	base  memory.Addr // the address run starts at
	run   []byte
	epoch uint64
}

// ReadF64At is ReadF64 through the read site's cursor c: an aligned load
// inside c's run while c holds reads the run, and any other load goes
// through ReadRun and refills c. A recording node never fills c, since
// every access it makes must be noted.
func (n *Node) ReadF64At(p *sim.Proc, c *Cursor, a memory.Addr) float64 {
	if off := uint64(a - c.base); off < uint64(len(c.run)) && off&7 == 0 && c.epoch == n.Store.Epoch() {
		return math.Float64frombits(binary.LittleEndian.Uint64(c.run[off:]))
	}
	d := n.ReadRun(p, a)
	if n.Rec == nil {
		c.base, c.run, c.epoch = a, d, n.Store.Epoch()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(d))
}

// finishUse ends every successful access: it clears the first-use marks
// of a's block, if any are set.
func (n *Node) finishUse(p *sim.Proc, a memory.Addr) {
	if n.pendingUse.Count() > 0 || n.presendFresh.Count() > 0 {
		n.finishUseMarks(p, a)
	}
}

// finishUseMarks clears the first-use marks of a's block: a grant's
// pending use, posting MsgUseDone when the protocol deferred an action on
// it, and a pre-sent copy's freshness, scoring a schedule hit.
func (n *Node) finishUseMarks(p *sim.Proc, a memory.Addr) {
	b := n.AS.BlockOf(a)
	if n.pendingUse.Count() > 0 && n.pendingUse.Clear(b) && n.pendingDeferred.Clear(b) {
		n.Post(p, n, MsgUseDone{Block: b})
	}
	if n.presendFresh.Count() > 0 && n.presendFresh.Clear(b) {
		n.Met.PresendHits.Inc()
		if n.curPhase != nil {
			n.curPhase.PresendHits++
		}
	}
}

// ReadF64 performs a shared-memory load of a float64 on compute processor
// p, faulting into the protocol as needed.
func (n *Node) ReadF64(p *sim.Proc, a memory.Addr) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(n.ReadRun(p, a)))
}

// WriteF64 performs a shared-memory store of a float64.
func (n *Node) WriteF64(p *sim.Proc, a memory.Addr, v float64) {
	binary.LittleEndian.PutUint64(n.WriteRun(p, a), math.Float64bits(v))
}

// RMWF64 performs an atomic read-modify-write of a shared float64: it
// first acquires write access (faulting as needed), then applies fn in a
// single non-yielding step, so no other node's write can interleave —
// the shared-memory analogue of a lock-protected update.
func (n *Node) RMWF64(p *sim.Proc, a memory.Addr, fn func(v float64) float64) {
	d := n.WriteRun(p, a)
	v := fn(math.Float64frombits(binary.LittleEndian.Uint64(d)))
	binary.LittleEndian.PutUint64(d, math.Float64bits(v))
}

// ReadU64 performs a shared-memory load of a uint64.
func (n *Node) ReadU64(p *sim.Proc, a memory.Addr) uint64 {
	return binary.LittleEndian.Uint64(n.ReadRun(p, a))
}

// WriteU64 performs a shared-memory store of a uint64.
func (n *Node) WriteU64(p *sim.Proc, a memory.Addr, v uint64) {
	binary.LittleEndian.PutUint64(n.WriteRun(p, a), v)
}

// ReadF64s loads len(dst) consecutive shared float64s starting at a, with
// one access per block the run touches: the same faults, bookkeeping and
// recording as loading them one by one with ReadF64.
func (n *Node) ReadF64s(p *sim.Proc, a memory.Addr, dst []float64) {
	for len(dst) > 0 {
		d := n.ReadRun(p, a)
		k := min(len(dst), len(d)/8)
		for i := range dst[:k] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(d[8*i:]))
		}
		dst, a = dst[k:], a.Add(int64(8*k))
	}
}

// WriteF64s stores src to consecutive shared float64s starting at a, with
// one access per block the run touches, as WriteF64 word by word would.
func (n *Node) WriteF64s(p *sim.Proc, a memory.Addr, src []float64) {
	for len(src) > 0 {
		d := n.WriteRun(p, a)
		k := min(len(src), len(d)/8)
		for i, v := range src[:k] {
			binary.LittleEndian.PutUint64(d[8*i:], math.Float64bits(v))
		}
		src, a = src[k:], a.Add(int64(8*k))
	}
}

// ReadU64s loads len(dst) consecutive shared uint64s starting at a, with
// one access per block the run touches, as ReadU64 word by word would.
func (n *Node) ReadU64s(p *sim.Proc, a memory.Addr, dst []uint64) {
	for len(dst) > 0 {
		k := n.ReadU64sInBlock(p, a, dst)
		dst, a = dst[k:], a.Add(int64(8*k))
	}
}

// ReadU64sInBlock is one access of ReadU64s: it loads consecutive shared
// uint64s from a into dst, stopping at the end of a's block (after one
// word on a recording node), and returns how many it loaded, at least 1;
// dst must not be empty. A caller that would read the rest of the block
// word by word later may take them now only if nothing in between can
// change them.
func (n *Node) ReadU64sInBlock(p *sim.Proc, a memory.Addr, dst []uint64) int {
	d := n.ReadRun(p, a)
	k := min(len(dst), len(d)/8)
	for i := range dst[:k] {
		dst[i] = binary.LittleEndian.Uint64(d[8*i:])
	}
	return k
}

// MarkPendingUse records that the compute processor is about to consume a
// grant for b. Called by protocols when installing data for a
// fault-waiting compute processor.
func (n *Node) MarkPendingUse(b memory.Block) {
	n.pendingUse.Set(b)
}

// PendingUse reports whether a grant for b awaits its first use.
func (n *Node) PendingUse(b memory.Block) bool {
	return n.pendingUse.Has(b)
}

// UseMarks reports b's first-use marks: a grant's pending use, a protocol
// action deferred behind it, and a pre-sent copy's freshness.
func (n *Node) UseMarks(b memory.Block) (use, deferred, fresh bool) {
	return n.pendingUse.Has(b), n.pendingDeferred.Has(b), n.presendFresh.Has(b)
}

// DeferPostUse marks that the protocol owes a post-use action for b. It
// reports false when no use is pending (the caller must act now).
func (n *Node) DeferPostUse(b memory.Block) bool {
	if !n.pendingUse.Has(b) {
		return false
	}
	n.pendingDeferred.Set(b)
	return true
}

// RecvCompute blocks the compute processor until a message satisfying want
// arrives. Application signals (MsgSignal) arriving meanwhile are stashed
// for PopSignal; any other message is a protocol bug.
func (n *Node) RecvCompute(p *sim.Proc, want func(m any) bool) sim.Delivery {
	for {
		d := p.Recv()
		if want(d.Msg) {
			return d
		}
		if _, ok := d.Msg.(MsgSignal); ok {
			n.sigStash = append(n.sigStash, d)
			continue
		}
		panic(fmt.Sprintf("tempest: node %d compute got unexpected %T", n.ID, d.Msg))
	}
}

// PopSignal returns the earliest stashed application signal, if any.
func (n *Node) PopSignal() (sim.Delivery, bool) {
	if len(n.sigStash) == 0 {
		return sim.Delivery{}, false
	}
	d := n.sigStash[0]
	n.sigStash = n.sigStash[1:]
	return d, true
}

// HandleDelivery is the protocol processor's body: one run-to-completion
// dispatch of a message to the protocol. The protocol processor is a
// handler Proc (sim.Kernel.SpawnHandler), so this runs once per delivery.
func (n *Node) HandleDelivery(p *sim.Proc, d sim.Delivery) {
	p.Advance(n.Net.RecvOverheadAt(p.Now(), n.ID))
	var flow int64
	if tm, ok := d.Msg.(tracedMsg); ok {
		d.Msg = tm.Msg
		flow = tm.Flow
	}
	if m, ok := d.Msg.(Msg); ok {
		n.Met.Recv[KindOf(m)].Inc()
		if n.Trace != nil {
			ev := trace.Event{
				At: p.Now(), Node: n.ID, Proc: trace.ProcProto, Kind: trace.Recv,
				Phase: n.phaseID, Iter: n.phaseIter, Flow: flow,
				What: MsgString(m),
			}
			p.OnCommit(func() { n.Trace.Record(ev) })
		}
	}
	if agg, ok := d.Msg.(MsgAgg); ok {
		// Node-leader aggregate: redistribute the parts here; the
		// protocol only ever sees ordinary MsgBulk.
		n.redistributeAgg(p, agg)
	} else {
		n.Proto.Handle(n, d)
	}
	if n.aggOn && len(n.aggDirty) > 0 {
		// The handler is done with bulks still buffered (e.g. gather
		// replies from a request burst): flush now, so no one ever
		// waits on data parked in an idle node's buffer.
		n.FlushAgg(p)
	}
}
