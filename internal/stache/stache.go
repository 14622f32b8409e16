// Package stache implements Blizzard's default coherence protocol: a
// sequentially-consistent, directory-based write-invalidate protocol
// (paper §3.1). Every block has a home node holding the directory entry;
// read faults fetch read-only copies from the home, write faults
// invalidate outstanding copies before granting an exclusive writable
// copy. Producer-consumer transfers therefore cost up to four messages
// (§3.2), which is precisely the overhead the predictive protocol
// (internal/core) attacks.
//
// The implementation mirrors the structure of a Teapot protocol: home-side
// handlers drive a per-block state machine with transient states
// (AwaitAcks, AwaitWB) and a pending-request queue, and cache-side
// handlers respond to invalidations and recalls. Two benign message races
// (an invalidation or recall overtaking the data grant it chases) are
// resolved with cache-side deferral, as the original handlers did with
// NAK/retry.
package stache

import (
	"fmt"

	"presto/internal/blockstate"
	"presto/internal/memory"
	"presto/internal/sim"
	"presto/internal/tempest"
)

// Hooks lets a wrapping protocol observe home-side faulting requests (to
// record communication schedules) and the completion of pre-send-generated
// grants. All methods run on the home node's protocol processor.
type Hooks interface {
	// RecordRead is called when the home node serves a faulting read
	// request for b from node req.
	RecordRead(n *tempest.Node, b memory.Block, req int)
	// RecordWrite is called when the home node serves a faulting write
	// request for b from node req.
	RecordWrite(n *tempest.Node, b memory.Block, req int)
	// PresendOpDone is called when a grant generated by the pre-send walk
	// (rather than by a fault) completes at home node n.
	PresendOpDone(n *tempest.Node, b memory.Block)
}

// Protocol is the Stache write-invalidate protocol. The zero value is not
// usable; call New.
type Protocol struct {
	// Hooks, if non-nil, observes home-side activity (set by the
	// predictive protocol).
	Hooks Hooks

	// Storage selects the block-state backend for per-node deferral
	// bookkeeping (dense paged tables by default; the map reference for
	// the chaos storage oracle). Set before Init.
	Storage blockstate.Kind
}

// New returns a Stache protocol instance shared by all nodes.
func New() *Protocol { return &Protocol{} }

// Name implements tempest.Protocol.
func (s *Protocol) Name() string { return "stache" }

// recallKind records which recall is deferred at a cache node.
type recallKind uint8

const (
	recallNone recallKind = iota
	recallRO
	recallRW
)

// Per-block deferral flags, packed into one byte in NodeState's block
// table. The deferred-recall and post-use-recall kinds each occupy two
// bits (recallNone/RO/RW).
const (
	flagDeferInval   uint8 = 1 << 0 // invalidation arrived before its data: ack on arrival
	flagPostInval    uint8 = 1 << 1 // invalidation owed after the pending use completes
	deferRecallShift       = 2      // bits 2-3: recall arrived before the writable grant
	postRecallShift        = 4      // bits 4-5: recall owed after the pending use completes
	recallBits       uint8 = 0b11
	postUseMask            = flagPostInval | recallBits<<postRecallShift
)

// NodeState is per-node cache-side state. Protocols that extend Stache
// embed it in their own per-node state and expose it via StateHolder.
//
// The three deferral structures of the original implementation
// (deferredInval, deferredRecall, postUse maps) collapse into one packed
// flags byte per block; the table's occupancy bitset doubles as the
// dirty set, so scans touch only blocks with active deferrals.
type NodeState struct {
	// waitWrite is the mode of the compute processor's outstanding fault.
	waitWrite bool
	// flags holds each block's packed deferral record; a block leaves the
	// table the moment its flags return to zero.
	flags blockstate.Store[uint8]
}

// StateHolder is implemented by extending protocols whose per-node state
// embeds Stache's cache-side state.
type StateHolder interface {
	StacheState() *NodeState
}

// NewNodeState returns initialized cache-side state for one node.
func NewNodeState(as *memory.AddressSpace, kind blockstate.Kind) *NodeState {
	return &NodeState{flags: blockstate.New[uint8](as, kind)}
}

// or sets deferral bits for b, materializing its record on first touch.
func (ns *NodeState) or(b memory.Block, bits uint8) {
	v, _ := ns.flags.Ensure(b)
	*v |= bits
}

// take clears the masked deferral bits for b and returns their previous
// value; the record is dropped when no bits remain.
func (ns *NodeState) take(b memory.Block, mask uint8) uint8 {
	v := ns.flags.Get(b)
	if v == nil {
		return 0
	}
	had := *v & mask
	*v &^= mask
	if *v == 0 {
		ns.flags.Remove(b)
	}
	return had
}

// DeferredLen reports the number of blocks with active deferral state
// (zero at quiescence).
func (ns *NodeState) DeferredLen() int { return ns.flags.Len() }

// ForEachDeferred visits blocks with active deferral state in ascending
// block order, passing the packed flags byte (state fingerprinting).
func (ns *NodeState) ForEachDeferred(fn func(b memory.Block, flags uint8)) {
	ns.flags.ForEach(func(b memory.Block, v *uint8) { fn(b, *v) })
}

func state(n *tempest.Node) *NodeState {
	switch v := n.ProtoState.(type) {
	case *NodeState:
		return v
	case StateHolder:
		return v.StacheState()
	}
	panic(fmt.Sprintf("stache: node %d not initialized", n.ID))
}

// StateOf returns the node's Stache cache-side state (for invariant
// checks and fingerprinting); it panics on a non-Stache-derived node.
func StateOf(n *tempest.Node) *NodeState { return state(n) }

// Init implements tempest.Protocol.
func (s *Protocol) Init(n *tempest.Node) {
	n.ProtoState = NewNodeState(n.AS, s.Storage)
}

// OnFault implements tempest.Protocol: send a request to the block's home.
func (s *Protocol) OnFault(n *tempest.Node, b memory.Block, write bool) bool {
	state(n).waitWrite = write
	home := n.Peers[n.AS.HomeOf(b)]
	if write {
		n.Post(n.Compute, home, tempest.MsgGetRW{Block: b, Req: n.ID})
	} else {
		n.Post(n.Compute, home, tempest.MsgGetRO{Block: b, Req: n.ID})
	}
	return false
}

// Handle implements tempest.Protocol.
func (s *Protocol) Handle(n *tempest.Node, d sim.Delivery) {
	switch m := d.Msg.(type) {
	case tempest.MsgGetRO:
		s.HandleGet(n, m.Block, m.Req, false, false)
	case tempest.MsgGetRW:
		s.HandleGet(n, m.Block, m.Req, true, false)
	case tempest.MsgInvalAck:
		s.handleInvalAck(n, m)
	case tempest.MsgWriteBack:
		s.handleWriteBack(n, m)
	case tempest.MsgInval:
		s.handleInval(n, m)
	case tempest.MsgRecallRO:
		s.handleRecall(n, m.Block, recallRO)
	case tempest.MsgRecallRW:
		s.handleRecall(n, m.Block, recallRW)
	case tempest.MsgDataRO:
		s.HandleDataRO(n, m.Block, m.Data, m.Presend)
	case tempest.MsgDataRW:
		s.HandleDataRW(n, m.Block, m.Data, m.Presend)
	case tempest.MsgBulk:
		for _, e := range m.Entries {
			if e.RW {
				s.HandleDataRW(n, e.Block, e.Data, m.Presend)
			} else {
				s.HandleDataRO(n, e.Block, e.Data, m.Presend)
			}
		}
		if m.Notify {
			n.ProtoProc.Send(n.Compute, tempest.MsgGatherDone{}, n.Net.LocalDelay)
		}
		// Every entry is installed; recycle the sender's pooled buffer.
		tempest.PutBulkEntries(m.Entries)
	case tempest.MsgGetBulk:
		s.handleGetBulk(n, m)
	case tempest.MsgUseDone:
		s.handleUseDone(n, m.Block)
	default:
		panic(fmt.Sprintf("stache: node %d: unexpected message %T", n.ID, d.Msg))
	}
}

// HandleGet processes a read/write request for block b from node req at
// the home node n. presend marks requests synthesized by the pre-send walk
// (no fault recording; completion reported through Hooks.PresendOpDone).
// Exported for reuse by the predictive protocol's pre-send walk.
func (s *Protocol) HandleGet(n *tempest.Node, b memory.Block, req int, write, presend bool) {
	e := n.Dir.Entry(b)
	switch e.State {
	case tempest.DirHome:
		if write && req != n.ID && n.PendingUse(b) {
			// The home's compute processor holds a fresh, not-yet-used
			// local grant; queue the remote write until it is consumed.
			n.DeferPostUse(b)
			if !presend && s.Hooks != nil {
				s.Hooks.RecordWrite(n, b, req)
			}
			n.Dir.PushPending(e, tempest.PendReq{Req: req, Write: write, Presend: presend})
			return
		}
		if !write {
			if req == n.ID {
				// Local read request for a valid home copy (a writeback
				// raced ahead, or a drained pre-send entry whose recall
				// completed). Wake if still waiting.
				n.WakeCompute(b)
				if presend && s.Hooks != nil {
					s.Hooks.PresendOpDone(n, b)
				}
				return
			}
			if e.Sharers.Has(req) {
				// A read-only copy is already in flight to req
				// (pre-send raced with the fault); drop.
				if presend && s.Hooks != nil {
					n.Stats.PresendsSkipped++
					s.Hooks.PresendOpDone(n, b)
				}
				return
			}
			if !presend && s.Hooks != nil {
				s.Hooks.RecordRead(n, b, req)
			}
			s.grantRO(n, e, b, req, presend)
			return
		}
		if !presend && s.Hooks != nil {
			s.Hooks.RecordWrite(n, b, req)
		}
		// Clone: the invalidation walk below mutates this snapshot and
		// clears e.Sharers, which must not affect each other.
		others := e.Sharers.Clone()
		others.Remove(req)
		if others.Empty() {
			s.grantRW(n, e, b, req, presend)
			return
		}
		// Invalidate outstanding read-only copies, then grant.
		n.SetDirState(e, tempest.DirAwaitAcks)
		e.AcksLeft = others.Count()
		e.Grantee = req
		e.GranteeWrite = true
		e.GranteePresend = presend
		e.Sharers.Clear()
		others.ForEach(func(sh int) {
			n.Post(n.ProtoProc, n.Peers[sh], tempest.MsgInval{Block: b})
		})

	case tempest.DirRemoteExcl:
		if e.Owner == req {
			// The grant is in flight to req (pre-send raced with the
			// fault); the arriving data satisfies any access. Drop.
			if presend && s.Hooks != nil {
				n.Stats.PresendsSkipped++
				s.Hooks.PresendOpDone(n, b)
			}
			return
		}
		if !presend && s.Hooks != nil {
			if write {
				s.Hooks.RecordWrite(n, b, req)
			} else {
				s.Hooks.RecordRead(n, b, req)
			}
		}
		n.Dir.PushPending(e, tempest.PendReq{Req: req, Write: write, Presend: presend})
		owner := n.Peers[e.Owner]
		n.SetDirState(e, tempest.DirAwaitWB)
		if write {
			n.Post(n.ProtoProc, owner, tempest.MsgRecallRW{Block: b})
		} else {
			n.Post(n.ProtoProc, owner, tempest.MsgRecallRO{Block: b})
		}

	case tempest.DirAwaitAcks, tempest.DirAwaitWB:
		if e.State == tempest.DirAwaitAcks && e.Grantee == req {
			// Grant already pending for req; the data will satisfy the
			// fault when it arrives. Drop.
			if presend && s.Hooks != nil {
				n.Stats.PresendsSkipped++
				s.Hooks.PresendOpDone(n, b)
			}
			return
		}
		if !presend && s.Hooks != nil {
			if write {
				s.Hooks.RecordWrite(n, b, req)
			} else {
				s.Hooks.RecordRead(n, b, req)
			}
		}
		n.Dir.PushPending(e, tempest.PendReq{Req: req, Write: write, Presend: presend})
	}
}

// handleGetBulk serves an inspector-executor gather: ship read-only
// copies of every requested home-valid block in one bulk message,
// registering the requester as a sharer. Blocks in other states are
// skipped — the requester falls back to ordinary faulting reads for them.
func (s *Protocol) handleGetBulk(n *tempest.Node, m tempest.MsgGetBulk) {
	entries := tempest.GetBulkEntries()
	for _, b := range m.Blocks {
		e := n.Dir.Entry(b)
		if e.State != tempest.DirHome || e.Sharers.Has(m.Req) {
			continue
		}
		if n.Store.Tag(b) == memory.ReadWrite {
			n.Store.SetTag(b, memory.ReadOnly)
		}
		e.Sharers.Add(m.Req)
		entries = append(entries, tempest.BulkEntry{
			Block: b,
			Data:  append([]byte(nil), n.Store.Data(b)...),
		})
	}
	// PostBulk lets node-leader aggregation batch replies owed to one
	// remote group when several gathers arrive back-to-back; the
	// protocol loop's idle flush sends them before this processor
	// blocks again, so the requester is never left waiting.
	n.PostBulk(n.ProtoProc, n.Peers[m.Req], tempest.MsgBulk{Entries: entries, Notify: true})
}

// grantRO sends a read-only copy of b to req (home state must be valid).
func (s *Protocol) grantRO(n *tempest.Node, e *tempest.DirEntry, b memory.Block, req int, presend bool) {
	if req == n.ID {
		// Home's own queued read request: the home copy is valid again.
		if _, waiting := n.FaultWaitBlock(); waiting {
			if wb, _ := n.FaultWaitBlock(); wb == b {
				n.MarkPendingUse(b)
			}
		}
		n.WakeCompute(b)
		if presend && s.Hooks != nil {
			s.Hooks.PresendOpDone(n, b)
		}
		return
	}
	if n.Store.Tag(b) == memory.ReadWrite {
		n.Store.SetTag(b, memory.ReadOnly)
	}
	e.Sharers.Add(req)
	data := append([]byte(nil), n.Store.Data(b)...)
	n.Post(n.ProtoProc, n.Peers[req], tempest.MsgDataRO{Block: b, Data: data, Presend: presend})
	if presend {
		n.Stats.PresendsSent++
		if s.Hooks != nil {
			s.Hooks.PresendOpDone(n, b)
		}
	}
}

// grantRW transfers exclusive ownership of b to req.
func (s *Protocol) grantRW(n *tempest.Node, e *tempest.DirEntry, b memory.Block, req int, presend bool) {
	e.Sharers.Clear()
	if req == n.ID {
		n.Store.SetTag(b, memory.ReadWrite)
		n.SetDirState(e, tempest.DirHome)
		e.Owner = -1
		if wb, waiting := n.FaultWaitBlock(); waiting && wb == b {
			n.MarkPendingUse(b)
		}
		n.WakeCompute(b)
		if presend && s.Hooks != nil {
			s.Hooks.PresendOpDone(n, b)
		}
		return
	}
	data := append([]byte(nil), n.Store.Data(b)...)
	n.Store.SetTag(b, memory.Invalid)
	n.SetDirState(e, tempest.DirRemoteExcl)
	e.Owner = req
	n.Post(n.ProtoProc, n.Peers[req], tempest.MsgDataRW{Block: b, Data: data, Presend: presend})
	if presend {
		n.Stats.PresendsSent++
		if s.Hooks != nil {
			s.Hooks.PresendOpDone(n, b)
		}
	}
}

func (s *Protocol) handleInvalAck(n *tempest.Node, m tempest.MsgInvalAck) {
	e := n.Dir.Entry(m.Block)
	if e.State != tempest.DirAwaitAcks || e.AcksLeft <= 0 {
		panic(fmt.Sprintf("stache: node %d: unexpected InvalAck for %#x in %v", n.ID, uint64(m.Block), e.State))
	}
	e.AcksLeft--
	if e.AcksLeft > 0 {
		return
	}
	s.grantRW(n, e, m.Block, e.Grantee, e.GranteePresend)
	s.DrainPending(n, m.Block)
}

func (s *Protocol) handleWriteBack(n *tempest.Node, m tempest.MsgWriteBack) {
	e := n.Dir.Entry(m.Block)
	if e.State != tempest.DirAwaitWB {
		panic(fmt.Sprintf("stache: node %d: unexpected WriteBack for %#x in %v", n.ID, uint64(m.Block), e.State))
	}
	tag := memory.ReadWrite
	e.Sharers.Clear()
	if m.Downgraded {
		tag = memory.ReadOnly
		e.Sharers.Add(m.From)
	}
	n.ProtoProc.Advance(n.InstallCost(len(m.Data)))
	n.Store.Install(m.Block, m.Data, tag)
	n.SetDirState(e, tempest.DirHome)
	e.Owner = -1
	s.DrainPending(n, m.Block)
}

// DrainPending serves queued requests for b after a transaction completes.
// Requests are served while the entry is home-valid; if a grant hands the
// block to a remote owner with requests still queued, the next request
// immediately starts the follow-up recall (deep migratory queues occur in
// lock-style read-modify-write storms).
func (s *Protocol) DrainPending(n *tempest.Node, b memory.Block) {
	e := n.Dir.Entry(b)
	for e.PendingLen() > 0 {
		switch e.State {
		case tempest.DirHome, tempest.DirRemoteExcl:
			before := e.PendingLen()
			pr, _ := n.Dir.PopPending(e)
			// Under DirHome this grants (possibly transitioning to
			// RemoteExcl, after which the next iteration starts the
			// follow-up recall); under DirRemoteExcl it re-queues pr
			// behind the recall it sends (AwaitWB ends the loop).
			s.HandleGet(n, b, pr.Req, pr.Write, pr.Presend)
			if e.State == tempest.DirHome && e.PendingLen() >= before {
				// No progress (e.g. re-queued behind the home's own
				// pending use); stop until the blocker resolves.
				return
			}
		default:
			return // transient; completion will drain again
		}
	}
}

// handleInval runs at a sharer: drop the read-only copy and acknowledge.
func (s *Protocol) handleInval(n *tempest.Node, m tempest.MsgInval) {
	if n.DeferPostUse(m.Block) {
		// A fresh grant for this block awaits its first use; honor the
		// invalidation right after (progress guarantee).
		state(n).or(m.Block, flagPostInval)
		return
	}
	l := n.Store.Line(m.Block)
	if l == nil || l.Tag == memory.Invalid {
		// The data this invalidation chases has not arrived yet; defer
		// the acknowledgement until it does.
		state(n).or(m.Block, flagDeferInval)
		return
	}
	n.Store.SetTag(m.Block, memory.Invalid)
	home := n.Peers[n.AS.HomeOf(m.Block)]
	n.Post(n.ProtoProc, home, tempest.MsgInvalAck{Block: m.Block, From: n.ID})
}

// handleRecall runs at the exclusive owner: return data to the home,
// downgrading (RO) or invalidating (RW) the local copy.
func (s *Protocol) handleRecall(n *tempest.Node, b memory.Block, kind recallKind) {
	if n.DeferPostUse(b) {
		// A fresh grant awaits its first use; recall right after.
		state(n).or(b, uint8(kind)<<postRecallShift)
		return
	}
	l := n.Store.Line(b)
	if l == nil || l.Tag != memory.ReadWrite {
		// The writable grant is still in flight; defer.
		state(n).or(b, uint8(kind)<<deferRecallShift)
		return
	}
	s.writeBack(n, b, kind)
}

// handleUseDone performs coherence actions deferred behind a pending use,
// and serves home-side requests queued behind the home's own local grant.
func (s *Protocol) handleUseDone(n *tempest.Node, b memory.Block) {
	ns := state(n)
	if pu := ns.take(b, postUseMask); pu != 0 {
		if pu&flagPostInval != 0 {
			l := n.Store.Line(b)
			if l == nil || l.Tag != memory.ReadOnly {
				panic(fmt.Sprintf("stache: node %d: post-use inval finds tag %v for %#x", n.ID, n.Store.Tag(b), uint64(b)))
			}
			n.Store.SetTag(b, memory.Invalid)
			home := n.Peers[n.AS.HomeOf(b)]
			n.Post(n.ProtoProc, home, tempest.MsgInvalAck{Block: b, From: n.ID})
		}
		if kind := recallKind(pu >> postRecallShift & recallBits); kind != recallNone {
			l := n.Store.Line(b)
			if l == nil || l.Tag != memory.ReadWrite {
				panic(fmt.Sprintf("stache: node %d: post-use recall finds tag %v for %#x", n.ID, n.Store.Tag(b), uint64(b)))
			}
			s.writeBack(n, b, kind)
		}
	}
	if n.AS.HomeOf(b) == n.ID {
		s.DrainPending(n, b)
	}
}

// writeBack answers a recall of the node's writable copy of b: it
// downgrades (RO) or invalidates (RW) the copy and returns its data home.
func (s *Protocol) writeBack(n *tempest.Node, b memory.Block, kind recallKind) {
	data := append([]byte(nil), n.Store.Data(b)...)
	if kind == recallRO {
		n.Store.SetTag(b, memory.ReadOnly)
	} else {
		n.Store.SetTag(b, memory.Invalid)
	}
	s.postWriteBack(n, b, data, kind)
}

// postWriteBack sends data, the node's private copy of b's current
// contents, home as the answer to a recall of kind.
func (s *Protocol) postWriteBack(n *tempest.Node, b memory.Block, data []byte, kind recallKind) {
	home := n.Peers[n.AS.HomeOf(b)]
	n.Post(n.ProtoProc, home, tempest.MsgWriteBack{
		Block: b, Data: data, From: n.ID, Downgraded: kind == recallRO,
	})
}

// HandleDataRO installs an arriving read-only copy (fault reply or
// pre-send) and wakes the compute processor if it waits on this block.
// presend marks copies generated by the pre-send walk (schedule
// hit/accuracy accounting). Exported for reuse by protocols that share
// Stache's cache side.
func (s *Protocol) HandleDataRO(n *tempest.Node, b memory.Block, data []byte, presend bool) {
	ns := state(n)
	if presend {
		n.NotePresendArrival(b)
	}
	if ns.take(b, flagDeferInval) != 0 {
		if wb, waiting := n.FaultWaitBlock(); waiting && wb == b && !ns.waitWrite {
			// The invalidation overtook this grant while the compute
			// processor waits to read it: install, let that one access
			// complete, then honor the invalidation (progress
			// guarantee).
			n.Store.Install(b, data, memory.ReadOnly)
			n.MarkPendingUse(b)
			n.DeferPostUse(b)
			ns.or(b, flagPostInval)
			n.WakeCompute(b)
			return
		}
		// Nobody local needs this copy (pre-send, or the waiter wants
		// write access): acknowledge, drop the data, and re-issue the
		// compute processor's request if one is outstanding.
		home := n.Peers[n.AS.HomeOf(b)]
		n.Post(n.ProtoProc, home, tempest.MsgInvalAck{Block: b, From: n.ID})
		s.reRequest(n, b)
		return
	}
	if l := n.Store.Line(b); l != nil && l.Tag == memory.ReadWrite {
		panic(fmt.Sprintf("stache: node %d: DataRO for writable block %#x", n.ID, uint64(b)))
	}
	n.ProtoProc.Advance(n.InstallCost(len(data)))
	n.Store.Install(b, data, memory.ReadOnly)
	if wb, waiting := n.FaultWaitBlock(); waiting && wb == b {
		n.MarkPendingUse(b)
	}
	n.WakeCompute(b)
}

// HandleDataRW installs an arriving exclusive copy.
func (s *Protocol) HandleDataRW(n *tempest.Node, b memory.Block, data []byte, presend bool) {
	ns := state(n)
	if presend {
		n.NotePresendArrival(b)
	}
	if k := ns.take(b, recallBits<<deferRecallShift); k != 0 {
		kind := recallKind(k >> deferRecallShift)
		if wb, waiting := n.FaultWaitBlock(); waiting && wb == b {
			// The recall overtook this grant while the compute processor
			// waits for it: install, let that one access complete, then
			// honor the recall (progress guarantee).
			n.Store.Install(b, data, memory.ReadWrite)
			n.MarkPendingUse(b)
			n.DeferPostUse(b)
			ns.or(b, uint8(kind)<<postRecallShift)
			n.WakeCompute(b)
			return
		}
		// No local waiter (pre-send grant): satisfy the recall with the
		// arriving (current) data without installing.
		s.postWriteBack(n, b, append([]byte(nil), data...), kind)
		if kind == recallRO {
			n.Store.Install(b, data, memory.ReadOnly)
		}
		return
	}
	n.ProtoProc.Advance(n.InstallCost(len(data)))
	n.Store.Install(b, data, memory.ReadWrite)
	if wb, waiting := n.FaultWaitBlock(); waiting && wb == b {
		n.MarkPendingUse(b)
	}
	n.WakeCompute(b)
}

// reRequest re-issues the compute processor's outstanding fault request
// after a deferred invalidation/recall consumed the original grant.
func (s *Protocol) reRequest(n *tempest.Node, b memory.Block) {
	wb, waiting := n.FaultWaitBlock()
	if !waiting || wb != b {
		return
	}
	home := n.Peers[n.AS.HomeOf(b)]
	if state(n).waitWrite {
		n.Post(n.ProtoProc, home, tempest.MsgGetRW{Block: b, Req: n.ID})
	} else {
		n.Post(n.ProtoProc, home, tempest.MsgGetRO{Block: b, Req: n.ID})
	}
}
