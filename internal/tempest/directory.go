package tempest

import (
	"fmt"

	"presto/internal/blockstate"
	"presto/internal/memory"
)

// DirState is the home-node directory state of a block.
type DirState uint8

const (
	// DirHome: the home copy is valid; Sharers lists remote read-only
	// copies (possibly none). This is the initial state of every block.
	DirHome DirState = iota
	// DirRemoteExcl: a single remote Owner holds the only (writable)
	// copy; the home copy is stale.
	DirRemoteExcl
	// DirAwaitAcks: invalidations are outstanding; when AcksLeft reaches
	// zero the pending writable grant is issued.
	DirAwaitAcks
	// DirAwaitWB: a recall is outstanding; the transaction resumes when
	// the owner's MsgWriteBack arrives.
	DirAwaitWB
)

func (s DirState) String() string {
	switch s {
	case DirHome:
		return "Home"
	case DirRemoteExcl:
		return "RemoteExcl"
	case DirAwaitAcks:
		return "AwaitAcks"
	case DirAwaitWB:
		return "AwaitWB"
	}
	return fmt.Sprintf("DirState(%d)", uint8(s))
}

// PendReq is a request queued at the home node while a block's directory
// entry is in a transient state.
type PendReq struct {
	Req     int
	Write   bool
	Presend bool // generated by the pre-send walk, not by a fault
}

// pendQueue is a FIFO ring of queued requests. Its buffer comes from the
// owning Directory's slab and returns there when the queue drains, so
// steady-state protocol churn stops allocating per transient entry.
type pendQueue struct {
	buf  []PendReq
	head int
	n    int
}

// DirEntry is the home node's bookkeeping for one block. Transient states
// carry the in-progress transaction (the complexity Teapot managed in the
// original protocol implementations).
type DirEntry struct {
	State   DirState
	Sharers Bitset // remote nodes holding read-only copies
	Owner   int    // exclusive owner when State == DirRemoteExcl

	// Transaction in progress (AwaitAcks / AwaitWB).
	AcksLeft       int
	Grantee        int
	GranteeWrite   bool
	GranteePresend bool

	// Requests queued behind the in-progress transaction. Change it
	// only through Directory.PushPending/PopPending (slab-managed).
	pend pendQueue
}

// PendingLen returns the number of queued requests.
func (e *DirEntry) PendingLen() int { return e.pend.n }

// ForEachPending visits queued requests in FIFO order.
func (e *DirEntry) ForEachPending(fn func(r PendReq)) {
	for i := 0; i < e.pend.n; i++ {
		fn(e.pend.buf[(e.pend.head+i)%len(e.pend.buf)])
	}
}

// pendSlabCap sizes slab buffers: queues deeper than this (every other
// node piled behind one transaction) grow privately and bypass the slab.
const pendSlabCap = 8

// pendSlab recycles drained pending-queue buffers across the directory's
// entries.
type pendSlab struct {
	free [][]PendReq
}

func (s *pendSlab) get() []PendReq {
	if n := len(s.free); n > 0 {
		buf := s.free[n-1]
		s.free = s.free[:n-1]
		return buf
	}
	return make([]PendReq, pendSlabCap)
}

func (s *pendSlab) put(buf []PendReq) {
	if cap(buf) == pendSlabCap {
		s.free = append(s.free, buf[:pendSlabCap])
	}
}

// Directory holds entries for the blocks a node homes, stored inline in a
// dense paged table indexed by BlockIndex. Blocks without an entry are
// implicitly DirHome with no sharers (home-exclusive), which is every
// block's state before its first remote access.
type Directory struct {
	tab  blockstate.Store[DirEntry]
	slab pendSlab
}

// NewDirectory returns an empty directory over the given address space,
// backed by the dense paged table.
func NewDirectory(as *memory.AddressSpace) *Directory {
	return &Directory{tab: blockstate.NewPaged[DirEntry](as)}
}

// NewDirectoryRef returns an empty directory backed by the map-based
// reference store (consulted by the chaos storage oracle).
func NewDirectoryRef(as *memory.AddressSpace) *Directory {
	return &Directory{tab: blockstate.NewHash[DirEntry]()}
}

// Entry returns the entry for block b, materializing the implicit
// home-exclusive entry on first use.
func (d *Directory) Entry(b memory.Block) *DirEntry {
	e, created := d.tab.Ensure(b)
	if created {
		e.State = DirHome
		e.Owner = -1
	}
	return e
}

// Lookup returns the entry for b, or nil if the block has never seen a
// remote access.
func (d *Directory) Lookup(b memory.Block) *DirEntry { return d.tab.Get(b) }

// Len reports the number of materialized entries.
func (d *Directory) Len() int { return d.tab.Len() }

// ForEach visits every materialized entry in ascending block order
// (deterministic for both backends; no caller-side sort needed).
func (d *Directory) ForEach(fn func(b memory.Block, e *DirEntry)) {
	d.tab.ForEach(fn)
}

// PushPending appends a request to e's queue, drawing buffer space from
// the directory's slab.
func (d *Directory) PushPending(e *DirEntry, r PendReq) {
	q := &e.pend
	if q.buf == nil {
		q.buf = d.slab.get()
	}
	if q.n == len(q.buf) {
		grown := make([]PendReq, 2*len(q.buf))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		d.slab.put(q.buf)
		q.buf = grown
		q.head = 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = r
	q.n++
}

// PopPending dequeues the oldest request; ok is false on an empty queue.
// A drained queue's buffer returns to the slab.
func (d *Directory) PopPending(e *DirEntry) (r PendReq, ok bool) {
	q := &e.pend
	if q.n == 0 {
		return PendReq{}, false
	}
	r = q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	if q.n == 0 {
		d.slab.put(q.buf)
		*q = pendQueue{}
	}
	return r, true
}
