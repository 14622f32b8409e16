package tempest

import (
	"math"

	"presto/internal/memory"
	"presto/internal/sim"
)

// GapEscape in SliceAcc.Gap marks a gap of 2³²−1 or more: its value is
// the slice's next Big entry.
const GapEscape = math.MaxUint32

// SliceAcc is one shared-memory access (load, store or RMW) of a Slice:
// Gap is the compressed time since the slice's previous access (0 for its
// first; GapEscape if Big holds it), and Ref is the node-local block index (into
// CommRecord.Blocks) <<1 | 1 if the access needed write access.
type SliceAcc struct{ Gap, Ref uint32 }

// Slice is one node's accesses during one (phase, iteration) episode —
// the span between two barrier crossings — in issue order. Times are
// compressed: the node's cumulative fault wait is subtracted, leaving its
// pure compute progression, so the replay can charge its own stalls.
type Slice struct {
	Phase, Iter int32
	First       sim.Time // issue time of the first access
	Span        int64    // compressed-time offset of the last access
	Accs        []SliceAcc
	Big         []int64 // escaped gaps, in access order
}

// CommRecord captures one node's memory behavior during a calibration
// run for the analytical predictor (internal/predict): its access trace,
// sliced into (phase, iteration) episodes as it is recorded, plus
// per-phase pre-send arrivals. Recording is observation only — it charges
// no virtual time and never perturbs the simulation — and all state is
// updated exclusively by the owning node's processors, which share a lane
// under the parallel engine, so no synchronization is needed (the same
// argument as Stats).
type CommRecord struct {
	// Slices is the node's trace in issue order, one slice per run of
	// consecutive accesses with the same (phase, iteration). The last
	// slice's accesses are complete only after CloseSlice.
	Slices []Slice
	// Blocks is the node's block table, in first-access order.
	Blocks []memory.Block
	// Presend maps a parallel-phase ID (-1 = outside any phase) to the
	// arrival count of each pre-sent block installed at this node.
	Presend map[int]map[memory.Block]int64

	stallCum sim.Time
	last     int64      // compressed time of the previous access
	open     []SliceAcc // the last slice's accesses not yet moved into it
	lastRef  uint32     // block index of the previous access
	blockIdx map[memory.Block]uint32
}

// NewCommRecord returns an empty recorder.
func NewCommRecord() *CommRecord {
	return &CommRecord{Presend: make(map[int]map[memory.Block]int64), blockIdx: make(map[memory.Block]uint32)}
}

// NoteAccess appends one access to the trace. Called once per accessor
// invocation, before the hit check — fault retries are not re-counted.
func (r *CommRecord) NoteAccess(phase, iter int, at sim.Time, b memory.Block, write bool) {
	c := int64(at - r.stallCum)
	if n := len(r.Slices); n == 0 || r.Slices[n-1].Phase != int32(phase) || r.Slices[n-1].Iter != int32(iter) {
		buf := r.open[:0] // CloseSlice releases the buffer; keep it
		r.CloseSlice()
		r.open = buf
		r.Slices = append(r.Slices, Slice{Phase: int32(phase), Iter: int32(iter), First: at})
		r.last = c
	}
	s := &r.Slices[len(r.Slices)-1]
	// A fault advances issue time and cumulative stall alike, so gaps are
	// never negative; the unsigned min still escapes either kind.
	g := c - r.last
	gap := uint32(min(uint64(g), GapEscape))
	if gap == GapEscape {
		s.Big = append(s.Big, g)
	}
	s.Span += g
	r.last = c
	if len(r.Blocks) == 0 || r.Blocks[r.lastRef] != b {
		ref, ok := r.blockIdx[b]
		if !ok {
			ref = uint32(len(r.Blocks))
			r.blockIdx[b] = ref
			r.Blocks = append(r.Blocks, b)
		}
		r.lastRef = ref
	}
	acc := SliceAcc{Gap: gap, Ref: r.lastRef << 1}
	if write {
		acc.Ref |= 1
	}
	r.open = append(r.open, acc)
}

// CloseSlice completes the last slice: its accesses gather in a buffer the
// node reuses, so that slices keep no append slack, and move into it here.
// Closing again is a no-op; noting more accesses of the same episode
// reopens the slice.
func (r *CommRecord) CloseSlice() {
	if len(r.open) > 0 {
		s := &r.Slices[len(r.Slices)-1]
		s.Accs = append(s.Accs, r.open...)
	}
	r.open = nil
}

// NoteStall accumulates one resolved fault's wait time, which later
// accesses' compressed times leave out.
func (r *CommRecord) NoteStall(dt sim.Time) { r.stallCum += dt }

// NotePresend records one pre-send arrival for block b.
func (r *CommRecord) NotePresend(phase int, b memory.Block) {
	m := r.Presend[phase]
	if m == nil {
		m = make(map[memory.Block]int64)
		r.Presend[phase] = m
	}
	m[b]++
}
