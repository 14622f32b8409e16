package tempest

import (
	"reflect"
	"slices"
	"testing"

	"presto/internal/memory"
	"presto/internal/sim"
)

// offsets decodes a slice's compressed-time offsets from its gaps.
func offsets(s *Slice) []int64 {
	var out []int64
	var off int64
	esc := 0
	for i := range s.Accs {
		off += s.Gap(i, &esc)
		out = append(out, off)
	}
	return out
}

// TestCommRecordSlices records two phases and two outside episodes, a
// stall, gaps on both sides of the 32-bit escape, repeated blocks, writes
// and an access after CloseSlice, and checks every slice the record keeps.
func TestCommRecordSlices(t *testing.T) {
	b1, b2, b3 := memory.Block(1<<40), memory.Block(1<<40|32), memory.Block(2<<40|64)
	const top = int64(gapEscape) - 1 // the largest gap kept inline
	r := NewCommRecord()
	r.NoteAccess(-1, 0, 100, b1, false)
	r.NoteAccess(-1, 0, 110, b2, true)
	r.NoteAccess(3, 0, 200, b1, false)
	r.NoteStall(50) // a 50 ns fault wait, left out of later compressed times
	r.NoteAccess(3, 0, 260, b1, false)
	r.NoteAccess(3, 0, 300, b3, true)
	r.NoteAccess(-1, 0, 400, b2, false)
	t0 := sim.Time(500)
	r.NoteAccess(5, 1, t0, b3, false)
	r.NoteAccess(5, 1, t0+sim.Time(top), b3, false)
	r.NoteAccess(5, 1, t0+sim.Time(2*top+1), b1, true) // gap 2^32-1: escaped
	r.CloseSlice()
	r.NoteAccess(5, 1, t0+sim.Time(2*top+4), b1, false) // reopens the slice
	r.CloseSlice()
	r.CloseSlice()

	type ref struct {
		b     memory.Block
		write bool
	}
	type want struct {
		phase, iter int32
		first       sim.Time
		span        int64
		offs        []int64
		refs        []ref
	}
	wants := []want{
		{-1, 0, 100, 10, []int64{0, 10}, []ref{{b1, false}, {b2, true}}},
		{3, 0, 200, 50, []int64{0, 10, 50}, []ref{{b1, false}, {b1, false}, {b3, true}}},
		{-1, 0, 400, 0, []int64{0}, []ref{{b2, false}}},
		{5, 1, 500, 2*top + 4, []int64{0, top, 2*top + 1, 2*top + 4}, []ref{{b3, false}, {b3, false}, {b1, true}, {b1, false}}},
	}
	if len(r.Slices) != len(wants) {
		t.Fatalf("%d slices, want %d", len(r.Slices), len(wants))
	}
	if want := []memory.Block{b1, b2, b3}; !reflect.DeepEqual(r.Blocks, want) {
		t.Errorf("block table %x, want %x", r.Blocks, want)
	}
	for i, w := range wants {
		s := &r.Slices[i]
		if s.Phase != w.phase || s.Iter != w.iter || s.First != w.first || s.Span != w.span {
			t.Errorf("slice %d: (phase %d, iter %d) first %d span %d, want (%d, %d) %d %d",
				i, s.Phase, s.Iter, s.First, s.Span, w.phase, w.iter, w.first, w.span)
		}
		if got := offsets(s); !reflect.DeepEqual(got, w.offs) {
			t.Errorf("slice %d: offsets %v, want %v", i, got, w.offs)
		}
		var refs []ref
		for _, a := range s.Accs {
			refs = append(refs, ref{r.Blocks[a.Ref>>1], a.Ref&1 != 0})
		}
		if !reflect.DeepEqual(refs, w.refs) {
			t.Errorf("slice %d: refs %v, want %v", i, refs, w.refs)
		}
	}
	if got := r.Slices[3].Big; !reflect.DeepEqual(got, []int64{top + 1}) {
		t.Errorf("escaped gaps %v, want [%d]", got, top+1)
	}
}

// TestNoteAccessZeroAlloc: noting an access to a known block inside the
// open slice allocates nothing.
func TestNoteAccessZeroAlloc(t *testing.T) {
	r := NewCommRecord()
	b := memory.Block(1 << 40)
	r.NoteAccess(2, 0, 0, b, false)
	r.NoteAccess(2, 0, 1, b+32, true)
	// Room for every measured access: append's amortized growth is not
	// what this guards.
	s := &r.Slices[0]
	s.Accs = slices.Grow(s.Accs, 4096)
	at := sim.Time(1)
	allocs := testing.AllocsPerRun(1000, func() {
		at += 3
		r.NoteAccess(2, 0, at, b+memory.Block(at&1)*32, at&2 != 0)
	})
	if allocs != 0 {
		t.Fatalf("NoteAccess allocates %.1f per access, want 0", allocs)
	}
}
