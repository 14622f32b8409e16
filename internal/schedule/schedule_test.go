package schedule

import (
	"testing"
	"testing/quick"

	"presto/internal/blockstate"
	"presto/internal/memory"
)

func blk(i int) memory.Block { return memory.Block(i * 32) }

func schedAS() *memory.AddressSpace {
	as := memory.NewAddressSpace(2, 32)
	as.NewRegion("r", 1<<16, func(b int64) int { return int(b % 2) })
	return as
}

var kinds = []blockstate.Kind{blockstate.Dense, blockstate.MapRef}

func newPhase(id int, kind blockstate.Kind) *Phase {
	return NewPhase(schedAS(), id, kind)
}

func forKinds(t *testing.T, f func(t *testing.T, kind blockstate.Kind)) {
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) { f(t, kind) })
	}
}

func TestRecordReadAccumulatesReaders(t *testing.T) {
	forKinds(t, func(t *testing.T, kind blockstate.Kind) {
		p := newPhase(1, kind)
		p.RecordRead(blk(0), 2)
		p.RecordRead(blk(0), 5)
		e := p.Lookup(blk(0))
		if e == nil || e.Mode != ModeRead {
			t.Fatalf("entry = %+v", e)
		}
		if !e.Readers.Has(2) || !e.Readers.Has(5) || e.Readers.Count() != 2 {
			t.Fatalf("readers = %v", e.Readers)
		}
	})
}

func TestRecordWriteLastWriterWins(t *testing.T) {
	forKinds(t, func(t *testing.T, kind blockstate.Kind) {
		p := newPhase(1, kind)
		p.RecordWrite(blk(0), 1)
		p.RecordWrite(blk(0), 3)
		e := p.Lookup(blk(0))
		if e.Mode != ModeWrite || e.Writer != 3 {
			t.Fatalf("entry = %+v", e)
		}
	})
}

func TestReadThenWriteConflicts(t *testing.T) {
	forKinds(t, func(t *testing.T, kind blockstate.Kind) {
		p := newPhase(1, kind)
		p.RecordRead(blk(0), 1)
		if became := p.RecordWrite(blk(0), 2); !became {
			t.Fatal("expected conflict transition")
		}
		e := p.Lookup(blk(0))
		if e.Mode != ModeConflict {
			t.Fatalf("mode = %v", e.Mode)
		}
		if e.FirstMode != ModeRead || !e.FirstReaders.Has(1) {
			t.Fatalf("first state not frozen: %+v", e)
		}
	})
}

func TestWriteThenReadConflicts(t *testing.T) {
	forKinds(t, func(t *testing.T, kind blockstate.Kind) {
		p := newPhase(1, kind)
		p.RecordWrite(blk(0), 2)
		if became := p.RecordRead(blk(0), 1); !became {
			t.Fatal("expected conflict transition")
		}
		e := p.Lookup(blk(0))
		if e.FirstMode != ModeWrite || e.FirstWriter != 2 {
			t.Fatalf("first state = %+v", e)
		}
		// Further records keep the conflict and report no new transition.
		if p.RecordRead(blk(0), 3) || p.RecordWrite(blk(0), 4) {
			t.Fatal("conflict re-transitioned")
		}
		if p.Conflicts() != 1 {
			t.Fatalf("conflicts = %d", p.Conflicts())
		}
	})
}

func TestEntriesSortedByBlock(t *testing.T) {
	forKinds(t, func(t *testing.T, kind blockstate.Kind) {
		p := newPhase(1, kind)
		for _, i := range []int{5, 1, 3, 2} {
			p.RecordRead(blk(i), 0)
		}
		es := p.Entries()
		if len(es) != 4 {
			t.Fatalf("len = %d, want 4", len(es))
		}
		for i := 1; i < len(es); i++ {
			if es[i-1].Block >= es[i].Block {
				t.Fatalf("not sorted: %v", es)
			}
		}
	})
}

func TestEntriesCacheInvalidation(t *testing.T) {
	forKinds(t, func(t *testing.T, kind blockstate.Kind) {
		p := newPhase(1, kind)
		p.RecordRead(blk(2), 0)
		first := p.Entries()
		if len(first) != 1 {
			t.Fatalf("len = %d, want 1", len(first))
		}
		// Mutating an existing entry must not require a rebuild: the cached
		// pointers see it in place.
		p.RecordRead(blk(2), 1)
		if got := p.Entries(); len(got) != 1 || !got[0].Readers.Has(1) {
			t.Fatalf("in-place mutation lost: %+v", got)
		}
		// A new block invalidates the cache.
		p.RecordWrite(blk(0), 3)
		es := p.Entries()
		if len(es) != 2 || es[0].Block != blk(0) || es[1].Block != blk(2) {
			t.Fatalf("cache not rebuilt in order: %v", es)
		}
	})
}

func TestTablePhaseIsolationAndFlush(t *testing.T) {
	forKinds(t, func(t *testing.T, kind blockstate.Kind) {
		tb := NewTable(schedAS(), kind)
		tb.Phase(1).RecordRead(blk(0), 1)
		tb.Phase(2).RecordWrite(blk(0), 2)
		if tb.Phase(1).Lookup(blk(0)).Mode != ModeRead {
			t.Fatal("phase 1 polluted")
		}
		if tb.Phase(2).Lookup(blk(0)).Mode != ModeWrite {
			t.Fatal("phase 2 polluted")
		}
		if tb.Blocks() != 2 {
			t.Fatalf("blocks = %d", tb.Blocks())
		}
		tb.Flush(1)
		if tb.Lookup(1) != nil {
			t.Fatal("flush failed")
		}
		if tb.Lookup(2) == nil {
			t.Fatal("flush removed wrong phase")
		}
		tb.FlushAll()
		if tb.Blocks() != 0 {
			t.Fatal("FlushAll failed")
		}
	})
}

func TestIncrementalGrowth(t *testing.T) {
	forKinds(t, func(t *testing.T, kind blockstate.Kind) {
		// New faults extend an existing schedule (adaptive applications).
		p := newPhase(7, kind)
		p.RecordRead(blk(0), 1)
		if p.Len() != 1 {
			t.Fatal("len")
		}
		p.RecordRead(blk(1), 2)
		p.RecordRead(blk(0), 3) // extends reader set, not entry count
		if p.Len() != 2 {
			t.Fatalf("len = %d, want 2", p.Len())
		}
		if p.Lookup(blk(0)).Readers.Count() != 2 {
			t.Fatal("reader set not extended")
		}
	})
}

// Property: regardless of the interleaving of read/write records, an entry
// that saw both kinds is a conflict, one that saw only reads is ModeRead
// with all readers recorded, and one that saw only writes is ModeWrite.
func TestModeClassificationProperty(t *testing.T) {
	forKinds(t, func(t *testing.T, kind blockstate.Kind) {
		as := schedAS()
		f := func(ops []bool, nodes []uint8) bool {
			if len(ops) > 20 {
				ops = ops[:20]
			}
			p := NewPhase(as, 0, kind)
			sawRead, sawWrite := false, false
			for i, isWrite := range ops {
				node := 0
				if len(nodes) > 0 {
					node = int(nodes[i%len(nodes)]) % 32
				}
				if isWrite {
					p.RecordWrite(blk(0), node)
					sawWrite = true
				} else {
					p.RecordRead(blk(0), node)
					sawRead = true
				}
			}
			if len(ops) == 0 {
				return p.Empty()
			}
			e := p.Lookup(blk(0))
			switch {
			case sawRead && sawWrite:
				return e.Mode == ModeConflict
			case sawRead:
				return e.Mode == ModeRead
			default:
				return e.Mode == ModeWrite
			}
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEntriesRepeatWalkZeroAlloc is the regression guard for the cached
// pre-send walk: once the schedule is stable, repeated Entries() calls must
// not allocate. This is the property BenchmarkEntriesRepeatWalk measures.
func TestEntriesRepeatWalkZeroAlloc(t *testing.T) {
	p := newPhase(1, blockstate.Dense)
	for i := 0; i < 512; i++ {
		p.RecordRead(blk(i), i%4)
	}
	p.Entries() // build the cache once
	allocs := testing.AllocsPerRun(100, func() {
		es := p.Entries()
		for _, e := range es {
			_ = e.Mode
		}
	})
	if allocs != 0 {
		t.Fatalf("repeated Entries() walk allocates %v/op, want 0", allocs)
	}
}

// BenchmarkEntriesRepeatWalk measures the steady-state pre-send walk over a
// 512-entry schedule: iterate the cached block-ordered slice.
func BenchmarkEntriesRepeatWalk(b *testing.B) {
	p := newPhase(1, blockstate.Dense)
	for i := 0; i < 512; i++ {
		p.RecordRead(blk(i), i%4)
	}
	p.Entries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, e := range p.Entries() {
			if e.Mode != ModeConflict {
				n++
			}
		}
		if n != 512 {
			b.Fatal(n)
		}
	}
}
