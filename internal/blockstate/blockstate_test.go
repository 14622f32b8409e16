package blockstate

import (
	"sort"
	"testing"

	"presto/internal/memory"
)

func testAS(t *testing.T) *memory.AddressSpace {
	t.Helper()
	as := memory.NewAddressSpace(8, 32)
	as.NewRegion("r0", 1<<18, func(int64) int { return 0 }) // 8192 blocks: two 4096-block windows
	as.NewRegion("r1", 1000, func(int64) int { return 1 })  // non-power-of-2 size
	return as
}

func kinds() []Kind { return []Kind{Dense, MapRef} }

// pageEdges are the r0 block indices on either side of a 64-slot page
// boundary and of a 4096-block boundary.
var pageEdges = []int64{63, 64, 65, 4095, 4096}

func TestStoreBasics(t *testing.T) {
	as := testAS(t)
	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) {
			s := New[int](as, kind)
			b := as.Regions()[0].BlockAt(3)
			if s.Get(b) != nil {
				t.Fatalf("Get on empty store: want nil")
			}
			v, created := s.Ensure(b)
			if !created || v == nil || *v != 0 {
				t.Fatalf("Ensure first touch: created=%v v=%v", created, v)
			}
			*v = 42
			v2, created := s.Ensure(b)
			if created || v2 != v {
				t.Fatalf("Ensure second touch: created=%v, pointer stable=%v", created, v2 == v)
			}
			if got := s.Get(b); got != v || *got != 42 {
				t.Fatalf("Get after Ensure: %v", got)
			}
			if s.Len() != 1 {
				t.Fatalf("Len = %d, want 1", s.Len())
			}
			s.Remove(b)
			s.Remove(b) // absent remove is a no-op
			if s.Get(b) != nil || s.Len() != 0 {
				t.Fatalf("after Remove: Get=%v Len=%d", s.Get(b), s.Len())
			}
			// A re-ensured slot must be zero again, not carry stale state.
			v3, created := s.Ensure(b)
			if !created || *v3 != 0 {
				t.Fatalf("re-Ensure after Remove: created=%v *v=%d", created, *v3)
			}
		})
	}
}

func TestStoreForEachOrder(t *testing.T) {
	as := testAS(t)
	r0, r1 := as.Regions()[0], as.Regions()[1]
	// Deliberately inserted out of order, spanning pages and regions.
	blocks := []memory.Block{
		r1.BlockAt(5), r0.BlockAt(700), r0.BlockAt(0), r0.BlockAt(255),
		r0.BlockAt(256), r1.BlockAt(0), r0.BlockAt(63), r0.BlockAt(1),
		r0.BlockAt(4096), r0.BlockAt(65), r0.BlockAt(4095), r0.BlockAt(64),
	}
	want := append([]memory.Block(nil), blocks...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) {
			s := New[int](as, kind)
			for i, b := range blocks {
				v, _ := s.Ensure(b)
				*v = i
			}
			var got []memory.Block
			s.ForEach(func(b memory.Block, v *int) {
				if *v != indexOf(blocks, b) {
					t.Fatalf("block %#x: value %d, want %d", uint64(b), *v, indexOf(blocks, b))
				}
				got = append(got, b)
			})
			if len(got) != len(want) {
				t.Fatalf("ForEach visited %d entries, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("ForEach order[%d] = %#x, want %#x", i, uint64(got[i]), uint64(want[i]))
				}
			}
		})
	}
}

func indexOf(blocks []memory.Block, b memory.Block) int {
	for i, x := range blocks {
		if x == b {
			return i
		}
	}
	return -1
}

// xorshift for deterministic pseudo-random ops.
type prng struct{ s uint64 }

func (r *prng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// TestStoreDifferential drives identical random op sequences through each
// backend and a plain map, asserting identical observable state. A quarter
// of the picks land on pageEdges, so neighbours across a page boundary are
// created, removed and re-created many times.
func TestStoreDifferential(t *testing.T) {
	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) { storeDifferential(t, kind) })
	}
}

func storeDifferential(t *testing.T, kind Kind) {
	as := testAS(t)
	r0, r1 := as.Regions()[0], as.Regions()[1]
	pick := func(r *prng) memory.Block {
		switch r.next() % 4 {
		case 0:
			return r1.BlockAt(int64(r.next() % uint64(r1.NumBlocks())))
		case 1:
			return r0.BlockAt(pageEdges[r.next()%uint64(len(pageEdges))])
		}
		return r0.BlockAt(int64(r.next() % uint64(r0.NumBlocks())))
	}
	for seed := uint64(1); seed <= 20; seed++ {
		r := &prng{s: seed}
		s := New[uint64](as, kind)
		ref := map[memory.Block]uint64{}
		for op := 0; op < 2000; op++ {
			b := pick(r)
			switch r.next() % 3 {
			case 0:
				v, created := s.Ensure(b)
				_, had := ref[b]
				if created == had {
					t.Fatalf("seed %d op %d: created=%v but ref had=%v", seed, op, created, had)
				}
				*v = r.next()
				ref[b] = *v
			case 1:
				s.Remove(b)
				delete(ref, b)
			case 2:
				v := s.Get(b)
				rv, had := ref[b]
				if (v != nil) != had || (v != nil && *v != rv) {
					t.Fatalf("seed %d op %d: Get mismatch", seed, op)
				}
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("seed %d: Len %d != ref %d", seed, s.Len(), len(ref))
		}
		seen := 0
		prev := memory.Block(0)
		s.ForEach(func(b memory.Block, v *uint64) {
			if seen > 0 && b <= prev {
				t.Fatalf("seed %d: ForEach not ascending", seed)
			}
			prev = b
			seen++
			if rv, had := ref[b]; !had || rv != *v {
				t.Fatalf("seed %d: ForEach value mismatch at %#x", seed, uint64(b))
			}
		})
		if seen != len(ref) {
			t.Fatalf("seed %d: ForEach visited %d, ref %d", seed, seen, len(ref))
		}
	}
}

func TestBitTable(t *testing.T) {
	as := testAS(t)
	r0, r1 := as.Regions()[0], as.Regions()[1]
	bt := NewBitTable(as)
	b1, b2, b3 := r0.BlockAt(0), r0.BlockAt(200), r1.BlockAt(7)
	if bt.Has(b1) || bt.Count() != 0 {
		t.Fatal("empty table reports membership")
	}
	if !bt.Set(b1) || bt.Set(b1) {
		t.Fatal("Set newly-set semantics wrong")
	}
	bt.Set(b2)
	bt.Set(b3)
	if bt.Count() != 3 || !bt.Has(b2) || !bt.Has(b3) {
		t.Fatalf("Count=%d", bt.Count())
	}
	var order []memory.Block
	bt.ForEach(func(b memory.Block) { order = append(order, b) })
	if len(order) != 3 || order[0] != b1 || order[1] != b2 || order[2] != b3 {
		t.Fatalf("ForEach order: %v", order)
	}
	if !bt.Clear(b2) || bt.Clear(b2) {
		t.Fatal("Clear was-set semantics wrong")
	}
	if bt.Count() != 2 || bt.Has(b2) {
		t.Fatal("Clear did not unmark")
	}
	bt.Reset()
	if bt.Count() != 0 || bt.Has(b1) || bt.Has(b3) {
		t.Fatal("Reset left bits behind")
	}
	// Clearing in never-touched territory must be a safe no-op.
	if bt.Clear(r0.BlockAt(1500)) {
		t.Fatal("Clear of untouched block reported set")
	}
	// A far block grows the table in one step; everything it skipped over
	// stays clear.
	if !bt.Set(r0.BlockAt(8191)) || !bt.Has(r0.BlockAt(8191)) || bt.Count() != 1 {
		t.Fatal("Set of the region's last block")
	}
	if bt.Has(r0.BlockAt(8190)) || bt.Has(r0.BlockAt(4096)) || bt.Has(b2) {
		t.Fatal("growing the table set bits it skipped over")
	}
}

func TestBitTableDifferential(t *testing.T) {
	as := testAS(t)
	r0 := as.Regions()[0]
	for seed := uint64(1); seed <= 10; seed++ {
		r := &prng{s: seed * 77}
		bt := NewBitTable(as)
		ref := map[memory.Block]bool{}
		for op := 0; op < 3000; op++ {
			b := r0.BlockAt(int64(r.next() % uint64(r0.NumBlocks())))
			switch r.next() % 3 {
			case 0:
				if bt.Set(b) == ref[b] {
					t.Fatalf("seed %d op %d: Set mismatch", seed, op)
				}
				ref[b] = true
			case 1:
				if bt.Clear(b) != ref[b] {
					t.Fatalf("seed %d op %d: Clear mismatch", seed, op)
				}
				delete(ref, b)
			case 2:
				if bt.Has(b) != ref[b] {
					t.Fatalf("seed %d op %d: Has mismatch", seed, op)
				}
			}
		}
		if bt.Count() != len(ref) {
			t.Fatalf("seed %d: Count %d != ref %d", seed, bt.Count(), len(ref))
		}
	}
}
