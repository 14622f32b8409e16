package memory

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func evenOdd(b int64) int {
	return int(b % 2)
}

func newTestSpace(t *testing.T) (*AddressSpace, *Region) {
	t.Helper()
	as := NewAddressSpace(2, 32)
	r := as.NewRegion("data", 1024, evenOdd)
	return as, r
}

func TestAddrComposition(t *testing.T) {
	as := NewAddressSpace(4, 64)
	r0 := as.NewRegion("a", 4096, func(int64) int { return 0 })
	r1 := as.NewRegion("b", 4096, func(int64) int { return 1 })
	a := r1.Addr(100)
	if a.RegionID() != 1 || a.Offset() != 100 {
		t.Fatalf("addr decompose = (%d,%d)", a.RegionID(), a.Offset())
	}
	if as.Region(a) != r1 {
		t.Fatal("Region lookup failed")
	}
	if r0.Base().RegionID() != 0 {
		t.Fatal("r0 base region")
	}
}

func TestBlockGeometry(t *testing.T) {
	as, r := newTestSpace(t)
	a := r.Addr(40) // block 1 with 32-byte blocks
	b := as.BlockOf(a)
	if b.Offset() != 32 {
		t.Fatalf("block offset = %d, want 32", b.Offset())
	}
	if as.BlockIndex(b) != 1 {
		t.Fatalf("block index = %d, want 1", as.BlockIndex(b))
	}
	if as.HomeOf(a) != 1 {
		t.Fatalf("home = %d, want 1 (odd block)", as.HomeOf(a))
	}
	if r.NumBlocks() != 32 {
		t.Fatalf("NumBlocks = %d, want 32", r.NumBlocks())
	}
}

func TestContiguous(t *testing.T) {
	as, r := newTestSpace(t)
	b0 := as.BlockOf(r.Addr(0))
	b1 := as.BlockOf(r.Addr(32))
	b2 := as.BlockOf(r.Addr(64))
	if !as.Contiguous(b0, b1) || !as.Contiguous(b1, b2) {
		t.Fatal("adjacent blocks not contiguous")
	}
	if as.Contiguous(b0, b2) || as.Contiguous(b1, b0) {
		t.Fatal("non-adjacent reported contiguous")
	}
	r2 := as.NewRegion("other", 64, func(int64) int { return 0 })
	if as.Contiguous(b0, as.BlockOf(r2.Addr(32))) {
		t.Fatal("cross-region blocks reported contiguous")
	}
}

func TestHomeNodeStartsReadWrite(t *testing.T) {
	as, r := newTestSpace(t)
	s0 := NewStore(as, 0)
	s1 := NewStore(as, 1)
	a := r.Addr(0) // block 0 homes on node 0
	if s0.Tag(a) != ReadWrite {
		t.Fatalf("home tag = %v, want ReadWrite", s0.Tag(a))
	}
	if s1.Tag(a) != Invalid {
		t.Fatalf("remote tag = %v, want Invalid", s1.Tag(a))
	}
}

func TestLoadStoreFaultSemantics(t *testing.T) {
	as, r := newTestSpace(t)
	s0 := NewStore(as, 0)
	a := r.Addr(8) // block 0, home node 0

	if ok := s0.StoreF64(a, 3.5); !ok {
		t.Fatal("home store faulted")
	}
	if v, ok := s0.LoadF64(a); !ok || v != 3.5 {
		t.Fatalf("load = %v %v", v, ok)
	}

	s0.SetTag(as.BlockOf(a), ReadOnly)
	if _, ok := s0.LoadF64(a); !ok {
		t.Fatal("read of ReadOnly line faulted")
	}
	if ok := s0.StoreF64(a, 1); ok {
		t.Fatal("write to ReadOnly line did not fault")
	}

	s0.SetTag(as.BlockOf(a), Invalid)
	if _, ok := s0.LoadF64(a); ok {
		t.Fatal("read of Invalid line did not fault")
	}
}

func TestInstallMakesDataVisible(t *testing.T) {
	as, r := newTestSpace(t)
	s0 := NewStore(as, 0)
	s1 := NewStore(as, 1)
	a := r.Addr(16) // block 0, home 0
	b := as.BlockOf(a)

	s0.StoreF64(a, 42.25)
	s1.Install(b, s0.Data(b), ReadOnly)
	if v, ok := s1.LoadF64(a); !ok || v != 42.25 {
		t.Fatalf("after install: %v %v", v, ok)
	}
	if ok := s1.StoreF64(a, 0); ok {
		t.Fatal("write to ReadOnly installed copy did not fault")
	}
}

func TestEnsureMaterializesInvalid(t *testing.T) {
	as, r := newTestSpace(t)
	s1 := NewStore(as, 1)
	b := as.BlockOf(r.Addr(0)) // homed on node 0
	if s1.Line(b) != nil {
		t.Fatal("line unexpectedly materialized")
	}
	l := s1.Ensure(b)
	if l.Tag != Invalid || len(l.Data) != 32 {
		t.Fatalf("ensure: tag=%v len=%d", l.Tag, len(l.Data))
	}
	if s1.Ensure(b) != l {
		t.Fatal("Ensure not idempotent")
	}
}

func TestMisalignedAccessPanics(t *testing.T) {
	as, r := newTestSpace(t)
	s0 := NewStore(as, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on misaligned access")
		}
	}()
	s0.LoadF64(r.Addr(4))
}

func TestU32AndU64Accessors(t *testing.T) {
	as, r := newTestSpace(t)
	s0 := NewStore(as, 0)
	a := r.Addr(0)
	if ok := s0.StoreU64(a, 0xdeadbeefcafe); !ok {
		t.Fatal("StoreU64 fault")
	}
	if v, ok := s0.LoadU64(a); !ok || v != 0xdeadbeefcafe {
		t.Fatalf("LoadU64 = %x %v", v, ok)
	}
	a4 := r.Addr(12)
	if ok := s0.StoreU32(a4, 77); !ok {
		t.Fatal("StoreU32 fault")
	}
	if v, ok := s0.LoadU32(a4); !ok || v != 77 {
		t.Fatalf("LoadU32 = %d %v", v, ok)
	}
}

func TestBadBlockSizePanics(t *testing.T) {
	for _, bs := range []int{0, 8, 24, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("block size %d: expected panic", bs)
				}
			}()
			NewAddressSpace(2, bs)
		}()
	}
}

// Property: a float64 round-trips through any aligned offset of a home
// block regardless of block size.
func TestF64RoundTripProperty(t *testing.T) {
	f := func(v float64, rawOff uint16, bsSel uint8) bool {
		blockSizes := []int{32, 64, 128, 256, 1024}
		bs := blockSizes[int(bsSel)%len(blockSizes)]
		as := NewAddressSpace(1, bs)
		r := as.NewRegion("d", 1<<16, func(int64) int { return 0 })
		s := NewStore(as, 0)
		off := int64(rawOff) &^ 7
		a := r.Addr(off)
		if !s.StoreF64(a, v) {
			return false
		}
		got, ok := s.LoadF64(a)
		if !ok {
			return false
		}
		// NaN-safe comparison via bit pattern round trip.
		return got == v || (v != v && got != got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBlockIndexRegionBoundaries pins block decomposition at the edges of
// a region: the first block, the last full block, and the partial tail
// block of a non-power-of-2 region size.
func TestBlockIndexRegionBoundaries(t *testing.T) {
	as := NewAddressSpace(2, 32)
	r := as.NewRegion("odd", 1000, evenOdd) // 31 full blocks + 8-byte tail
	if r.NumBlocks() != 32 {
		t.Fatalf("NumBlocks = %d, want 32 (1000/32 rounded up)", r.NumBlocks())
	}
	first := as.BlockOf(r.Addr(0))
	if as.BlockIndex(first) != 0 {
		t.Fatalf("first block index = %d", as.BlockIndex(first))
	}
	lastFull := as.BlockOf(r.Addr(31*32 - 1))
	if as.BlockIndex(lastFull) != 30 {
		t.Fatalf("offset %d block index = %d, want 30", 31*32-1, as.BlockIndex(lastFull))
	}
	tail := as.BlockOf(r.Addr(999))
	if as.BlockIndex(tail) != 31 {
		t.Fatalf("tail block index = %d, want 31", as.BlockIndex(tail))
	}
	if tail.RegionID() != first.RegionID() {
		t.Fatal("tail block left its region")
	}
}

// TestBlockAtRoundTrip: Region.BlockAt is the inverse of
// AddressSpace.BlockIndex for every block of the region, across block
// sizes and a non-power-of-2 region size.
func TestBlockAtRoundTrip(t *testing.T) {
	for _, bs := range []int{16, 32, 256} {
		as := NewAddressSpace(4, bs)
		as.NewRegion("pre", 3*int64(bs), func(int64) int { return 0 }) // shift region IDs past 0
		r := as.NewRegion("d", int64(bs)*17+5, func(b int64) int { return int(b % 4) })
		for i := int64(0); i < r.NumBlocks(); i++ {
			b := r.BlockAt(i)
			if as.BlockIndex(b) != i {
				t.Fatalf("bs=%d: BlockIndex(BlockAt(%d)) = %d", bs, i, as.BlockIndex(b))
			}
			if as.BlockOf(Addr(b)) != b {
				t.Fatalf("bs=%d: BlockAt(%d) not block-aligned", bs, i)
			}
			if b.RegionID() != r.ID {
				t.Fatalf("bs=%d: BlockAt(%d) in region %d, want %d", bs, i, b.RegionID(), r.ID)
			}
		}
	}
}

// TestContiguousAcrossRegionEnds: the last block of one region and the
// first of the next are never contiguous, even though the regions were
// allocated back to back — coalescing must not span regions.
func TestContiguousAcrossRegionEnds(t *testing.T) {
	as := NewAddressSpace(2, 32)
	r0 := as.NewRegion("a", 128, evenOdd)
	r1 := as.NewRegion("b", 128, evenOdd)
	last0 := r0.BlockAt(r0.NumBlocks() - 1)
	first1 := r1.BlockAt(0)
	if as.Contiguous(last0, first1) {
		t.Fatal("blocks of different regions reported contiguous")
	}
	// Within one region the same pair-distance is contiguous.
	if !as.Contiguous(r0.BlockAt(2), r0.BlockAt(3)) {
		t.Fatal("adjacent blocks not contiguous")
	}
	// The tail block of a non-power-of-2 region is contiguous with its
	// predecessor like any other block.
	odd := as.NewRegion("odd", 100, evenOdd) // 4 blocks, 4-byte tail
	if !as.Contiguous(odd.BlockAt(odd.NumBlocks()-2), odd.BlockAt(odd.NumBlocks()-1)) {
		t.Fatal("tail block not contiguous with predecessor")
	}
	// Identical blocks and reversed order are not contiguous.
	if as.Contiguous(first1, first1) || as.Contiguous(r0.BlockAt(3), r0.BlockAt(2)) {
		t.Fatal("degenerate pairs reported contiguous")
	}
}

// Property: BlockIndex agrees with plain offset division for arbitrary
// offsets and block sizes (the shift-based fast path must match).
func TestBlockIndexMatchesDivisionProperty(t *testing.T) {
	f := func(rawOff uint32, bsSel uint8) bool {
		blockSizes := []int{16, 32, 64, 128, 512}
		bs := blockSizes[int(bsSel)%len(blockSizes)]
		as := NewAddressSpace(2, bs)
		r := as.NewRegion("d", 1<<20, evenOdd)
		off := int64(rawOff) % (1 << 20)
		b := as.BlockOf(r.Addr(off))
		return as.BlockIndex(b) == off/int64(bs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: home assignment partitions blocks — every block has exactly
// one home and it is stable.
func TestHomePartitionProperty(t *testing.T) {
	f := func(seed uint32) bool {
		nodes := int(seed%7) + 2
		as := NewAddressSpace(nodes, 64)
		r := as.NewRegion("d", 4096, func(b int64) int { return int(b) % nodes })
		for i := int64(0); i < r.NumBlocks(); i++ {
			h := r.HomeOf(i)
			if h < 0 || h >= nodes || h != r.HomeOf(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// panicMessage runs f and returns what it panicked with ("" if it did not).
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestOutOfRangeAccessPanicsByName: an unmapped region and an offset past a
// region's end (both reachable through Addr.Add) die with the package's
// message naming node, region and size — on every entry point, and whether
// the stray block falls past the chunk table or only past the last block.
func TestOutOfRangeAccessPanicsByName(t *testing.T) {
	as := NewAddressSpace(2, 32)
	r := as.NewRegion("data", 1000, evenOdd) // 32 blocks
	s := NewStore(as, 1)
	entries := map[string]func(Addr){
		"Line":    func(a Addr) { s.Line(a) },
		"Ensure":  func(a Addr) { s.Ensure(a) },
		"Peek":    func(a Addr) { s.Peek(a) },
		"LoadF64": func(a Addr) { s.LoadF64(a) },
	}
	for _, tc := range []struct {
		name string
		a    Addr
		want []string
	}{
		{"unmapped region", r.Base().Add(1 << offsetBits), []string{"memory: node 1:", "unmapped region 1"}},
		{"before the base", r.Base().Add(-32), []string{"memory: node 1:", "unmapped region"}},
		{"past the last block", r.Base().Add(32 * 32), []string{"memory: node 1:", "block 32 outside region 0 \"data\"", "1000 bytes", "32 blocks"}},
		{"past the chunk table", r.Base().Add(32 << chunkBits), []string{"memory: node 1:", "block 4096 outside region 0 \"data\"", "1000 bytes"}},
	} {
		for name, entry := range entries {
			msg := panicMessage(func() { entry(tc.a) })
			for _, w := range tc.want {
				if !strings.Contains(msg, w) {
					t.Errorf("%s, %s: panic %q lacks %q", tc.name, name, msg, w)
				}
			}
		}
	}
	if n := materialized(s); n != 0 {
		t.Fatalf("out-of-range accesses materialized %d lines", n)
	}
}

// materialized counts the lines reachable through s's table, and checks
// that Lines agrees.
func materialized(s *Store) (n int) {
	for _, chunks := range s.lines {
		for _, ch := range chunks {
			if ch == nil {
				continue
			}
			for _, pg := range ch {
				if pg == nil {
					continue
				}
				for _, l := range pg {
					if l != nil {
						n++
					}
				}
			}
		}
	}
	if n != s.Lines() {
		panic(fmt.Sprintf("table holds %d lines, Lines() = %d", n, s.Lines()))
	}
	return n
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStoreFootprintFollowsBlocksTouched: a node that holds four scattered
// remote blocks of a 48 MB arena pays for four 512-byte chunks, four
// 512-byte pages and one four-line slab on top of the region's chunk
// table — nothing sized by the 4096-block window a block falls in.
func TestStoreFootprintFollowsBlocksTouched(t *testing.T) {
	for _, tc := range []struct {
		blockSize int
		limit     uint64
	}{{32, 16 << 10}, {1024, 24 << 10}} {
		as := NewAddressSpace(1024, tc.blockSize)
		r := as.NewRegion("cells", 48<<20, func(b int64) int { return int(b % 1024) })
		data := make([]byte, tc.blockSize)
		data[0] = 7
		var s *Store
		got := allocated(func() {
			s = NewStore(as, 3)
			for _, q := range []int64{0, 1, 2, 3} {
				s.Install(r.BlockAt(q*r.NumBlocks()/4+5), data, ReadOnly)
			}
		})
		if got >= tc.limit {
			t.Errorf("block size %d: NewStore + 4 scattered installs allocated %d bytes, want < %d", tc.blockSize, got, tc.limit)
		}
		if n := materialized(s); n != 4 {
			t.Errorf("block size %d: %d lines materialized, want 4", tc.blockSize, n)
		}
		if tag, d := s.Peek(r.BlockAt(5)); tag != ReadOnly || d[0] != 7 {
			t.Errorf("block size %d: installed block reads %v %v", tc.blockSize, tag, d[:1])
		}
	}
}

// TestLinesNeverMove: protocols hold *Line and its Data across later
// materializations, so neither may be reallocated when the slabs grow; and
// the lazy rules still hold on the far side of that growth.
func TestLinesNeverMove(t *testing.T) {
	as := NewAddressSpace(2, 32)
	r := as.NewRegion("data", 32*20000, evenOdd)
	s := NewStore(as, 0)

	home, remote := r.BlockAt(0), r.BlockAt(1)
	hl := s.Line(home)
	rl := s.Ensure(remote)
	hl.Data[3], rl.Data[4] = 0xaa, 0xbb
	hd, rd := &hl.Data[0], &rl.Data[0]

	for i := int64(2); i < 10002; i++ {
		s.Ensure(r.BlockAt(i))
	}
	if n := materialized(s); n != 10002 {
		t.Fatalf("%d lines materialized, want 10002", n)
	}
	if s.Line(home) != hl || s.Line(remote) != rl {
		t.Fatal("a *Line changed identity after 10000 further materializations")
	}
	if &hl.Data[0] != hd || &rl.Data[0] != rd || hl.Data[3] != 0xaa || rl.Data[4] != 0xbb {
		t.Fatal("a line's Data moved or lost its bytes")
	}
	if len(hl.Data) != 32 || cap(hl.Data) != 32 {
		t.Fatalf("line Data len=%d cap=%d, want 32/32 (a line must not reach into its neighbour)", len(hl.Data), cap(hl.Data))
	}

	far := r.BlockAt(15000) // even: homed here
	if l := s.Line(far); l == nil || l.Tag != ReadWrite || !bytes.Equal(l.Data, make([]byte, 32)) {
		t.Fatalf("untouched home line = %+v, want ReadWrite and zeroed", l)
	}
	other := r.BlockAt(15001)
	if s.Line(other) != nil || s.Tag(other) != Invalid {
		t.Fatal("untouched remote line materialized by a read")
	}
	if l := s.Ensure(other); l.Tag != Invalid || !bytes.Equal(l.Data, make([]byte, 32)) {
		t.Fatalf("Ensure = %+v, want Invalid and zeroed", l)
	}
	s.Install(r.BlockAt(15003), hl.Data, ReadOnly)
	if l := s.Line(r.BlockAt(15003)); l == nil || l.Tag != ReadOnly || l.Data[3] != 0xaa {
		t.Fatalf("Install = %+v", l)
	}
}

// TestPeekDoesNotMaterialize: an untouched home block reads as ReadWrite
// zeros, an untouched remote one as Invalid/nil, a materialized one as it
// is — and none of it grows the Store.
func TestPeekDoesNotMaterialize(t *testing.T) {
	as, r := newTestSpace(t)
	s := NewStore(as, 0)
	homeB, remoteB := r.BlockAt(0), r.BlockAt(1)
	if tag, d := s.Peek(homeB); tag != ReadWrite || !bytes.Equal(d, make([]byte, 32)) {
		t.Fatalf("untouched home block peeks as %v %v", tag, d)
	}
	if tag, d := s.Peek(remoteB); tag != Invalid || d != nil {
		t.Fatalf("untouched remote block peeks as %v %v", tag, d)
	}
	if n := materialized(s); n != 0 {
		t.Fatalf("Peek materialized %d lines", n)
	}
	s.StoreF64(r.Addr(8), 2.5)
	s.Install(remoteB, s.Data(homeB), ReadOnly)
	if tag, d := s.Peek(homeB); tag != ReadWrite || &d[0] != &s.Data(homeB)[0] {
		t.Fatalf("materialized home block peeks as %v, own data %v", tag, &d[0] == &s.Data(homeB)[0])
	}
	if tag, d := s.Peek(remoteB); tag != ReadOnly || !bytes.Equal(d, s.Data(homeB)) {
		t.Fatalf("installed block peeks as %v %v", tag, d)
	}
}
