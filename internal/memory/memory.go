// Package memory implements the fine-grain shared-memory substrate of the
// simulated DSM — the role Tempest's fine-grain access control played for
// Blizzard in the original system.
//
// A global address space is divided into named Regions. Each region is
// split into cache blocks of a machine-wide power-of-two size (32–1024
// bytes in the paper's experiments); every block has a home node given by
// the region's distribution function. Each node holds a Store: per-block
// lines carrying an access-control tag (Invalid, ReadOnly, ReadWrite) and
// the block's data. Loads and stores check tags; an inadequate tag is an
// access fault, which the runtime vectors to the user-level coherence
// protocol exactly as Tempest vectored faults to Stache handlers.
package memory

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Tag is a cache block's access-control state.
type Tag uint8

const (
	// Invalid blocks fault on any access.
	Invalid Tag = iota
	// ReadOnly blocks may be loaded but fault on stores.
	ReadOnly
	// ReadWrite blocks may be loaded and stored.
	ReadWrite
)

func (t Tag) String() string {
	switch t {
	case Invalid:
		return "Invalid"
	case ReadOnly:
		return "ReadOnly"
	case ReadWrite:
		return "ReadWrite"
	}
	return fmt.Sprintf("Tag(%d)", uint8(t))
}

// Addr is a global shared-memory address: region ID in the high bits,
// byte offset within the region in the low 40 bits.
type Addr uint64

const offsetBits = 40
const offsetMask = (Addr(1) << offsetBits) - 1

// Block identifies a cache block: a block-aligned Addr.
type Block = Addr

// RegionID extracts the region identifier from an address.
func (a Addr) RegionID() int { return int(a >> offsetBits) }

// Offset extracts the byte offset within the region.
func (a Addr) Offset() int64 { return int64(a & offsetMask) }

// Add returns the address displaced by d bytes within the same region.
func (a Addr) Add(d int64) Addr { return Addr(int64(a) + d) }

// Region is a contiguous span of the global address space with a single
// home-distribution function.
type Region struct {
	ID   int
	Name string
	Size int64 // bytes

	as *AddressSpace
	// home maps a block index within the region to its home node.
	home func(blockIdx int64) int
}

// Base returns the address of the region's first byte.
func (r *Region) Base() Addr { return Addr(r.ID) << offsetBits }

// Addr returns the global address of the given byte offset.
func (r *Region) Addr(off int64) Addr {
	if off < 0 || off >= r.Size {
		panic(fmt.Sprintf("memory: offset %d outside region %q (size %d)", off, r.Name, r.Size))
	}
	return r.Base().Add(off)
}

// NumBlocks returns the number of cache blocks spanning the region.
func (r *Region) NumBlocks() int64 {
	return (r.Size + int64(r.as.blockSize) - 1) >> r.as.blockShift
}

// BlockAt returns the block with the given region-local index (the
// inverse of AddressSpace.BlockIndex).
func (r *Region) BlockAt(idx int64) Block {
	return r.Base().Add(idx << r.as.blockShift)
}

// HomeOf returns the home node of the region-local block index.
func (r *Region) HomeOf(blockIdx int64) int { return r.home(blockIdx) }

// AddressSpace is the machine-wide set of regions and the block geometry.
type AddressSpace struct {
	blockSize  int // power of two
	blockShift uint
	blockMask  Addr
	nodes      int
	regions    []*Region
	zero       []byte // what every never-touched home block reads as
}

// NewAddressSpace creates an address space for the given node count and
// cache-block size (a power of two, at least 16).
func NewAddressSpace(nodes, blockSize int) *AddressSpace {
	if blockSize < 16 || blockSize&(blockSize-1) != 0 {
		panic(fmt.Sprintf("memory: block size %d must be a power of two >= 16", blockSize))
	}
	// 4096 mirrors network.MaxNodes, the largest topology any preset
	// builds (sharer sets scale past 64 nodes via tempest.Bitset's
	// extension words).
	if nodes <= 0 || nodes > 4096 {
		panic(fmt.Sprintf("memory: node count %d out of range [1,4096]", nodes))
	}
	return &AddressSpace{
		blockSize:  blockSize,
		blockShift: uint(bits.TrailingZeros(uint(blockSize))),
		blockMask:  ^Addr(blockSize - 1),
		nodes:      nodes,
		zero:       make([]byte, blockSize),
	}
}

// BlockSize returns the machine-wide cache-block size in bytes.
func (as *AddressSpace) BlockSize() int { return as.blockSize }

// Nodes returns the number of nodes sharing the address space.
func (as *AddressSpace) Nodes() int { return as.nodes }

// Regions returns all allocated regions in creation order.
func (as *AddressSpace) Regions() []*Region { return as.regions }

// NewRegion allocates a region of the given size whose blocks are homed by
// home (block index within region -> node).
func (as *AddressSpace) NewRegion(name string, size int64, home func(blockIdx int64) int) *Region {
	if size <= 0 || size > int64(offsetMask) {
		panic(fmt.Sprintf("memory: region size %d out of range", size))
	}
	r := &Region{
		ID:   len(as.regions),
		Name: name,
		Size: size,
		as:   as,
		home: home,
	}
	as.regions = append(as.regions, r)
	return r
}

// Region returns the region containing the address.
func (as *AddressSpace) Region(a Addr) *Region {
	id := a.RegionID()
	if id < 0 || id >= len(as.regions) {
		panic(fmt.Sprintf("memory: address %#x in unknown region %d", uint64(a), id))
	}
	return as.regions[id]
}

// BlockOf returns the block containing the address.
func (as *AddressSpace) BlockOf(a Addr) Block { return a & as.blockMask }

// BlockIndex returns the region-local block index of a block. Block size
// is a power of two, so this is a shift — cheap enough for the dense
// block-state tables (internal/blockstate) to use it on every access.
func (as *AddressSpace) BlockIndex(b Block) int64 { return b.Offset() >> as.blockShift }

// HomeOf returns the home node of the block containing the address.
func (as *AddressSpace) HomeOf(a Addr) int {
	r := as.Region(a)
	return r.HomeOf(as.BlockIndex(a))
}

// Contiguous reports whether b follows a immediately in the same region
// (the coalescing criterion for bulk pre-send messages).
func (as *AddressSpace) Contiguous(a, b Block) bool {
	return a.RegionID() == b.RegionID() && b.Offset()-a.Offset() == int64(as.blockSize)
}

// Line is one cache block's state on one node.
type Line struct {
	Tag  Tag
	Data []byte
}

// The line table is a radix over the region-local block index: a region
// holds one pointer per 4096-block chunk, a chunk 64 page pointers, a page
// 64 line pointers. Chunks and pages (512 bytes each) appear on first
// touch, so huge sparsely-touched regions (tree arenas) cost memory
// proportional to the blocks a node holds, not to the region's size.
const (
	pageBits   = 6
	pageSize   = 1 << pageBits
	chunkBits  = 12
	chunkPages = 1 << (chunkBits - pageBits)
	maxSlab    = 64 // lines per slab once growth levels off
)

type (
	page  [pageSize]*Line
	chunk [chunkPages]*page
)

// Store is one node's view of the shared address space: a radix line
// table per region. Home-owned lines materialize lazily with a ReadWrite
// tag and zeroed data (their initial state); other nodes' lines
// materialize when the protocol installs data.
type Store struct {
	node int
	as   *AddressSpace
	// lines[regionID][chunk][page][slot]; nil entries are untouched.
	lines [][]*chunk
	// slab and data are the unused tails of the current slab: Line structs
	// and their bytes are carved off the front, and an exhausted slab is
	// replaced by a fresh one (4 lines, doubling to maxSlab), never
	// reallocated — so a *Line and its Data stay put for the Store's
	// lifetime, which the protocols rely on.
	slab []Line
	data []byte
	n    int // lines carved so far
}

// NewStore builds node's view of all regions allocated so far. Call after
// all regions are created.
func NewStore(as *AddressSpace, node int) *Store {
	s := &Store{node: node, as: as}
	s.lines = make([][]*chunk, len(as.regions))
	for _, r := range as.regions {
		s.lines[r.ID] = make([]*chunk, (r.NumBlocks()+(1<<chunkBits)-1)>>chunkBits)
	}
	return s
}

// Node returns the owning node's ID.
func (s *Store) Node() int { return s.node }

// AddressSpace returns the address space this store maps.
func (s *Store) AddressSpace() *AddressSpace { return s.as }

// Lines returns how many lines the node has materialized.
func (s *Store) Lines() int { return s.n }

// What lineAt does about a block the node has never touched.
const (
	missPeek   = iota // nothing: report nil
	missHome          // materialize it if this node is its home
	missCreate        // materialize it
)

// lineAt walks the radix to a's line. The two compares stand where the
// compiler would put its own bounds checks, so the hit path pays nothing
// for the better message.
func (s *Store) lineAt(a Addr, miss int) *Line {
	rid := a.RegionID()
	if uint(rid) >= uint(len(s.lines)) {
		panic(s.outside(rid, 0))
	}
	chunks, idx := s.lines[rid], a.Offset()>>s.as.blockShift
	if uint64(idx>>chunkBits) >= uint64(len(chunks)) {
		panic(s.outside(rid, idx))
	}
	if ch := chunks[idx>>chunkBits]; ch != nil {
		if pg := ch[idx>>pageBits&(chunkPages-1)]; pg != nil {
			if l := pg[idx&(pageSize-1)]; l != nil {
				return l
			}
		}
	}
	r := s.as.regions[rid]
	if idx >= r.NumBlocks() {
		panic(s.outside(rid, idx))
	}
	if miss == missPeek {
		return nil
	}
	return s.slowLine(r, chunks, idx, miss == missCreate)
}

// outside words the panic for an access beyond the mapped regions or past
// a region's end.
func (s *Store) outside(rid int, idx int64) string {
	if rid >= len(s.lines) {
		return fmt.Sprintf("memory: node %d: access to unmapped region %d (%d mapped)", s.node, rid, len(s.lines))
	}
	r := s.as.regions[rid]
	return fmt.Sprintf("memory: node %d: block %d outside region %d %q (%d bytes, %d blocks)", s.node, idx, rid, r.Name, r.Size, r.NumBlocks())
}

// slowLine materializes untouched lines: home-owned blocks appear in their
// initial ReadWrite state; remote blocks appear only when create is set
// (as Invalid lines with storage).
func (s *Store) slowLine(r *Region, chunks []*chunk, idx int64, create bool) *Line {
	home := r.HomeOf(idx) == s.node
	if !home && !create {
		return nil
	}
	ch := chunks[idx>>chunkBits]
	if ch == nil {
		ch = new(chunk)
		chunks[idx>>chunkBits] = ch
	}
	pg := ch[idx>>pageBits&(chunkPages-1)]
	if pg == nil {
		pg = new(page)
		ch[idx>>pageBits&(chunkPages-1)] = pg
	}
	l := s.carve()
	if home {
		l.Tag = ReadWrite
	}
	pg[idx&(pageSize-1)] = l
	return l
}

// carve takes the next Invalid, zeroed line off the current slab.
func (s *Store) carve() *Line {
	if len(s.slab) == 0 {
		k := min(s.n+4, maxSlab) // 4, 8, 16, 32: each slab doubles the Store
		s.slab = make([]Line, k)
		s.data = make([]byte, k*s.as.blockSize)
	}
	l, bs := &s.slab[0], s.as.blockSize
	l.Data = s.data[:bs:bs]
	s.slab, s.data = s.slab[1:], s.data[bs:]
	s.n++
	return l
}

// Line returns the node's line for block b, or nil if none materialized.
func (s *Store) Line(b Block) *Line { return s.lineAt(b, missHome) }

// Tag returns the node's access tag for the block containing a.
func (s *Store) Tag(a Addr) Tag {
	if l := s.lineAt(a, missHome); l != nil {
		return l.Tag
	}
	return Invalid
}

// Peek reads block b without materializing it, for validation code that
// must not grow the Store it inspects: a never-touched home block reads as
// ReadWrite over the address space's shared zero block (read-only), a
// never-touched remote one as Invalid with nil data.
func (s *Store) Peek(b Block) (Tag, []byte) {
	if l := s.lineAt(b, missPeek); l != nil {
		return l.Tag, l.Data
	}
	if s.as.HomeOf(b) == s.node {
		return ReadWrite, s.as.zero
	}
	return Invalid, nil
}

// Ensure returns the node's line for block b, materializing an Invalid
// line with zeroed storage if needed.
func (s *Store) Ensure(b Block) *Line { return s.lineAt(b, missCreate) }

// Install copies data into the node's line for b and sets its tag.
func (s *Store) Install(b Block, data []byte, tag Tag) {
	l := s.Ensure(b)
	copy(l.Data, data)
	l.Tag = tag
}

// SetTag changes the tag of an existing line; it panics if the line has
// never been materialized (protocol bug).
func (s *Store) SetTag(b Block, tag Tag) {
	l := s.lineAt(b, missHome)
	if l == nil {
		panic(fmt.Sprintf("memory: node %d: SetTag on absent line %#x", s.node, uint64(b)))
	}
	l.Tag = tag
}

// Data returns the node's backing bytes for block b (it panics if absent).
func (s *Store) Data(b Block) []byte {
	l := s.lineAt(b, missHome)
	if l == nil {
		panic(fmt.Sprintf("memory: node %d: Data of absent line %#x", s.node, uint64(b)))
	}
	return l.Data
}

// run is the one access check behind every load and store: it panics on
// an address not aligned to size, walks to a's line, and returns the
// line's bytes from a to the end of its block when the tag is at least
// need — nil on an access fault. The caller may move any number of
// size-byte words out of (or into) the result for that one check.
func (s *Store) run(a Addr, size int64, need Tag) []byte {
	off := a.Offset()
	if off&(size-1) != 0 {
		panic(fmt.Sprintf("memory: misaligned %d-byte access at %#x", size, uint64(a)))
	}
	if l := s.lineAt(a, missHome); l != nil && l.Tag >= need {
		return l.Data[off&int64(s.as.blockSize-1):]
	}
	return nil
}

// LoadRun returns the node's bytes of a's block from a to the block's end
// for loading size-byte words, or nil on an access fault (tag Invalid).
// The bytes alias the line: they are read-only, and valid while its tag
// is unchanged.
func (s *Store) LoadRun(a Addr, size int64) []byte { return s.run(a, size, ReadOnly) }

// StoreRun is LoadRun for storing: the tag must be ReadWrite, and the
// caller may write the returned bytes.
func (s *Store) StoreRun(a Addr, size int64) []byte { return s.run(a, size, ReadWrite) }

// LoadF64 reads a float64; ok is false on an access fault.
func (s *Store) LoadF64(a Addr) (v float64, ok bool) {
	u, ok := s.LoadU64(a)
	return math.Float64frombits(u), ok
}

// StoreF64 writes a float64; ok is false on an access fault.
func (s *Store) StoreF64(a Addr, v float64) (ok bool) { return s.StoreU64(a, math.Float64bits(v)) }

// LoadU64 reads a uint64; ok is false on an access fault.
func (s *Store) LoadU64(a Addr) (v uint64, ok bool) {
	if d := s.LoadRun(a, 8); d != nil {
		return binary.LittleEndian.Uint64(d), true
	}
	return 0, false
}

// StoreU64 writes a uint64; ok is false on an access fault.
func (s *Store) StoreU64(a Addr, v uint64) (ok bool) {
	d := s.StoreRun(a, 8)
	if d != nil {
		binary.LittleEndian.PutUint64(d, v)
	}
	return d != nil
}

// LoadU32 reads a uint32; ok is false on an access fault.
func (s *Store) LoadU32(a Addr) (v uint32, ok bool) {
	if d := s.LoadRun(a, 4); d != nil {
		return binary.LittleEndian.Uint32(d), true
	}
	return 0, false
}

// StoreU32 writes a uint32; ok is false on an access fault.
func (s *Store) StoreU32(a Addr, v uint32) (ok bool) {
	d := s.StoreRun(a, 4)
	if d != nil {
		binary.LittleEndian.PutUint32(d, v)
	}
	return d != nil
}
