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
	bs := int64(r.as.blockSize)
	return (r.Size + bs - 1) / bs
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

// chunkBits sizes the second level of the line table: lines are grouped
// into chunks allocated on first touch, so huge sparsely-touched regions
// (tree arenas) cost memory proportional to use, not size.
const chunkBits = 12

const chunkSize = 1 << chunkBits

// Store is one node's view of the shared address space: a two-level line
// table per region. Home-owned lines materialize lazily with a ReadWrite
// tag and zeroed data (their initial state); other nodes' lines
// materialize when the protocol installs data.
type Store struct {
	node int
	as   *AddressSpace
	// lines[regionID][chunk][idxInChunk]; nil chunks/entries are
	// untouched.
	lines [][][]*Line
}

// NewStore builds node's view of all regions allocated so far. Call after
// all regions are created.
func NewStore(as *AddressSpace, node int) *Store {
	s := &Store{node: node, as: as}
	s.lines = make([][][]*Line, len(as.regions))
	for _, r := range as.regions {
		nChunks := (r.NumBlocks() + chunkSize - 1) >> chunkBits
		s.lines[r.ID] = make([][]*Line, nChunks)
	}
	return s
}

// Node returns the owning node's ID.
func (s *Store) Node() int { return s.node }

// AddressSpace returns the address space this store maps.
func (s *Store) AddressSpace() *AddressSpace { return s.as }

func (s *Store) lineAt(a Addr) *Line {
	rid := a.RegionID()
	if rid >= len(s.lines) {
		panic(fmt.Sprintf("memory: node %d: access to unmapped region %d", s.node, rid))
	}
	idx := a.Offset() >> s.as.blockShift
	ch := s.lines[rid][idx>>chunkBits]
	if ch == nil {
		return s.slowLine(rid, idx, false)
	}
	if l := ch[idx&(chunkSize-1)]; l != nil {
		return l
	}
	return s.slowLine(rid, idx, false)
}

// slowLine materializes untouched lines: home-owned blocks appear in their
// initial ReadWrite state; remote blocks appear only when create is set
// (as Invalid lines with storage).
func (s *Store) slowLine(rid int, idx int64, create bool) *Line {
	home := s.as.regions[rid].HomeOf(idx) == s.node
	if !home && !create {
		return nil
	}
	ch := s.lines[rid][idx>>chunkBits]
	if ch == nil {
		ch = make([]*Line, chunkSize)
		s.lines[rid][idx>>chunkBits] = ch
	}
	l := ch[idx&(chunkSize-1)]
	if l == nil {
		l = &Line{Tag: Invalid, Data: make([]byte, s.as.blockSize)}
		if home {
			l.Tag = ReadWrite
		}
		ch[idx&(chunkSize-1)] = l
	}
	return l
}

// Line returns the node's line for block b, or nil if none materialized.
func (s *Store) Line(b Block) *Line { return s.lineAt(b) }

// Tag returns the node's access tag for the block containing a.
func (s *Store) Tag(a Addr) Tag {
	if l := s.lineAt(a); l != nil {
		return l.Tag
	}
	return Invalid
}

// Ensure returns the node's line for block b, materializing an Invalid
// line with zeroed storage if needed.
func (s *Store) Ensure(b Block) *Line {
	rid := b.RegionID()
	idx := b.Offset() >> s.as.blockShift
	return s.slowLine(rid, idx, true)
}

// Install copies data into the node's line for b and sets its tag.
func (s *Store) Install(b Block, data []byte, tag Tag) {
	l := s.Ensure(b)
	copy(l.Data, data)
	l.Tag = tag
}

// SetTag changes the tag of an existing line; it panics if the line has
// never been materialized (protocol bug).
func (s *Store) SetTag(b Block, tag Tag) {
	l := s.lineAt(b)
	if l == nil {
		panic(fmt.Sprintf("memory: node %d: SetTag on absent line %#x", s.node, uint64(b)))
	}
	l.Tag = tag
}

// Data returns the node's backing bytes for block b (it panics if absent).
func (s *Store) Data(b Block) []byte {
	l := s.lineAt(b)
	if l == nil {
		panic(fmt.Sprintf("memory: node %d: Data of absent line %#x", s.node, uint64(b)))
	}
	return l.Data
}

func (s *Store) checkAlign(a Addr, size int64) (l *Line, off int64) {
	off = a.Offset()
	if off&(size-1) != 0 {
		panic(fmt.Sprintf("memory: misaligned %d-byte access at %#x", size, uint64(a)))
	}
	return s.lineAt(a), off & int64(s.as.blockSize-1)
}

// LoadF64 reads a float64; ok is false on an access fault.
func (s *Store) LoadF64(a Addr) (v float64, ok bool) {
	l, off := s.checkAlign(a, 8)
	if l == nil || l.Tag < ReadOnly {
		return 0, false
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(l.Data[off:])), true
}

// StoreF64 writes a float64; ok is false on an access fault.
func (s *Store) StoreF64(a Addr, v float64) (ok bool) {
	l, off := s.checkAlign(a, 8)
	if l == nil || l.Tag < ReadWrite {
		return false
	}
	binary.LittleEndian.PutUint64(l.Data[off:], math.Float64bits(v))
	return true
}

// LoadU64 reads a uint64; ok is false on an access fault.
func (s *Store) LoadU64(a Addr) (v uint64, ok bool) {
	l, off := s.checkAlign(a, 8)
	if l == nil || l.Tag < ReadOnly {
		return 0, false
	}
	return binary.LittleEndian.Uint64(l.Data[off:]), true
}

// StoreU64 writes a uint64; ok is false on an access fault.
func (s *Store) StoreU64(a Addr, v uint64) (ok bool) {
	l, off := s.checkAlign(a, 8)
	if l == nil || l.Tag < ReadWrite {
		return false
	}
	binary.LittleEndian.PutUint64(l.Data[off:], v)
	return true
}

// LoadU32 reads a uint32; ok is false on an access fault.
func (s *Store) LoadU32(a Addr) (v uint32, ok bool) {
	l, off := s.checkAlign(a, 4)
	if l == nil || l.Tag < ReadOnly {
		return 0, false
	}
	return binary.LittleEndian.Uint32(l.Data[off:]), true
}

// StoreU32 writes a uint32; ok is false on an access fault.
func (s *Store) StoreU32(a Addr, v uint32) (ok bool) {
	l, off := s.checkAlign(a, 4)
	if l == nil || l.Tag < ReadWrite {
		return false
	}
	binary.LittleEndian.PutUint32(l.Data[off:], v)
	return true
}
