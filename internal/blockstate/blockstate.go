// Package blockstate provides dense, paged storage for per-cache-block
// protocol state.
//
// Every protocol-side structure in the simulator — home directory
// entries, Stache deferral bookkeeping, communication-schedule entries —
// is keyed by memory.Block. Blocks are dense integers within a region
// (AddressSpace.BlockIndex), so a paged array beats a hash table on both
// lookup cost and iteration order: pages are allocated on first touch,
// occupancy bitsets make scans proportional to live entries, and ForEach
// walks blocks in ascending order by construction.
//
// Two backends implement the same Store interface:
//
//   - Paged: the production backend. Per-region slices of fixed-size
//     pages holding inline values; slot pointers are stable for the
//     table's lifetime (pages never move).
//   - Hash: a retained map-based reference. It mirrors the pre-dense
//     implementation and exists so the chaos storage oracle
//     (internal/chaos) can run identical workloads against both backends
//     and demand identical protocol state at quiescence. ForEach sorts
//     keys, so its iteration order matches Paged exactly.
//
// Both backends guarantee deterministic ascending-block iteration; no
// caller needs a sort-at-call-site pattern.
package blockstate

import (
	"math/bits"
	"slices"
	"sort"

	"presto/internal/memory"
)

// Kind selects a Store backend.
type Kind string

const (
	// Dense is the paged production backend (the default; an empty Kind
	// means Dense).
	Dense Kind = "dense"
	// MapRef is the retained map-based reference backend, consulted by
	// the storage differential oracle in internal/chaos.
	MapRef Kind = "mapref"
)

// Store is per-block protocol state keyed by memory.Block. Values are
// addressed by pointer; pointers returned by Get/Ensure stay valid until
// Remove (Paged slots never move, Hash entries are heap-allocated).
type Store[T any] interface {
	// Get returns the value for b, or nil if absent.
	Get(b memory.Block) *T
	// Ensure returns the value for b, materializing a zero value if
	// absent; created reports whether this call materialized it.
	Ensure(b memory.Block) (v *T, created bool)
	// Remove drops b's value. Removing an absent block is a no-op.
	Remove(b memory.Block)
	// Len returns the number of live entries.
	Len() int
	// ForEach visits every live entry in ascending block order.
	ForEach(fn func(b memory.Block, v *T))
}

// New builds a Store of the given kind. An empty kind means Dense.
func New[T any](as *memory.AddressSpace, kind Kind) Store[T] {
	if kind == MapRef {
		return NewHash[T]()
	}
	return NewPaged[T](as)
}

// pageBits sizes a page at 64 slots — one occupancy word, and the geometry
// of memory.Store's line pages: small enough that sparsely-touched regions
// (arenas, where a node keeps state for a handful of blocks per window)
// cost memory proportional to use, large enough to amortize the two-level
// indirection over dense ones.
const pageBits = 6

const pageSlots = 1 << pageBits

// page holds a fixed window of block indices. occ marks live slots; the
// slots array is inline so a hot page is one allocation and entries have
// no per-entry pointer.
type page[T any] struct {
	occ   uint64
	slots [pageSlots]T
}

// Paged is the dense production backend.
type Paged[T any] struct {
	as *memory.AddressSpace
	// pages[regionID][pageIdx]; nil pages are untouched.
	pages [][]*page[T]
	n     int
}

// NewPaged builds an empty dense table over the address space.
func NewPaged[T any](as *memory.AddressSpace) *Paged[T] {
	return &Paged[T]{as: as}
}

// locate resolves b to its page and slot, growing nothing.
func (p *Paged[T]) locate(b memory.Block) (pg *page[T], slot int) {
	rid := b.RegionID()
	if rid >= len(p.pages) {
		return nil, 0
	}
	idx := p.as.BlockIndex(b)
	pi := int(idx >> pageBits)
	region := p.pages[rid]
	if pi >= len(region) {
		return nil, 0
	}
	return region[pi], int(idx & (pageSlots - 1))
}

// Get returns the value for b, or nil if absent.
func (p *Paged[T]) Get(b memory.Block) *T {
	pg, slot := p.locate(b)
	if pg == nil || pg.occ&(1<<uint(slot)) == 0 {
		return nil
	}
	return &pg.slots[slot]
}

// Ensure returns the value for b, materializing a zeroed slot if absent.
func (p *Paged[T]) Ensure(b memory.Block) (*T, bool) {
	// Fast path: the page already exists (steady state after warm-up).
	if pg, slot := p.locate(b); pg != nil {
		m := uint64(1) << uint(slot)
		if pg.occ&m != 0 {
			return &pg.slots[slot], false
		}
		pg.occ |= m
		p.n++
		return &pg.slots[slot], true
	}
	return p.ensureSlow(b)
}

// ensureSlow grows the region and page tables for b's first touch. It is
// only entered when b's page is nil.
func (p *Paged[T]) ensureSlow(b memory.Block) (*T, bool) {
	rid := b.RegionID()
	p.pages = growTo(p.pages, rid)
	idx := p.as.BlockIndex(b)
	pi := int(idx >> pageBits)
	p.pages[rid] = growTo(p.pages[rid], pi)
	pg := &page[T]{}
	p.pages[rid][pi] = pg
	slot := int(idx & (pageSlots - 1))
	pg.occ = uint64(1) << uint(slot)
	p.n++
	return &pg.slots[slot], true
}

// growTo extends s with zero values, in one step, until s[i] exists.
func growTo[E any](s []E, i int) []E {
	if i < len(s) {
		return s
	}
	return slices.Grow(s, i+1-len(s))[:i+1]
}

// Remove drops b's value and zeroes its slot so a later Ensure sees a
// fresh zero value.
func (p *Paged[T]) Remove(b memory.Block) {
	pg, slot := p.locate(b)
	if pg == nil {
		return
	}
	m := uint64(1) << uint(slot)
	if pg.occ&m == 0 {
		return
	}
	pg.occ &^= m
	var zero T
	pg.slots[slot] = zero
	p.n--
}

// Len returns the number of live entries.
func (p *Paged[T]) Len() int { return p.n }

// ForEach visits live entries in ascending block order: regions in ID
// order, pages in index order, occupancy bits low to high.
func (p *Paged[T]) ForEach(fn func(b memory.Block, v *T)) {
	regions := p.as.Regions()
	for rid, region := range p.pages {
		if region == nil {
			continue
		}
		r := regions[rid]
		for pi, pg := range region {
			if pg == nil {
				continue
			}
			base := int64(pi) << pageBits
			for word := pg.occ; word != 0; word &= word - 1 {
				slot := bits.TrailingZeros64(word)
				fn(r.BlockAt(base+int64(slot)), &pg.slots[slot])
			}
		}
	}
}

// Hash is the retained map-based reference backend.
type Hash[T any] struct {
	m map[memory.Block]*T
}

// NewHash builds an empty map-backed reference table.
func NewHash[T any]() *Hash[T] {
	return &Hash[T]{m: make(map[memory.Block]*T)}
}

// Get returns the value for b, or nil if absent.
func (h *Hash[T]) Get(b memory.Block) *T { return h.m[b] }

// Ensure returns the value for b, materializing a zero value if absent.
func (h *Hash[T]) Ensure(b memory.Block) (*T, bool) {
	if v, ok := h.m[b]; ok {
		return v, false
	}
	v := new(T)
	h.m[b] = v
	return v, true
}

// Remove drops b's value.
func (h *Hash[T]) Remove(b memory.Block) { delete(h.m, b) }

// Len returns the number of live entries.
func (h *Hash[T]) Len() int { return len(h.m) }

// ForEach visits live entries in ascending block order. The map is
// unordered, so keys are collected and sorted — this backend trades
// speed for being an independent reference, and its iteration order must
// match Paged exactly for the differential oracle.
func (h *Hash[T]) ForEach(fn func(b memory.Block, v *T)) {
	keys := make([]memory.Block, 0, len(h.m))
	for b := range h.m {
		keys = append(keys, b)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, b := range keys {
		fn(b, h.m[b])
	}
}

// BitTable is a dense per-block bit set (one bit per block, paged per
// region). It replaces map[memory.Block]bool membership sets on protocol
// hot paths: Set/Clear/Has are word operations, Count is O(1).
type BitTable struct {
	as *memory.AddressSpace
	// words[regionID][wordIdx]; grown on demand.
	words [][]uint64
	n     int
}

// NewBitTable builds an empty bit table over the address space.
func NewBitTable(as *memory.AddressSpace) *BitTable {
	return &BitTable{as: as}
}

// Set marks b and reports whether it was newly set.
func (t *BitTable) Set(b memory.Block) bool {
	rid := b.RegionID()
	t.words = growTo(t.words, rid)
	idx := t.as.BlockIndex(b)
	w := int(idx >> 6)
	region := growTo(t.words[rid], w)
	t.words[rid] = region
	m := uint64(1) << uint(idx&63)
	if region[w]&m != 0 {
		return false
	}
	region[w] |= m
	t.n++
	return true
}

// Clear unmarks b and reports whether it was set.
func (t *BitTable) Clear(b memory.Block) bool {
	rid := b.RegionID()
	if rid >= len(t.words) {
		return false
	}
	idx := t.as.BlockIndex(b)
	w := int(idx >> 6)
	region := t.words[rid]
	if w >= len(region) {
		return false
	}
	m := uint64(1) << uint(idx&63)
	if region[w]&m == 0 {
		return false
	}
	region[w] &^= m
	t.n--
	return true
}

// Has reports whether b is set.
func (t *BitTable) Has(b memory.Block) bool {
	rid := b.RegionID()
	if rid >= len(t.words) {
		return false
	}
	idx := t.as.BlockIndex(b)
	w := int(idx >> 6)
	region := t.words[rid]
	return w < len(region) && region[w]&(1<<uint(idx&63)) != 0
}

// Count returns the number of set blocks.
func (t *BitTable) Count() int { return t.n }

// Reset clears every bit, keeping capacity.
func (t *BitTable) Reset() {
	if t.n == 0 {
		return
	}
	for _, region := range t.words {
		for i := range region {
			region[i] = 0
		}
	}
	t.n = 0
}

// ForEach visits set blocks in ascending order.
func (t *BitTable) ForEach(fn func(b memory.Block)) {
	regions := t.as.Regions()
	for rid, region := range t.words {
		if len(region) == 0 {
			continue
		}
		r := regions[rid]
		for w, word := range region {
			for word != 0 {
				bit := bits.TrailingZeros64(word)
				word &= word - 1
				fn(r.BlockAt(int64(w<<6 + bit)))
			}
		}
	}
}
