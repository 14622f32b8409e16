// Package blockstate provides dense, paged storage for per-cache-block
// protocol state.
//
// Every protocol-side structure in the simulator — home directory
// entries, Stache deferral bookkeeping, communication-schedule entries —
// is keyed by memory.Block. Neighbouring blocks tend to be used
// together, so state lives in small pages of consecutive blocks, found
// through the line table's hashed page index (memory.Table): pages are
// allocated on first touch, occupancy bits make scans proportional to
// live entries, and ForEach walks blocks in ascending order.
//
// Two backends implement the same Store interface:
//
//   - Paged: the production backend. Pages of memory.PageBlocks inline
//     values; slot pointers are stable for the table's lifetime (pages
//     never move).
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

// page holds the slots of one line-table page's memory.PageBlocks blocks.
// occ marks live slots; the slots are inline so a page is one allocation
// and entries have no per-entry pointer.
type page[T any] struct {
	key   uint64 // memory.AddressSpace.PageKey of the page's blocks
	occ   uint8
	slots [memory.PageBlocks]T
}

// Paged is the dense production backend: a memory.Table from page key to
// page, so a table pays for the pages it touches. Pages are allocated on
// first touch and never move or go away.
type Paged[T any] struct {
	as    *memory.AddressSpace
	pages memory.Table[*page[T]] // allocated by the first Ensure
	order []*page[T]             // every page, ascending by key, for ForEach
	n     int
}

// NewPaged builds an empty dense table over the address space.
func NewPaged[T any](as *memory.AddressSpace) *Paged[T] {
	return &Paged[T]{as: as}
}

// locate resolves b to its page and slot, growing nothing.
func (p *Paged[T]) locate(b memory.Block) (pg *page[T], slot int) {
	slot = p.as.PageSlot(b)
	if pp := p.pages.Get(p.as.PageKey(b)); pp != nil {
		return *pp, slot
	}
	return nil, slot
}

// Get returns the value for b, or nil if absent.
func (p *Paged[T]) Get(b memory.Block) *T {
	pg, slot := p.locate(b)
	if pg == nil || pg.occ&(1<<slot) == 0 {
		return nil
	}
	return &pg.slots[slot]
}

// Ensure returns the value for b, materializing a zeroed slot if absent.
func (p *Paged[T]) Ensure(b memory.Block) (*T, bool) {
	pg, slot := p.locate(b)
	if pg == nil {
		pg = p.newPage(p.as.PageKey(b))
	}
	if pg.occ&(1<<slot) != 0 {
		return &pg.slots[slot], false
	}
	pg.occ |= 1 << slot
	p.n++
	return &pg.slots[slot], true
}

// newPage allocates the page with the given key and records it in the
// table and in order, which stays sorted by key.
func (p *Paged[T]) newPage(key uint64) *page[T] {
	pg := &page[T]{key: key}
	pp, _ := p.pages.Put(key)
	*pp = pg
	i := len(p.order)
	for i > 0 && p.order[i-1].key > key {
		i--
	}
	p.order = slices.Insert(p.order, i, pg)
	return pg
}

// Remove drops b's value and zeroes its slot so a later Ensure sees a
// fresh zero value.
func (p *Paged[T]) Remove(b memory.Block) {
	pg, slot := p.locate(b)
	if pg == nil || pg.occ&(1<<slot) == 0 {
		return
	}
	pg.occ &^= 1 << slot
	var zero T
	pg.slots[slot] = zero
	p.n--
}

// Len returns the number of live entries.
func (p *Paged[T]) Len() int { return p.n }

// ForEach visits live entries in ascending block order: pages in key
// order, occupancy bits low to high.
func (p *Paged[T]) ForEach(fn func(b memory.Block, v *T)) {
	for _, pg := range p.order {
		first := p.as.PageFirst(pg.key)
		for occ := pg.occ; occ != 0; occ &= occ - 1 {
			slot := bits.TrailingZeros8(occ)
			fn(first.Add(int64(slot)*int64(p.as.BlockSize())), &pg.slots[slot])
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
	if rid >= len(t.words) {
		t.words = append(t.words, make([][]uint64, rid+1-len(t.words))...)
	}
	idx := t.as.BlockIndex(b)
	w := int(idx >> 6)
	region := t.words[rid]
	if w >= len(region) {
		region = append(region, make([]uint64, w+1-len(region))...)
		t.words[rid] = region
	}
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
