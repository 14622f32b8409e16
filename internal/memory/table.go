package memory

import "math/bits"

// Table is an open-addressed hash table from non-zero uint64 keys to
// inline values: Fibonacci multiply-shift hashing, linear probing, and a
// doubling above 3/4 load. Key 0 marks an empty slot. Nothing is ever
// deleted. The zero Table is empty and allocates on its first Put.
//
// Values live in the table's own array, so a *V from Get or Put is valid
// only until the next Put that grows the table. A caller that needs stable
// addresses stores pointers (or small arrays of them) as values: growth
// moves the pointers, never what they point to. The line table (Store)
// and the block-state pages (internal/blockstate) are both built this way.
type Table[V any] struct {
	// keys and vals are the slots, split so that a probe scans keys only:
	// a miss, which ends at an empty slot, reads few cache lines.
	keys  []uint64 // power-of-two length, or nil
	vals  []V
	shift uint8 // 64 - log2(len(keys)): a hash's top bits index a slot
	n     int
}

const (
	fibMul   = 0x9e3779b97f4a7c15 // 2^64 / φ: Fibonacci hashing's multiplier
	minSlots = 8
)

// Get returns key's value, or nil if the table holds none. (The shift is
// masked to 63, which it never exceeds, so the compiler adds no code for
// larger counts.)
func (t *Table[V]) Get(key uint64) *V {
	mask := uint64(len(t.keys) - 1)
	for i := key * fibMul >> (t.shift & 63); i < uint64(len(t.keys)); i = (i + 1) & mask {
		switch t.keys[i] {
		case key:
			return &t.vals[i]
		case 0:
			return nil
		}
	}
	return nil
}

// Put returns key's value, inserting a zero value if the table holds
// none; created reports whether it did.
func (t *Table[V]) Put(key uint64) (v *V, created bool) {
	if v := t.Get(key); v != nil {
		return v, false
	}
	if 4*(t.n+1) > 3*len(t.keys) {
		t.grow()
	}
	t.n++
	return t.claim(key), true
}

// claim takes the first free slot of key's probe chain for key.
func (t *Table[V]) claim(key uint64) *V {
	mask := uint64(len(t.keys) - 1)
	i := key * fibMul >> t.shift
	for t.keys[i] != 0 {
		i = (i + 1) & mask
	}
	t.keys[i] = key
	return &t.vals[i]
}

// grow doubles the slot arrays and re-places every key.
func (t *Table[V]) grow() {
	keys, vals := t.keys, t.vals
	size := max(2*len(keys), minSlots)
	t.keys, t.vals = make([]uint64, size), make([]V, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for i, k := range keys {
		if k != 0 {
			*t.claim(k) = vals[i]
		}
	}
}

// AppendKeys appends every key held to dst, in slot order.
func (t *Table[V]) AppendKeys(dst []uint64) []uint64 {
	for _, k := range t.keys {
		if k != 0 {
			dst = append(dst, k)
		}
	}
	return dst
}
