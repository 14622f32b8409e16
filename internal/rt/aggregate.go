package rt

import (
	"fmt"

	"presto/internal/memory"
)

// Dist selects a computation/data distribution for 2-D aggregates
// (paper §4.1: C** provided block distributions on 1-D aggregates and
// row-block and tiled distributions on 2-D aggregates).
type Dist int

const (
	// RowBlock assigns contiguous bands of rows to nodes.
	RowBlock Dist = iota
	// Tiled assigns rectangular tiles to nodes.
	Tiled
)

// Grid2D is a two-dimensional aggregate of elements with a fixed number
// of float64 fields, distributed row-block or tiled.
type Grid2D struct {
	M          *Machine
	R          *memory.Region
	Rows, Cols int
	Fields     int
	Dist       Dist

	stride  int64 // bytes per element
	rowsPer int   // RowBlock rows per node
	tileR   int   // Tiled rows per tile
	tileC   int   // Tiled cols per tile
	tilesX  int   // Tiled: tiles per row of tiles (columns direction)
}

// NewGrid2D allocates a rows×cols aggregate with fields float64 members
// per element.
func (m *Machine) NewGrid2D(name string, rows, cols, fields int, dist Dist) *Grid2D {
	if rows <= 0 || cols <= 0 || fields <= 0 {
		panic(fmt.Sprintf("rt: bad grid shape %dx%dx%d", rows, cols, fields))
	}
	g := &Grid2D{
		M: m, Rows: rows, Cols: cols, Fields: fields, Dist: dist,
		stride: int64(fields) * 8,
	}
	nodes := m.Cfg.Nodes
	g.rowsPer = (rows + nodes - 1) / nodes
	// Tiled: factor the node count as close to square as possible.
	pr := 1
	for f := 1; f*f <= nodes; f++ {
		if nodes%f == 0 {
			pr = f
		}
	}
	pc := nodes / pr
	g.tileR = (rows + pr - 1) / pr
	g.tileC = (cols + pc - 1) / pc
	g.tilesX = pc
	size := int64(rows) * int64(cols) * g.stride
	g.R = m.AS.NewRegion(name, size, func(blockIdx int64) int {
		elem := blockIdx * int64(m.Cfg.BlockSize) / g.stride
		max := int64(rows)*int64(cols) - 1
		if elem > max {
			elem = max
		}
		return g.Owner(int(elem/int64(cols)), int(elem%int64(cols)))
	})
	return g
}

// Owner returns the node owning element (i,j) under the distribution.
func (g *Grid2D) Owner(i, j int) int {
	switch g.Dist {
	case Tiled:
		n := (i/g.tileR)*g.tilesX + j/g.tileC
		if n >= g.M.Cfg.Nodes {
			n = g.M.Cfg.Nodes - 1
		}
		return n
	default:
		n := i / g.rowsPer
		if n >= g.M.Cfg.Nodes {
			n = g.M.Cfg.Nodes - 1
		}
		return n
	}
}

// At returns the address of field f of element (i,j).
func (g *Grid2D) At(i, j, f int) memory.Addr {
	if i < 0 || i >= g.Rows || j < 0 || j >= g.Cols || f < 0 || f >= g.Fields {
		panic(fmt.Sprintf("rt: grid index (%d,%d,%d) out of range", i, j, f))
	}
	off := (int64(i)*int64(g.Cols)+int64(j))*g.stride + int64(f)*8
	return g.R.Addr(off)
}

// MyRows returns the half-open row interval owned by worker w (RowBlock).
func (g *Grid2D) MyRows(w *Worker) (lo, hi int) {
	lo = w.ID * g.rowsPer
	hi = lo + g.rowsPer
	if lo > g.Rows {
		lo = g.Rows
	}
	if hi > g.Rows {
		hi = g.Rows
	}
	return lo, hi
}

// MyTile returns the half-open row/col intervals owned by worker w (Tiled).
func (g *Grid2D) MyTile(w *Worker) (rlo, rhi, clo, chi int) {
	ti := w.ID / g.tilesX
	tj := w.ID % g.tilesX
	rlo, rhi = ti*g.tileR, (ti+1)*g.tileR
	clo, chi = tj*g.tileC, (tj+1)*g.tileC
	if rhi > g.Rows {
		rhi = g.Rows
	}
	if rlo > g.Rows {
		rlo = g.Rows
	}
	if chi > g.Cols {
		chi = g.Cols
	}
	if clo > g.Cols {
		clo = g.Cols
	}
	return rlo, rhi, clo, chi
}

// Array1D is a one-dimensional aggregate with a block distribution.
type Array1D struct {
	M      *Machine
	R      *memory.Region
	N      int
	Fields int

	stride int64
	per    int
}

// NewArray1D allocates an n-element aggregate with fields float64 members
// per element. padToBlock pads each element to a whole number of cache
// blocks (isolating elements from false sharing at the cost of space).
func (m *Machine) NewArray1D(name string, n, fields int, padToBlock bool) *Array1D {
	if n <= 0 || fields <= 0 {
		panic(fmt.Sprintf("rt: bad array shape %dx%d", n, fields))
	}
	a := &Array1D{M: m, N: n, Fields: fields, stride: int64(fields) * 8}
	if padToBlock {
		bs := int64(m.Cfg.BlockSize)
		a.stride = (a.stride + bs - 1) / bs * bs
	}
	a.per = (n + m.Cfg.Nodes - 1) / m.Cfg.Nodes
	size := int64(n) * a.stride
	a.R = m.AS.NewRegion(name, size, func(blockIdx int64) int {
		elem := blockIdx * int64(m.Cfg.BlockSize) / a.stride
		if elem >= int64(n) {
			elem = int64(n) - 1
		}
		return a.Owner(int(elem))
	})
	if padToBlock {
		if m.paddedStride == nil {
			m.paddedStride = map[int]int64{}
		}
		m.paddedStride[a.R.ID] = a.stride
	}
	return a
}

// PaddedStride returns the element stride of a block-padded array
// region, 0 for regions whose layout is block-size independent. A padded
// array re-pads each element to its own block(s) at whatever block size
// the machine is built with, so spatial coalescing across its element
// boundaries can never happen — the predictor's replay groups such
// regions by element instead of by coarsened offset.
func (m *Machine) PaddedStride(regionID int) int64 {
	return m.paddedStride[regionID]
}

// Owner returns the node owning element i.
func (a *Array1D) Owner(i int) int {
	n := i / a.per
	if n >= a.M.Cfg.Nodes {
		n = a.M.Cfg.Nodes - 1
	}
	return n
}

// At returns the address of field f of element i.
func (a *Array1D) At(i, f int) memory.Addr {
	if i < 0 || i >= a.N || f < 0 || f >= a.Fields {
		panic(fmt.Sprintf("rt: array index (%d,%d) out of range", i, f))
	}
	return a.R.Addr(int64(i)*a.stride + int64(f)*8)
}

// MyRange returns the half-open element interval owned by worker w.
func (a *Array1D) MyRange(w *Worker) (lo, hi int) {
	lo = w.ID * a.per
	hi = lo + a.per
	if lo > a.N {
		lo = a.N
	}
	if hi > a.N {
		hi = a.N
	}
	return lo, hi
}

// Arena is a shared-memory allocation region for dynamic structures
// (quad-trees, oct-trees). Each node allocates from its own segment, so
// allocated storage homes on the allocating node.
type Arena struct {
	M *Machine
	R *memory.Region

	segSize int64
	next    []int64 // per-node allocation cursor (segment-relative)
}

// NewArena allocates a shared arena of totalBytes split into equal
// per-node segments.
func (m *Machine) NewArena(name string, totalBytes int64) *Arena {
	nodes := int64(m.Cfg.Nodes)
	bs := int64(m.Cfg.BlockSize)
	seg := (totalBytes + nodes - 1) / nodes
	seg = (seg + bs - 1) / bs * bs // block-align segments
	a := &Arena{M: m, segSize: seg, next: make([]int64, nodes)}
	a.R = m.AS.NewRegion(name, seg*nodes, func(blockIdx int64) int {
		n := blockIdx * bs / seg
		if n >= nodes {
			n = nodes - 1
		}
		return int(n)
	})
	return a
}

// Alloc reserves bytes in node's segment. blockAlign starts the allocation
// on a cache-block boundary (isolating the object from false sharing).
// The returned address is always 8-byte aligned.
func (a *Arena) Alloc(node int, bytes int64, blockAlign bool) memory.Addr {
	if bytes <= 0 {
		panic("rt: arena alloc of non-positive size")
	}
	cur := a.start(node, blockAlign)
	if cur+bytes > a.segSize {
		panic(fmt.Sprintf("rt: arena %q segment of node %d exhausted (%d + %d > %d)",
			a.R.Name, node, cur, bytes, a.segSize))
	}
	a.next[node] = cur + bytes
	return a.R.Addr(int64(node)*a.segSize + cur)
}

// Fits reports whether Alloc(node, bytes, blockAlign) has room.
func (a *Arena) Fits(node int, bytes int64, blockAlign bool) bool {
	return a.start(node, blockAlign)+bytes <= a.segSize
}

// start is where node's next allocation begins.
func (a *Arena) start(node int, blockAlign bool) int64 {
	cur := a.next[node]
	if blockAlign {
		bs := int64(a.M.Cfg.BlockSize)
		return (cur + bs - 1) / bs * bs
	}
	return (cur + 7) &^ 7
}

// ResetNode empties one node's segment (e.g. rebuilding a tree each
// iteration into the same deterministic addresses). The caller must ensure
// no live shared pointers into the segment remain.
func (a *Arena) ResetNode(node int) { a.next[node] = 0 }

// Reset returns the arena to empty (between iterations that rebuild a
// structure from scratch). The caller must ensure no live shared pointers
// into the arena remain.
func (a *Arena) Reset() {
	for i := range a.next {
		a.next[i] = 0
	}
}

// Used reports the bytes allocated from node's segment.
func (a *Arena) Used(node int) int64 { return a.next[node] }
