package predict

import (
	"fmt"
	"math/bits"
	"sort"

	"presto/internal/causal"
	"presto/internal/memory"
	"presto/internal/rt"
	"presto/internal/tempest"
)

// Calibrate distills a completed calibration run — a machine executed
// with rt.Config.Profile and rt.Config.Record both enabled — into the
// analytical model's tables. The machine must have finished its Run.
// It closes each node's last record slice and otherwise only reads the
// record, so calibrating again gives the same tables.
func Calibrate(m *rt.Machine, app string) (*Calibration, error) {
	if m.Cfg.Nodes > MaxNodes {
		return nil, fmt.Errorf("predict: calibration at %d nodes exceeds the %d-node bound", m.Cfg.Nodes, MaxNodes)
	}
	if !m.Cfg.Profile || !m.Cfg.Record {
		return nil, fmt.Errorf("predict: calibration needs rt.Config.Profile and rt.Config.Record enabled")
	}
	prof, err := m.Profile(app)
	if err != nil {
		return nil, fmt.Errorf("predict: %w", err)
	}
	if err := prof.Validate(); err != nil {
		return nil, fmt.Errorf("predict: calibration profile invalid: %w", err)
	}
	n0 := m.Cfg.Nodes
	b0 := m.Cfg.BlockSize
	c := &Calibration{
		App:       app,
		Protocol:  string(m.Cfg.Protocol),
		Nodes:     n0,
		BlockSize: b0,
		Net:       m.Cfg.Net,
		ElapsedNS: int64(m.Elapsed()),
		bd0:       m.Breakdown(),
		ct0:       m.Counters(),
	}

	// Phase list: the union of phase IDs seen by any node's profile,
	// -1 (outside) first, then ascending.
	seen := map[int]bool{}
	var ids []int
	perNode := make([]map[int]causal.Buckets, n0)
	for i, np := range prof.PerNode {
		if i >= n0 {
			break
		}
		perNode[np.Node] = map[int]causal.Buckets{}
		for _, pa := range np.Phases {
			perNode[np.Node][pa.Phase] = pa.Buckets
			if !seen[pa.Phase] {
				seen[pa.Phase] = true
				ids = append(ids, pa.Phase)
			}
		}
	}
	sort.Ints(ids)

	names := map[int]string{}
	for _, id := range ids {
		if id == -1 {
			names[id] = "(outside)"
		} else {
			names[id] = m.PhaseName(id)
		}
	}

	c.phases = make([]phaseCal, len(ids))
	for pi, id := range ids {
		ph := &c.phases[pi]
		ph.id = id
		ph.name = names[id]
		ph.nodes = make([]nodeCal, n0)
		for n := 0; n < n0; n++ {
			b := perNode[n][id]
			nc := &ph.nodes[n]
			nc.compute = float64(b.ComputeNS)
			nc.transit = float64(b.TransitNS)
			nc.occupancy = float64(b.OccupancyNS)
			nc.service = float64(b.ServiceNS)
			nc.barrier = float64(b.BarrierNS)
			nc.stall = float64(b.StallNS)
			nc.presend = float64(b.PresendNS)
			// Same summation order as predict()'s busyT — the
			// identity-exactness guarantee depends on it.
			nc.busy0 = nc.compute + nc.stall + nc.transit + nc.occupancy +
				nc.service + nc.presend
			total := nc.busy0 + nc.barrier + float64(b.IdleNS)
			if total > ph.span0 {
				ph.span0 = total
			}
			if nc.busy0 > ph.busyCrit0 {
				ph.busyCrit0 = nc.busy0
			}
		}
		c.sumSpan0 += ph.span0
	}

	if err := c.buildShifts(m); err != nil {
		return nil, err
	}
	return c, nil
}

// setHomes stores each shift's dense fault-by-home counts
// ([shift][(phase*N0+n)*N0+h]) as the compressed rows Predict walks, and
// derives the target-independent sums over them: each row's
// calibration-network latency lamK0 and, at shift 0, each node's transit
// denominator tau0. Every sum runs in ascending home order, the order
// Predict's own sums use.
func (c *Calibration) setHomes(faultHome [][]int64) {
	n0 := c.Nodes
	rows := len(c.phases) * n0
	for k := range c.shifts {
		sc := &c.shifts[k]
		b1 := c.BlockSize << k
		sc.rowAt = make([]int32, rows+1)
		sc.lamK0 = make([]float64, rows)
		for row := 0; row < rows; row++ {
			n := row % n0
			for h, v := range faultHome[k][row*n0 : (row+1)*n0] {
				if v == 0 {
					continue
				}
				w := float64(v)
				sc.home = append(sc.home, int32(h))
				sc.count = append(sc.count, w)
				sc.lamK0[row] += w * lambda(c.Net, b1, n, h)
				if k == 0 {
					c.phases[row/n0].nodes[n].tau0 += w * tau(c.Net, b1, n, h)
				}
			}
			sc.rowAt[row+1] = int32(len(sc.home))
		}
	}
}

// nodeSeg is one node's recorded slice of a barrier segment.
type nodeSeg struct {
	node int32
	s    *tempest.Slice
}

// globalSeg groups the nodes' slices of one barrier segment. Segments
// execute in recorded order; within one, the replay reconstructs the
// interleaving from compressed compute time plus replay-incurred stalls.
type globalSeg struct {
	minAt int64
	pi    int32 // phase index into c.phases
	nodes []nodeSeg
}

// blkState is one coarse block's coherence state during replay: a
// modified owner (M) or a sharer set (S), plus a grace set of nodes
// whose copies were revoked but whose recall has not yet landed (the
// protocols defer recalls by a full miss round trip, so a displaced
// holder's burst keeps hitting until the grace deadline). Lazily
// initialized with the block's home as owner, mirroring the simulator's
// home-owned lines.
type blkState struct {
	owner      int32 // >= 0: that node holds the block modified
	sharers    uint64
	grace      uint64 // revoked holders still running on stale copies
	subs       uint64 // historical readers (pre-send subscribers)
	graceUntil int64
}

// mergeHeap orders a barrier segment's participants by the
// reconstructed time of their next access, ties to the lower slot (and
// so the lower node: a segment's slots ascend by node).
type mergeHeap struct {
	slots []int32 // binary min-heap of participant slots
	at    []int64 // [slot] reconstructed time of the slot's next access
}

func (h *mergeHeap) less(i, j int) bool {
	a, b := h.slots[i], h.slots[j]
	return h.at[a] < h.at[b] || h.at[a] == h.at[b] && a < b
}

// down sifts slot i toward the leaves until the heap order holds below it.
func (h *mergeHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h.slots) {
			return
		}
		if c+1 < len(h.slots) && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			return
		}
		h.slots[i], h.slots[c] = h.slots[c], h.slots[i]
		i = c
	}
}

// psTouch is one (block, node) pre-send arrival count within a phase.
type psTouch struct {
	b     memory.Block
	node  int
	count int64
}

const offMask40 = uint64(1)<<40 - 1

// buildShifts derives the fault tables for every block-size shift by
// replaying the recorded access trace through a coherence automaton at
// each coarse granularity. The per-node traces merge into one global
// time order; at shift k accesses map onto B0<<k-sized blocks and a
// write-invalidate (or, for the update protocol, write-update) state
// machine counts the faults each access would take. This captures both
// directions the per-phase aggregate counts cannot: spatial coalescing
// (a node's sweep over neighboring constituents becomes one acquisition)
// and false-sharing amplification (interleaved writers bounce the coarse
// block and re-fault accesses that hit at the calibration size).
// Pre-send counts coarsen by per-node MAX — one pre-send covers the
// coarse block.
func (c *Calibration) buildShifts(m *rt.Machine) error {
	n0 := c.Nodes
	shift0 := uint(bits.TrailingZeros(uint(c.BlockSize)))
	np := len(c.phases)
	phaseIdx := make(map[int32]int32, np)
	for pi := range c.phases {
		phaseIdx[int32(c.phases[pi].id)] = int32(pi)
	}

	// Group the nodes' recorded slices into global barrier segments, keyed
	// by (phase, iteration, occurrence), and concatenate the nodes' block
	// tables into one: node n's local block u is blocks[nodeOff[n]+u].
	// Nodes in order, each node's blocks in first-access order, is the
	// machine-wide first-seen order that fixes each coarse group's home.
	type instKey struct{ phase, iter, occ int32 }
	segMap := map[instKey]*globalSeg{}
	nodeOff := make([]uint32, n0)
	var blocks []memory.Block
	for n, node := range m.Nodes {
		if node.Rec == nil {
			return fmt.Errorf("predict: node %d has no communication record", n)
		}
		node.Rec.CloseSlice()
		nodeOff[n] = uint32(len(blocks))
		blocks = append(blocks, node.Rec.Blocks...)
		occ := map[[2]int32]int32{}
		for i := range node.Rec.Slices {
			s := &node.Rec.Slices[i]
			pk := [2]int32{s.Phase, s.Iter}
			key := instKey{s.Phase, s.Iter, occ[pk]}
			occ[pk]++
			gs := segMap[key]
			if gs == nil {
				// An unprofiled phase misses phaseIdx and folds into index 0, (outside).
				gs = &globalSeg{minAt: int64(s.First), pi: phaseIdx[s.Phase]}
				segMap[key] = gs
			} else if int64(s.First) < gs.minAt {
				gs.minAt = int64(s.First)
			}
			gs.nodes = append(gs.nodes, nodeSeg{node: int32(n), s: s})
		}
	}
	// Each segment's slices are in ascending node order, as appended.
	ordered := make([]*globalSeg, 0, len(segMap))
	for _, gs := range segMap {
		ordered = append(ordered, gs)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].minAt != ordered[j].minAt {
			return ordered[i].minAt < ordered[j].minAt
		}
		return ordered[i].nodes[0].node < ordered[j].nodes[0].node
	})

	update := c.Protocol == string(rt.ProtoUpdate)
	predictive := c.Protocol == string(rt.ProtoPredictive)

	fInt := make([][]int64, MaxShift+1)
	hInt := make([][]int64, MaxShift+1)
	qInt := make([][]int64, MaxShift+1)
	imbF := make([][]float64, MaxShift+1)
	var rInt, wInt, pInt [MaxShift + 1]int64
	for k := 0; k <= MaxShift; k++ {
		fInt[k] = make([]int64, np*n0)
		hInt[k] = make([]int64, np*n0*n0)
		qInt[k] = make([]int64, np*n0)
		imbF[k] = make([]float64, np)
	}

	clocks := make([]int64, n0)
	// Per merge slot: next access, next escaped gap, compressed offset.
	idx := make([]int, n0)
	esc := make([]int, n0)
	off := make([]int64, n0)
	stallAdj := make([]int64, n0)
	merge := mergeHeap{at: make([]int64, n0)}
	spanAcc := make([]int64, np)          // per phase: sum of segment spans
	busyAcc := make([]int64, np*n0)       // per (phase,node): total busy
	coarse := make([]uint32, len(blocks)) // [nodeOff[n]+u] -> coarse index
	chome := make([]int32, 0, len(blocks))
	cmap := map[uint64]uint32{}
	var written []uint32
	for k := 0; k <= MaxShift; k++ {
		sh := shift0 + uint(k)
		b1 := c.BlockSize << k
		// Map each calibration block onto its coarse group for this
		// shift and resolve the group's home once — the home of the
		// coarse block's first constituent in the calibration address
		// space (the home function is the application's; this is the
		// closest stand-in for the target geometry's assignment).
		clear(cmap)
		chome = chome[:0]
		for u, b := range blocks {
			blk := uint64(b)
			// Block-padded regions re-pad per element at every block
			// size — coarsening can never merge their accesses, so they
			// group by element (and keep their calibration home). Other
			// regions keep a block-size-independent layout: coarsening
			// shifts their offsets.
			ck := blk&^offMask40 | (blk&offMask40)>>sh
			base := blk&^offMask40 | (blk&offMask40)>>sh<<sh
			if st := m.PaddedStride(int(blk >> 40)); st > 0 {
				ck = blk&^offMask40 | uint64(int64(blk&offMask40)/st)
				base = blk
			}
			ci, ok := cmap[ck]
			if !ok {
				ci = uint32(len(chome))
				cmap[ck] = ci
				chome = append(chome, int32(m.AS.HomeOf(memory.Addr(base))))
			}
			coarse[u] = ci
		}
		state := make([]blkState, len(chome))
		for ci := range state {
			if update {
				state[ci] = blkState{owner: -1, sharers: uint64(1) << chome[ci]}
			} else {
				state[ci] = blkState{owner: chome[ci]}
			}
		}
		for i := range clocks {
			clocks[i] = 0
		}
		for i := range spanAcc {
			spanAcc[i] = 0
		}
		for i := range busyAcc {
			busyAcc[i] = 0
		}
		var prevStart int64
		for _, gs := range ordered {
			// Barrier: the segment starts when its slowest participant
			// arrives, never before the previous segment.
			segStart := prevStart
			for _, ns := range gs.nodes {
				if clocks[ns.node] > segStart {
					segStart = clocks[ns.node]
				}
			}
			prevStart = segStart
			// Every stream's first access is at dt 0, so the slots in
			// ascending order already form the heap.
			merge.slots = merge.slots[:0]
			for si := range gs.nodes {
				idx[si], esc[si], off[si], stallAdj[si] = 0, 0, 0, 0
				merge.at[si] = segStart
				merge.slots = append(merge.slots, int32(si))
			}
			written = written[:0]
			// Merge the participants' compressed streams by reconstructed
			// time: compute offsets plus the stalls replay has charged.
			// Only the node that just ran changes its stall, so only its
			// key moves.
			for len(merge.slots) > 0 {
				best := int(merge.slots[0])
				bt := merge.at[best]
				ns := &gs.nodes[best]
				accs := ns.s.Accs
				ref := accs[idx[best]].Ref
				write := ref&1 != 0
				idx[best]++

				ci := coarse[nodeOff[ns.node]+ref>>1]
				home := chome[ci]
				st := &state[ci]
				bit := uint64(1) << ns.node
				inGrace := st.grace&bit != 0 && bt < st.graceUntil
				fault := false
				if update {
					// Write-update: copies are never invalidated; any
					// node faults once to join the sharers, then hits.
					if st.sharers&bit == 0 {
						fault = true
						st.sharers |= bit
					}
				} else if write {
					if st.owner != ns.node && !inGrace {
						fault = true
						g := st.sharers
						if st.owner >= 0 {
							g |= uint64(1) << st.owner
						}
						st.grace = g &^ bit
						st.owner = ns.node
						st.sharers = 0
						if predictive {
							st.subs |= g &^ bit
							written = append(written, ci)
						}
					}
				} else {
					if predictive {
						st.subs |= bit
					}
					if st.owner != ns.node && st.sharers&bit == 0 && !inGrace {
						fault = true
						if st.owner >= 0 {
							st.grace |= uint64(1) << st.owner
							st.sharers = uint64(1) << st.owner
							st.owner = -1
						}
						st.sharers |= bit
					}
				}
				if fault {
					// The faulting node stalls a miss round trip, queued
					// behind any in-flight transfer of the same block
					// (coarse blocks concentrate contention at the home);
					// displaced holders keep hitting on stale copies
					// until the recall lands at roughly the same time.
					lam := int64(lambda(c.Net, b1, int(ns.node), int(home)))
					stallAdj[best] += lam
					st.graceUntil = bt + lam
					row := int(gs.pi)*n0 + int(ns.node)
					fInt[k][row]++
					hInt[k][row*n0+int(home)]++
					qInt[k][row] += lam
					if write {
						wInt[k]++
					} else {
						rInt[k]++
					}
				}
				if i := idx[best]; i < len(accs) {
					off[best] += ns.s.Gap(i, &esc[best])
					merge.at[best] = segStart + off[best] + stallAdj[best]
				} else {
					merge.slots[0] = merge.slots[len(merge.slots)-1]
					merge.slots = merge.slots[:len(merge.slots)-1]
				}
				merge.down(0)
			}
			// Predictive protocol: at the barrier, newly written blocks
			// are pre-sent to their historical readers, whose next reads
			// then hit without faulting.
			for _, ci := range written {
				st := &state[ci]
				st.sharers |= st.subs
			}
			// The segment's reconstructed span and per-node busy times.
			// Per phase the replay accumulates the critical path (sum of
			// segment spans, where a different node may be critical each
			// segment) and each node's total busy time; the gap between
			// them is the alternating-straggler slack that barriers
			// absorb. Its ratio across shifts drives slack prediction.
			var segSpan int64
			pi := int(gs.pi)
			for si := range gs.nodes {
				ns := &gs.nodes[si]
				busy := ns.s.Span + stallAdj[si]
				end := segStart + busy
				if end > clocks[ns.node] {
					clocks[ns.node] = end
				}
				if busy > segSpan {
					segSpan = busy
				}
				busyAcc[pi*n0+int(ns.node)] += busy
			}
			spanAcc[pi] += segSpan
		}
		for pi := 0; pi < np; pi++ {
			var maxBusy int64
			for n := 0; n < n0; n++ {
				if b := busyAcc[pi*n0+n]; b > maxBusy {
					maxBusy = b
				}
			}
			if sl := spanAcc[pi] - maxBusy; sl > 0 {
				imbF[k][pi] = float64(sl)
			}
		}
	}

	c.coarsenPresends(m, phaseIdx, shift0, n0, &pInt)

	c.setHomes(hInt)
	for k := 0; k <= MaxShift; k++ {
		sc := &c.shifts[k]
		sc.faults = make([]float64, np*n0)
		sc.imb = imbF[k]
		for i, v := range fInt[k] {
			sc.faults[i] = float64(v)
		}
		sc.reads = float64(rInt[k])
		sc.writes = float64(wInt[k])
		sc.presends = float64(pInt[k])
		sc.stallq = make([]float64, np*n0)
		for i, v := range qInt[k] {
			sc.stallq[i] = float64(v)
		}
	}
	return nil
}

// coarsenPresends folds the per-phase pre-send arrival counts into
// machine-wide totals per shift: within a coarse block a node's counts
// MAX across constituents, then sum over nodes and phases.
func (c *Calibration) coarsenPresends(m *rt.Machine, phaseIdx map[int32]int32, shift0 uint, n0 int, pInt *[MaxShift + 1]int64) {
	byPhase := map[int32][]psTouch{}
	for n, node := range m.Nodes {
		for id, blocks := range node.Rec.Presend {
			pi, ok := phaseIdx[int32(id)]
			if !ok {
				pi = 0
			}
			for b, cnt := range blocks {
				byPhase[pi] = append(byPhase[pi], psTouch{b: b, node: n, count: cnt})
			}
		}
	}
	maxP := make([]int64, n0)
	touched := make([]bool, n0)
	order := make([]int, 0, n0)
	for _, pres := range byPhase {
		sort.Slice(pres, func(i, j int) bool {
			if pres[i].b != pres[j].b {
				return pres[i].b < pres[j].b
			}
			return pres[i].node < pres[j].node
		})
		for k := 0; k <= MaxShift; k++ {
			sh := shift0 + uint(k)
			key := func(b memory.Block) uint64 {
				// Same element-vs-offset grouping as the fault replay:
				// padded regions never coalesce across elements.
				if st := m.PaddedStride(b.RegionID()); st > 0 {
					return uint64(b.RegionID())<<40 | uint64(b.Offset()/st)
				}
				return uint64(b.RegionID())<<40 | uint64(b.Offset())>>sh
			}
			for i := 0; i < len(pres); {
				j := i
				for j < len(pres) && key(pres[j].b) == key(pres[i].b) {
					j++
				}
				order = order[:0]
				for _, e := range pres[i:j] {
					if !touched[e.node] {
						touched[e.node] = true
						order = append(order, e.node)
					}
					if e.count > maxP[e.node] {
						maxP[e.node] = e.count
					}
				}
				for _, n := range order {
					pInt[k] += maxP[n]
					touched[n] = false
					maxP[n] = 0
				}
				i = j
			}
		}
	}
}
