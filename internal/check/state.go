package check

import (
	"presto/internal/core"
	"presto/internal/memory"
	"presto/internal/rt"
	"presto/internal/schedule"
	"presto/internal/stache"
	"presto/internal/tempest"
)

// StateHash folds the machine's protocol state — every node's directory
// entries, cache-side deferral flags and (for the predictive protocol)
// schedule tables — into one 64-bit FNV-1a hash. All iteration is in
// deterministic ascending order, so two runs of the same program hash
// equal exactly when their protocol state is identical. The chaos
// storage differential relies on it at quiescence (the dense and map
// backends must converge to the same state, not merely the same memory);
// the explorer (explore.go) extends it to states with messages in flight.
func StateHash(m *rt.Machine) uint64 {
	h := newHash()
	h.protocol(m)
	return uint64(h)
}

// fnvHash is an FNV-1a accumulator over 64-bit words.
type fnvHash uint64

func newHash() fnvHash { return 14695981039346656037 }

func (h *fnvHash) mix(v uint64) {
	for i := 0; i < 8; i++ {
		*h = (*h ^ fnvHash(v&0xff)) * 1099511628211
		v >>= 8
	}
}

// bits packs flags into a word, the first in bit 0.
func bits(fs ...bool) (v uint64) {
	for i, f := range fs {
		if f {
			v |= 1 << i
		}
	}
	return v
}

// set folds a node set in canonically — member count then each member in
// ascending order — so the hash depends only on set content, never on
// the set's internal word layout.
func (h *fnvHash) set(s tempest.Bitset) {
	h.mix(uint64(s.Count()))
	s.ForEach(func(n int) { h.mix(uint64(n)) })
}

func (h *fnvHash) protocol(m *rt.Machine) {
	for _, n := range m.Nodes {
		h.mix(uint64(n.ID))
		// Home directory: entry states, sharer sets, owners, the open
		// invalidation round and queued requests, in ascending block
		// order. No entry is in AwaitAcks at quiescence.
		n.Dir.ForEach(func(b memory.Block, e *tempest.DirEntry) {
			h.mix(uint64(b))
			h.mix(uint64(e.State))
			h.set(e.Sharers)
			h.mix(uint64(int64(e.Owner)))
			if e.State == tempest.DirAwaitAcks {
				h.mix(uint64(e.AcksLeft))
				h.mix(uint64(int64(e.Grantee)))
				h.mix(bits(e.GranteeWrite, e.GranteePresend))
			}
			h.mix(uint64(e.PendingLen()))
			e.ForEachPending(func(pr tempest.PendReq) {
				h.mix(uint64(pr.Req)<<2 | bits(pr.Write, pr.Presend))
			})
		})
		// Cache-side deferral flags (Stache state underlies all three
		// protocols).
		stache.StateOf(n).ForEachDeferred(func(b memory.Block, flags uint8) {
			h.mix(uint64(b))
			h.mix(uint64(flags))
		})
		// Predictive communication schedules, by phase then block.
		if p, ok := m.Proto.(*core.Predictive); ok {
			p.ScheduleTable(n).ForEach(func(ph *schedule.Phase) {
				h.mix(uint64(ph.ID))
				for _, e := range ph.Entries() {
					h.mix(uint64(e.Block))
					h.mix(uint64(e.Mode))
					h.set(e.Readers)
					h.mix(uint64(int64(e.Writer)))
				}
			})
		}
	}
}
