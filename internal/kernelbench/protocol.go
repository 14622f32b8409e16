// Protocol-path benchmarks: the block-state hot paths of the dense paged
// storage layer (internal/blockstate) — directory churn, pre-send walk,
// deferral scan — and the shared-access hit path they guard. The map-reference backend is a test
// oracle and is not timed.
package kernelbench

import (
	"testing"

	"presto/internal/blockstate"
	"presto/internal/memory"
	"presto/internal/network"
	"presto/internal/schedule"
	"presto/internal/sim"
	"presto/internal/tempest"
)

// protocolCases returns the block-state workloads in stable order.
func protocolCases() []Case {
	return []Case{
		{"dir_churn_dense", benchDirChurn, true},
		{"presend_walk_repeat", benchPresendWalkRepeat, true},
		{"stache_deferral_scan_dense", benchDeferralScan, true},
		{"run_hits", benchRunHits, true},
	}
}

const (
	benchNodes  = 8
	benchBlocks = 512
)

func benchAS() (*memory.AddressSpace, *memory.Region) {
	as := memory.NewAddressSpace(benchNodes, 32)
	r := as.NewRegion("bench", benchBlocks*32, func(i int64) int { return int(i % benchNodes) })
	return as, r
}

// benchDirChurn is the home-directory steady state a protocol handler
// sees per message: resolve the entry for the request's block, resolve a
// second entry (the grant/ack side touches its own block), flip a
// sharer, and (every 16th op) queue and drain one pending request — the
// transient path whose buffers come from the directory slab. One op is
// one such handler-shaped sequence; the entry lookups are the cost the
// paged table attacks.
func benchDirChurn(b *testing.B) {
	b.ReportAllocs()
	as, r := benchAS()
	dir := tempest.NewDirectory(as)
	for i := int64(0); i < benchBlocks; i++ {
		e := dir.Entry(r.BlockAt(i))
		e.Sharers.Add(int(i) % benchNodes)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node := i % benchNodes
		e := dir.Entry(r.BlockAt(int64(i % benchBlocks)))
		e.Owner = node
		e2 := dir.Entry(r.BlockAt(int64((i * 7) % benchBlocks)))
		if e2.Sharers.Has(node) {
			e2.Sharers.Remove(node)
		} else {
			e2.Sharers.Add(node)
		}
		if i%16 == 0 {
			dir.PushPending(e, tempest.PendReq{Req: node})
			dir.PopPending(e)
		}
	}
}

// benchPresendWalkRepeat is the steady-state pre-send walk over a stable
// 512-entry schedule: iterate the cached block-ordered entry slice. One
// op is one full walk. This path must never allocate.
func benchPresendWalkRepeat(b *testing.B) {
	b.ReportAllocs()
	as, r := benchAS()
	p := schedule.NewPhase(as, 1, blockstate.Dense)
	for i := int64(0); i < benchBlocks; i++ {
		p.RecordRead(r.BlockAt(i), int(i)%benchNodes)
	}
	p.Entries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		live := 0
		for _, e := range p.Entries() {
			if e.Mode != schedule.ModeConflict {
				live++
			}
		}
		if live != benchBlocks {
			b.Fatal(live)
		}
	}
}

// benchDeferralScan is the Stache deferral shape: a sparse set of blocks
// (32 of 512) carries a packed flags byte; each op scans the active set
// in block order and churns one record (set + clear on an existing
// page). One op is one scan.
func benchDeferralScan(b *testing.B) {
	b.ReportAllocs()
	as, r := benchAS()
	st := blockstate.New[uint8](as, blockstate.Dense)
	for i := int64(0); i < benchBlocks; i += 16 {
		v, _ := st.Ensure(r.BlockAt(i))
		*v = uint8(1 + i%3)
	}
	sum := 0
	visit := func(_ memory.Block, v *uint8) { sum += int(*v) }
	churn := r.BlockAt(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ForEach(visit)
		v, _ := st.Ensure(churn)
		*v = uint8(i)
		st.Remove(churn)
	}
	if sum == 0 {
		b.Fatal("empty scan")
	}
}

// benchRunHits is the block-run access path on resident lines: a compute
// processor loads an 8-word run starting mid-block (three blocks at 32
// bytes), bumps a word, and stores the run back, every line already home
// and ReadWrite. One op is one load run plus one store run. Guarded: a
// hit may not allocate.
func benchRunHits(b *testing.B) {
	b.ReportAllocs()
	as := memory.NewAddressSpace(1, 32)
	r := as.NewRegion("runs", benchBlocks*32, func(int64) int { return 0 })
	n := tempest.NewNode(0, as, network.CM5(), benchProto{})
	k := sim.NewKernel()
	ops := b.N
	k.Spawn("compute", func(p *sim.Proc) {
		var run [8]float64
		for i := int64(0); i < benchBlocks; i++ {
			n.WriteF64s(p, r.BlockAt(i), run[:4]) // materialize every line
		}
		for i := 0; i < ops; i++ {
			a := r.BlockAt(int64(i % (benchBlocks - 2))).Add(16)
			n.ReadF64s(p, a, run[:])
			run[0]++
			n.WriteF64s(p, a, run[:])
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
