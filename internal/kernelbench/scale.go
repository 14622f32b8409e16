// Kilonode-scale benchmarks: the hot paths 1024-node runs lean on — the
// node-leader aggregation flush and the batched barrier release.
package kernelbench

import (
	"fmt"
	"testing"

	"presto/internal/memory"
	"presto/internal/network"
	"presto/internal/sim"
	"presto/internal/tempest"
)

// scaleCases returns the kilonode workloads in stable order.
func scaleCases() []Case {
	return []Case{
		{"agg_flush64", benchAggFlush64, true},
		{"barrier1024_release", benchBarrier1024, true},
	}
}

// benchProto satisfies tempest.Protocol for substrate-level benchmarks:
// deliveries are absorbed, faults resolve locally.
type benchProto struct{}

func (benchProto) Name() string         { return "bench" }
func (benchProto) Init(n *tempest.Node) {}
func (benchProto) OnFault(n *tempest.Node, b memory.Block, w bool) bool {
	n.Store.Ensure(b)
	n.Store.SetTag(b, memory.ReadWrite)
	return true
}
func (benchProto) Handle(n *tempest.Node, d sim.Delivery) {}

// benchAggFlush64 drives the aggregation buffer through its occupancy
// flush in steady state: node 0 posts 8-entry cross-group bulks until
// the destination group's buffer hits the 64-entry cap, the flush
// coalesces them into one MsgAgg, and the group leader redistributes.
// One op is one coalesced bulk entry end to end (buffer, flush,
// leader hop, redistribution). Guarded: the buffering layer recycles
// its part slices through a pool, so the per-entry path may not
// allocate (the occasional message boxing amortizes far below one
// allocation per entry).
func benchAggFlush64(b *testing.B) {
	const (
		nodes      = 4
		entryBulk  = 8 // entries per posted bulk
		roundPosts = 8 // bulks per flush round (8 x 8 = occupancy cap)
		drain      = 500 * sim.Microsecond
	)
	b.ReportAllocs()
	net, err := network.Preset("cluster:2x2")
	if err != nil {
		b.Fatal(err)
	}
	k := sim.NewKernel()
	as := memory.NewAddressSpace(nodes, 32)
	r := as.NewRegion("agg", 1024, func(i int64) int { return int(i % nodes) })
	all := make([]*tempest.Node, nodes)
	for i := 0; i < nodes; i++ {
		all[i] = tempest.NewNode(i, as, net, benchProto{})
	}
	for _, n := range all {
		n.Peers = all
	}
	for _, n := range all {
		n := n
		n.ProtoProc = k.SpawnHandler("proto", n.HandleDelivery)
	}
	all[0].EnableAggregation()
	entries := make([]tempest.BulkEntry, entryBulk)
	for i := range entries {
		entries[i] = tempest.BulkEntry{Block: r.BlockAt(int64(i)), Data: make([]byte, 32)}
	}
	bulk := tempest.MsgBulk{Entries: entries}
	n := b.N
	k.Spawn("driver", func(p *sim.Proc) {
		sent := 0
		for sent < n {
			// One flush round: alternate destinations inside the remote
			// group so the aggregate carries several distinct parts.
			for j := 0; j < roundPosts; j++ {
				all[0].PostBulk(p, all[2+j%2], bulk)
			}
			sent += roundPosts * entryBulk
			p.Sleep(drain) // let the aggregate deliver and redistribute
		}
		all[0].FlushAgg(p)
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	if all[0].Stats.AggMsgs == 0 || all[0].AggPending() != 0 {
		b.Fatalf("aggregation not exercised: %d aggs, %d pending",
			all[0].Stats.AggMsgs, all[0].AggPending())
	}
}

// benchBarrier1024 measures the batched barrier release at kilonode
// width: 1024 procs arrive and the release wakes them in one pass. One
// op is one full barrier episode (1024 arrivals plus the release).
// Guarded: the arrive/release path may not allocate in steady state.
func benchBarrier1024(b *testing.B) {
	const procs = 1024
	b.ReportAllocs()
	k := sim.NewKernel()
	k.UseScheduler(sim.SchedWheel, sim.Microsecond, 2*procs)
	bar := k.NewBarrier(procs, 10*sim.Microsecond)
	n := b.N
	for i := 0; i < procs; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			for j := 0; j < n; j++ {
				p.Advance(sim.Microsecond)
				p.Wait(bar)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
