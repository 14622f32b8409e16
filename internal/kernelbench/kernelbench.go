// Package kernelbench defines the simulator's hot-path workloads in one
// place: the event kernel, the block-state protocol paths, the
// aggregation flush and the analytical predictor. `go test -bench`
// (internal/sim) and the bench module's layer drivers time them, and
// TestZeroAllocCases holds the guarded ones to zero allocations per op.
//
// Every workload spawns fresh Procs on a fresh Kernel and counts one kernel
// "operation" per loop iteration, so its fixed set-up cost is independent
// of b.N.
package kernelbench

import (
	"fmt"
	"testing"

	"presto/internal/sim"
)

// Case is one kernel benchmark workload.
type Case struct {
	Name  string
	Bench func(b *testing.B)
	// ZeroAlloc marks a guarded hot path: TestZeroAllocCases fails if the
	// case allocates per operation once warmed up.
	ZeroAlloc bool
}

// Cases returns the hot-path workloads in stable order: the
// simulation-kernel paths first, then the block-state protocol paths
// (protocol.go), the analytical-predictor fast path (predict.go) and
// the kilonode paths (scale.go).
func Cases() []Case {
	return append([]Case{
		{"send_recv", benchSendRecv, true},
		{"handler_send_recv", benchHandlerSendRecv, true},
		{"send_recv_profiled", benchSendRecvProfiled, true},
		{"send_recv_chain", benchChain, true},
		{"send_recv_burst64", benchBurst, true},
		{"barrier8", benchBarrier, true},
		{"sleep_advance", benchSleep, true},
		{"mesh8_serial", benchMesh(0), false},
		{"mesh8_parallel4", benchMesh(4), false},
		{"window_commit8", benchMesh(1), false},
	}, append(protocolCases(), append(predictCases(), scaleCases()...)...)...)
}

// benchSendRecv is the canonical send/recv path: two Procs ping-pong one
// message per iteration. Each op is one full round trip (two deliveries,
// two resumes).
func benchSendRecv(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	var msg any = new(struct{})
	n := b.N
	pong := k.Spawn("pong", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			d := p.Recv()
			p.Send(d.From, msg, sim.Microsecond)
		}
	})
	k.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Send(pong, msg, sim.Microsecond)
			p.Recv()
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchHandlerSendRecv is benchSendRecv with the echo side a handler Proc —
// the shape of a fault: compute → protocol handler → compute. The handler's
// body runs inline on ping's goroutine and its reply reactivates ping there,
// so an op (two deliveries) involves no channel operation at all.
func benchHandlerSendRecv(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	var msg any = new(struct{})
	n := b.N
	pong := k.SpawnHandler("pong", func(p *sim.Proc, d sim.Delivery) {
		p.Send(d.From, msg, sim.Microsecond)
	})
	k.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Send(pong, msg, sim.Microsecond)
			p.Recv()
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchSendRecvProfiled is benchSendRecv with the causal flight recorder
// enabled and attribution slots attached: every delivery wake records an
// edge into the pre-allocated ring and charges the woken Proc's slot.
// Guarded zero-alloc: the recorder's steady state may not allocate.
func benchSendRecvProfiled(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	k.EnableRecorder(1 << 16)
	var slots [2]sim.AttrSlot
	var msg any = new(struct{})
	n := b.N
	pong := k.Spawn("pong", func(p *sim.Proc) {
		p.SetAttrSlot(&slots[0])
		for i := 0; i < n; i++ {
			d := p.Recv()
			p.Send(d.From, msg, sim.Microsecond)
		}
	})
	k.Spawn("ping", func(p *sim.Proc) {
		p.SetAttrSlot(&slots[1])
		for i := 0; i < n; i++ {
			p.Send(pong, msg, sim.Microsecond)
			p.Recv()
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchChain circulates a single token around an 8-proc ring: at every
// instant exactly one proc is runnable, so every dispatch is a direct
// proc-to-proc baton handoff (the chained-dispatch fast path) with no
// scheduler-goroutine bounce. Each op is one hop.
func benchChain(b *testing.B) {
	const procs = 8
	b.ReportAllocs()
	k := sim.NewKernel()
	var msg any = new(struct{})
	n := b.N
	ring := make([]*sim.Proc, procs)
	for i := 0; i < procs; i++ {
		i := i
		ring[i] = k.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			// Hop h is taken by proc h%procs; proc i forwards every
			// token it receives and exits once its share of n is done.
			hops := n / procs
			if i < n%procs {
				hops++
			}
			for h := 0; h < hops; h++ {
				if !(i == 0 && h == 0) {
					p.Recv()
				}
				p.Send(ring[(i+1)%procs], msg, sim.Microsecond)
			}
			if i == n%procs {
				p.Recv() // absorb the final hop's token so the ring drains
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchBurst drives the mailbox to depth 64 before the consumer drains it:
// the producer fires a burst while the consumer sleeps, so deliveries queue
// up and every Recv dequeues from a deep mailbox. A linear-time dequeue
// makes this workload quadratic in the burst size.
func benchBurst(b *testing.B) {
	const (
		burst  = 64
		window = 200 * sim.Microsecond
	)
	b.ReportAllocs()
	k := sim.NewKernel()
	var msg any = new(struct{})
	n := b.N
	cons := k.Spawn("cons", func(p *sim.Proc) {
		got := 0
		for got < n {
			p.Sleep(window) // deliveries queue but do not wake a sleeper
			for p.Pending() > 0 {
				p.Recv()
				got++
			}
		}
	})
	k.Spawn("prod", func(p *sim.Proc) {
		sent := 0
		for sent < n {
			m := burst
			if n-sent < m {
				m = n - sent
			}
			for j := 0; j < m; j++ {
				p.Send(cons, msg, sim.Microsecond)
			}
			sent += m
			p.Sleep(window) // yield so earlier bursts deliver; aligns with the consumer's next window
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchBarrier measures the barrier arrive/release path with 8 Procs.
// Each op is one barrier crossing by one Proc.
func benchBarrier(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	const procs = 8
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

// benchSleep measures the clock-advance + self-resume path: a single Proc
// alternating Advance and Sleep, one timer event per op.
func benchSleep(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	n := b.N
	k.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Advance(100 * sim.Nanosecond)
			p.Sleep(sim.Microsecond)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchMesh is an 8-proc ring where every proc forwards a message to its
// right neighbor each round — the parallel engine's best case (all lanes
// busy every window). workers selects the engine: 0 runs the serial
// dispatcher, 1 runs the parallel engine's serialized (chained
// window-commit) path, >1 runs the worker pool; the same workload under
// every engine makes their per-event overhead directly comparable. Each
// op is one round (8 sends + 8 receives).
func benchMesh(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		const (
			procs = 8
			delay = 10 * sim.Microsecond
		)
		b.ReportAllocs()
		k := sim.NewKernel()
		var msg any = new(struct{})
		n := b.N
		ring := make([]*sim.Proc, procs)
		for i := 0; i < procs; i++ {
			i := i
			ring[i] = k.Spawn(fmt.Sprintf("m%d", i), func(p *sim.Proc) {
				for r := 0; r < n; r++ {
					p.Send(ring[(i+1)%procs], msg, delay)
					p.Recv()
				}
			})
		}
		b.ResetTimer()
		var err error
		if workers > 0 {
			err = k.RunParallel(sim.ParallelConfig{Workers: workers, Lookahead: delay})
		} else {
			err = k.Run()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
