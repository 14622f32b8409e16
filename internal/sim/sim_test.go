package sim

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingleProcAdvance(t *testing.T) {
	k := NewKernel()
	var end Time
	k.Spawn("p", func(p *Proc) {
		p.Advance(10 * Microsecond)
		p.Advance(5 * Microsecond)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 15*Microsecond {
		t.Fatalf("end = %v, want 15us", end)
	}
}

func TestAdvanceIgnoresNegative(t *testing.T) {
	k := NewKernel()
	var end Time
	k.Spawn("p", func(p *Proc) {
		p.Advance(10)
		p.Advance(-100)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 10 {
		t.Fatalf("end = %v, want 10", end)
	}
}

func TestSendRecvLatency(t *testing.T) {
	k := NewKernel()
	var gotAt, recvClock Time
	var payload any
	a := k.Spawn("a", func(p *Proc) {
		d := p.Recv()
		gotAt = d.At
		recvClock = p.Now()
		payload = d.Msg
	})
	k.Spawn("b", func(p *Proc) {
		p.Advance(3 * Microsecond)
		p.Send(a, "hello", 7*Microsecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if gotAt != 10*Microsecond || recvClock != 10*Microsecond {
		t.Fatalf("arrival = %v clock = %v, want 10us both", gotAt, recvClock)
	}
	if payload != "hello" {
		t.Fatalf("payload = %v", payload)
	}
}

func TestRecvDoesNotRewindClock(t *testing.T) {
	k := NewKernel()
	var clock Time
	a := k.Spawn("a", func(p *Proc) {
		p.Advance(100 * Microsecond) // busy past the arrival
		d := p.Recv()
		if d.At != 5*Microsecond {
			t.Errorf("arrival = %v, want 5us", d.At)
		}
		clock = p.Now()
	})
	k.Spawn("b", func(p *Proc) {
		p.Send(a, 1, 5*Microsecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if clock != 100*Microsecond {
		t.Fatalf("clock = %v, want 100us (no rewind)", clock)
	}
}

func TestMessagesDeliveredInTimestampOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	a := k.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, p.Recv().Msg.(int))
		}
	})
	k.Spawn("b", func(p *Proc) {
		p.Send(a, 3, 30*Microsecond)
		p.Send(a, 1, 10*Microsecond)
		p.Send(a, 2, 20*Microsecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestTieBreakBySequence(t *testing.T) {
	// Two messages with identical timestamps arrive in send order.
	k := NewKernel()
	var got []int
	a := k.Spawn("a", func(p *Proc) {
		got = append(got, p.Recv().Msg.(int), p.Recv().Msg.(int))
	})
	k.Spawn("b", func(p *Proc) {
		p.Send(a, 1, 5*Microsecond)
		p.Send(a, 2, 5*Microsecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

func TestTryRecv(t *testing.T) {
	k := NewKernel()
	a := k.Spawn("a", func(p *Proc) {
		if _, ok := p.TryRecv(); ok {
			t.Error("TryRecv on empty mailbox returned ok")
		}
		p.Recv()                 // block until the first message is there
		p.Sleep(5 * Microsecond) // let the second delivery event fire
		if p.Pending() != 1 {
			t.Errorf("pending = %d, want 1", p.Pending())
		}
		d, ok := p.TryRecv()
		if !ok || d.Msg.(int) != 2 {
			t.Errorf("TryRecv = %v %v", d, ok)
		}
	})
	k.Spawn("b", func(p *Proc) {
		p.Send(a, 1, Microsecond)
		p.Send(a, 2, 2*Microsecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReleasesAtMaxPlusCost(t *testing.T) {
	k := NewKernel()
	b := k.NewBarrier(3, 10*Microsecond)
	ends := make([]Time, 3)
	waits := make([]Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn("w", func(p *Proc) {
			p.Advance(Time(i+1) * 100 * Microsecond) // arrivals at 100,200,300us
			waits[i] = p.Wait(b)
			ends[i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, e := range ends {
		if e != 310*Microsecond {
			t.Fatalf("proc %d released at %v, want 310us", i, e)
		}
	}
	if waits[0] != 210*Microsecond || waits[2] != 10*Microsecond {
		t.Fatalf("waits = %v", waits)
	}
}

func TestBarrierReusable(t *testing.T) {
	k := NewKernel()
	b := k.NewBarrier(2, 0)
	var seq []int
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("w", func(p *Proc) {
			for round := 0; round < 3; round++ {
				p.Advance(Time(i+1) * Microsecond)
				p.Wait(b)
				if i == 0 {
					seq = append(seq, round)
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seq) != 3 {
		t.Fatalf("rounds = %v", seq)
	}
}

func TestSleepOrdersWithMessages(t *testing.T) {
	k := NewKernel()
	var order []string
	a := k.Spawn("a", func(p *Proc) {
		p.Sleep(50 * Microsecond)
		order = append(order, "woke")
		d, ok := p.TryRecv()
		if !ok || d.Msg.(string) != "early" {
			t.Errorf("expected queued early message, got %v %v", d, ok)
		}
	})
	k.Spawn("b", func(p *Proc) {
		p.Send(a, "early", 10*Microsecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 {
		t.Fatalf("order = %v", order)
	}
}

func TestDaemonAllowsCompletion(t *testing.T) {
	k := NewKernel()
	d := k.Spawn("daemon", func(p *Proc) {
		for {
			p.Recv()
		}
	})
	d.SetDaemon(true)
	k.Spawn("client", func(p *Proc) {
		p.Send(d, 1, Microsecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel()
	k.Spawn("stuck", func(p *Proc) {
		p.Recv() // nobody ever sends
	})
	err := k.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestPingPong(t *testing.T) {
	k := NewKernel()
	const rounds = 10
	const lat = 7 * Microsecond
	var aEnd Time
	var b *Proc
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Send(b, i, lat)
			p.Recv()
		}
		aEnd = p.Now()
	})
	b = k.Spawn("b", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			d := p.Recv()
			p.Send(d.From, d.Msg, lat)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := Time(rounds) * 2 * lat; aEnd != want {
		t.Fatalf("aEnd = %v, want %v", aEnd, want)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	t.Run("goroutine", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic to propagate from Run")
			}
		}()
		k := NewKernel()
		k.Spawn("boom", func(p *Proc) {
			panic("boom")
		})
		k.Run()
	})
	// A handler's panic belongs to the handler Proc, not to the Proc whose
	// goroutine happened to be dispatching.
	t.Run("handler", func(t *testing.T) {
		k := NewKernel()
		h := k.SpawnHandler("boom", func(*Proc, Delivery) { panic("boom") })
		sender := k.Spawn("sender", func(p *Proc) {
			p.Send(h, 1, Microsecond)
			p.Recv() // the delivery is dispatched, and panics, on this goroutine
		})
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("Run panicked with %v, want boom", r)
			}
			if h.panicVal != "boom" || h.err == nil || h.state != stateDone {
				t.Errorf("handler: panicVal %v, err %v, state %v", h.panicVal, h.err, h.state)
			}
			if sender.panicVal != nil || sender.err != nil {
				t.Errorf("the dispatching Proc took the blame: panicVal %v, err %v", sender.panicVal, sender.err)
			}
		}()
		k.Run()
	})
}

func TestRunTwiceFails(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}

// TestDeterminism runs a randomized message storm twice and requires
// identical completion times.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) Time {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		procs := make([]*Proc, 8)
		var last Time
		plan := make([][]int, 8) // delays per proc
		for i := range plan {
			for j := 0; j < 20; j++ {
				plan[i] = append(plan[i], rng.Intn(100)+1)
			}
		}
		done := k.NewBarrier(8, 0)
		for i := 0; i < 8; i++ {
			i := i
			procs[i] = k.Spawn("p", func(p *Proc) {
				for _, d := range plan[i] {
					p.Advance(Time(d) * Microsecond)
					p.Send(procs[(i+1)%8], d, Time(d)*Microsecond)
					for _, ok := p.TryRecv(); ok; _, ok = p.TryRecv() {
					}
				}
				p.Wait(done)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := k.Run(); err != nil {
			// Trailing undelivered messages to finished procs are fine;
			// deadlock is not.
			t.Fatal(err)
		}
		return last
	}
	if a, b := run(42), run(42); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

// Property: for any non-negative delays, a chain of sends accumulates
// exactly the sum of the delays.
func TestChainLatencyProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		delays := raw
		if len(delays) > 32 {
			delays = delays[:32]
		}
		if len(delays) == 0 {
			return true
		}
		k := NewKernel()
		procs := make([]*Proc, len(delays)+1)
		var end Time
		var want Time
		for _, d := range delays {
			want += Time(d)
		}
		for i := len(delays); i >= 0; i-- {
			i := i
			if i == len(delays) {
				procs[i] = k.Spawn("sink", func(p *Proc) {
					p.Recv()
					end = p.Now()
				})
				continue
			}
			procs[i] = k.Spawn("hop", func(p *Proc) {
				if i > 0 {
					p.Recv()
				}
				p.Send(procs[i+1], i, Time(delays[i]))
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		return end == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
