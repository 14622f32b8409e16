package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// expectPanic runs fn and fails unless it panics with want.
func expectPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != want {
			t.Errorf("panic %v, want %q", r, want)
		}
	}()
	fn()
}

// TestSpawnOnFinishedKernelPanics: nobody will ever dispatch a late Proc, so
// Spawn and SpawnHandler refuse before allocating its coroutine.
func TestSpawnOnFinishedKernelPanics(t *testing.T) {
	ends := []struct {
		name string
		run  func(k *Kernel)
	}{
		{"Run", func(k *Kernel) { _ = k.Run() }},
		{"RunParallel", func(k *Kernel) { _ = k.RunParallel(ParallelConfig{Workers: 2, Lookahead: Microsecond}) }},
		{"panic", func(k *Kernel) {
			k.Spawn("boom", func(*Proc) { panic("boom") })
			defer func() { recover() }()
			_ = k.Run()
		}},
	}
	for _, e := range ends {
		t.Run(e.name, func(t *testing.T) {
			k := NewKernel()
			k.Spawn("main", func(p *Proc) { p.Advance(Microsecond) })
			e.run(k)
			base := runtime.NumGoroutine()
			procs := len(k.Procs())
			const want = "sim: Spawn on a finished kernel"
			expectPanic(t, want, func() { k.Spawn("late", func(*Proc) {}) })
			expectPanic(t, want, func() { k.SpawnHandler("late", func(*Proc, Delivery) {}) })
			if n := runtime.NumGoroutine(); n != base {
				t.Errorf("%d goroutines after the late Spawns, %d before", n, base)
			}
			if len(k.Procs()) != procs {
				t.Error("a late Spawn registered a Proc")
			}
		})
	}
}

// TestReapRecoverLoopDaemon: a body that recovers every panic cannot swallow
// the kill. The daemon is reaped at once, through each deferred call once.
func TestReapRecoverLoopDaemon(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	inner, outer := 0, 0
	d := k.Spawn("stubborn", func(p *Proc) {
		defer func() { outer++ }()
		for {
			func() {
				defer func() {
					inner++
					recover()
				}()
				p.Recv()
			}()
		}
	})
	d.SetDaemon(true)
	k.Spawn("main", func(p *Proc) { p.Send(d, 1, Microsecond) })
	done := make(chan error, 1)
	go func() { done <- k.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Run did not return: the reaped body resurrected itself")
	}
	// One Recv returned a message, the next was parked when the kernel reaped it.
	if inner != 2 || outer != 1 {
		t.Errorf("deferred calls ran inner=%d outer=%d times, want 2 and 1", inner, outer)
	}
	waitGoroutines(t, base)
}

// TestReapNeverStartedProc: a runaway stop before a Proc's spawn resume was
// dispatched leaves a coroutine that never ran; reap releases it unrun. (The
// window engines check the guard per window, so there all three start.)
func TestReapNeverStartedProc(t *testing.T) {
	for _, par := range []*ParallelConfig{nil, {Workers: 1, Lookahead: Microsecond}, {Workers: 2, Lookahead: Microsecond}} {
		base := runtime.NumGoroutine()
		k := NewKernel()
		var ran [3]bool // one slot per Proc: under the pool each is its own lane
		for i := range ran {
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				ran[i] = true
				p.Recv()
			})
		}
		k.MaxEvents = 1
		var err error
		if par == nil {
			err = k.Run()
		} else {
			err = k.RunParallel(*par)
		}
		if _, ok := err.(*RunawayError); !ok {
			t.Fatalf("want RunawayError, got %v", err)
		}
		if par == nil && ran != [3]bool{true, false, false} {
			t.Errorf("bodies ran: %v, want only the first", ran)
		}
		waitGoroutines(t, base)
	}
}

// pingPongKernel builds two goroutine Procs exchanging rounds messages each way.
func pingPongKernel(rounds int) *Kernel {
	k := NewKernel()
	b := k.Spawn("b", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			d := p.Recv()
			p.Send(d.From, nil, Microsecond)
		}
	})
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Send(b, nil, Microsecond)
			p.Recv()
		}
	})
	return k
}

// TestSwitchesPingPongExact: every message wakes the other Proc, so a ping-pong
// costs one switch per message plus one to start each Proc — on every run —
// and a round trip allocates nothing.
func TestSwitchesPingPongExact(t *testing.T) {
	const rounds = 100
	for i := 0; i < 3; i++ {
		k := pingPongKernel(rounds)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got := k.Switches(); got != 2*rounds+2 {
			t.Fatalf("run %d: %d switches, want %d", i, got, 2*rounds+2)
		}
	}

	k := NewKernel()
	echo := k.Spawn("echo", func(p *Proc) {
		for {
			d := p.Recv()
			p.Send(d.From, nil, Microsecond)
		}
	})
	echo.SetDaemon(true)
	allocs := -1.0
	k.Spawn("main", func(p *Proc) {
		roundTrip := func() {
			p.Send(echo, nil, Microsecond)
			p.Recv()
		}
		for i := 0; i < wheelBuckets; i++ { // a full lap: every wheel bucket has its storage
			roundTrip()
		}
		allocs = testing.AllocsPerRun(200, roundTrip)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per round trip, want 0", allocs)
	}
}

// TestSwitchesSelfWakeFree: when the next event to wake anyone wakes the Proc
// that is dispatching — a Sleep, a self-delivery, a request answered entirely
// by handler Procs — it keeps running: the only switch is the one that started it.
func TestSwitchesSelfWakeFree(t *testing.T) {
	k := NewKernel()
	var home *Proc
	local := k.SpawnHandler("local", func(p *Proc, d Delivery) {
		p.Advance(Microsecond)
		p.Send(d.Msg.(*Proc), nil, Microsecond) // wake the faulting Proc
	})
	home = k.SpawnHandler("home", func(p *Proc, d Delivery) {
		p.Advance(Microsecond)
		p.Send(local, d.Msg, 10*Microsecond)
	})
	k.Spawn("main", func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Sleep(Microsecond)
			p.Send(p, nil, Microsecond)
			p.Recv()
			p.Send(home, p, 10*Microsecond) // request → home → local → reply
			p.Recv()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k.Switches(); got != 1 {
		t.Errorf("%d switches, want 1", got)
	}
	if st := k.Stats(); st.Events != 3+50*5 {
		t.Errorf("%d events, want %d", st.Events, 3+50*5)
	}
}

// TestLockedThreadMatchesUnlocked: on a goroutine locked to its OS thread the
// runtime's coroutine switch takes its slow path; the simulation is the same.
func TestLockedThreadMatchesUnlocked(t *testing.T) {
	run := func() (KernelStats, int64) {
		k := pingPongKernel(20)
		h := k.SpawnHandler("h", func(p *Proc, d Delivery) { p.Send(d.From, nil, Microsecond) })
		bar := k.NewBarrier(2, Microsecond)
		for i := 0; i < 2; i++ {
			k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				p.Sleep(Time(i+1) * Microsecond)
				p.Send(h, nil, Microsecond)
				p.Recv()
				p.Wait(bar)
			})
		}
		if err := k.Run(); err != nil {
			t.Error(err)
		}
		return k.Stats(), k.Switches()
	}
	want, wantSw := run()
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread() // never unlocked: the thread dies with this goroutine
		if got, sw := run(); got != want || sw != wantSw {
			t.Errorf("locked: %+v, %d switches; unlocked: %+v, %d switches", got, sw, want, wantSw)
		}
	}()
	<-done
}
