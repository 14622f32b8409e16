package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// spawnLoopRef is the goroutine reference a handler Proc must be
// indistinguishable from: the same body behind a Recv loop.
func spawnLoopRef(k *Kernel, name string, fn func(*Proc, Delivery)) *Proc {
	p := k.Spawn(name, func(p *Proc) {
		for {
			fn(p, p.Recv())
		}
	})
	p.SetDaemon(true)
	return p
}

type spawnHandlerFunc func(k *Kernel, name string, fn func(*Proc, Delivery)) *Proc

// Message-graph workload for the differential test: n "nodes", each a
// goroutine compute Proc and a handler sharing a lane. Computes issue bursts
// of requests and wait for the replies (a fault), sleep, and meet at a
// barrier each round; handlers forward a request for a few hops — to any
// handler, themselves included — and then reply to the origin. Every Proc
// draws from its own generator, so choices depend only on the order in which
// that Proc sees events.
const (
	graphL    = 4 * Microsecond // narrowest cross-lane delay
	graphCost = 3 * graphL      // barrier cost: clears every lane's horizon
)

func graphPairLookahead(i, j int) Time {
	if i/2 == j/2 {
		return graphL
	}
	return 3 * graphL
}

type graphReq struct{ origin, hops int }
type graphReply struct{}

type graphOutcome struct {
	err    error
	stats  KernelStats
	clocks []Time
	slots  []AttrSlot
	edges  []Edge
	total  int64
	log    []string
}

type xorshift uint64

func (x *xorshift) next(n int) int {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return int(uint64(*x) % uint64(n))
}

func runGraph(seed uint64, n, rounds int, spawn spawnHandlerFunc, par *ParallelConfig) graphOutcome {
	k := NewKernel()
	rec := k.EnableRecorder(64) // small enough to wrap: eviction order is compared too
	var log []string
	computes := make([]*Proc, n)
	handlers := make([]*Proc, n+1)
	slots := make([]AttrSlot, 2*n+1)
	bar := k.NewBarrier(n, graphCost)
	delay := func(rng *xorshift, from, to int) Time {
		if from == to {
			return Time(rng.next(3)) * 300 * Nanosecond // zero included: in-window posts
		}
		return graphPairLookahead(from, to) + Time(rng.next(2000))
	}
	// Computes spawn first and open with a zero-delay send at time 0: the
	// earliest delivery a handler can see, right behind the spawn resumes.
	for i := 0; i < n; i++ {
		i := i
		rng := xorshift(seed*977 + uint64(i)*2 + 1)
		computes[i] = k.Spawn(fmt.Sprintf("c%d", i), func(p *Proc) {
			p.Send(handlers[i], graphReq{origin: i, hops: 1}, 0)
			early := 1
			for r := 0; r < rounds; r++ {
				p.Advance(Time(rng.next(5000)))
				burst := 1 + rng.next(3)
				for q := 0; q < burst; q++ {
					dst := rng.next(n)
					p.Send(handlers[dst], graphReq{origin: i, hops: rng.next(4)}, delay(&rng, i, dst))
				}
				p.SetWaitCat(CatStall)
				for q := 0; q < burst+early; q++ {
					p.Recv()
				}
				early = 0
				if rng.next(3) == 0 {
					p.Sleep(Time(rng.next(3000)))
				}
				line := fmt.Sprintf("c%d r%d at %v", i, r, p.now)
				p.OnCommit(func() { log = append(log, line) })
				p.SetWaitCat(CatBarrier)
				p.Wait(bar)
			}
		})
		computes[i].SetAttrSlot(&slots[i])
	}
	for h := 0; h <= n; h++ {
		h := h
		lane := h % n // handler n is a second handler on lane 0
		rng := xorshift(seed*1013 + uint64(h)*2 + 2)
		handlers[h] = spawn(k, fmt.Sprintf("h%d", h), func(p *Proc, d Delivery) {
			m := d.Msg.(graphReq)
			p.Advance(Time(200 + rng.next(800)))
			line := fmt.Sprintf("h%d from %d hops %d arrived %v now %v", h, m.origin, m.hops, d.At, p.now)
			p.OnCommit(func() { log = append(log, line) })
			if m.hops > 0 {
				next := rng.next(n + 1)
				p.Send(handlers[next], graphReq{m.origin, m.hops - 1}, delay(&rng, lane, next%n))
				return
			}
			p.Send(computes[m.origin], graphReply{}, delay(&rng, lane, m.origin))
		})
		handlers[h].SetRunCat(CatService)
		handlers[h].SetAttrSlot(&slots[n+h])
	}
	// Spawned last and never messaged: its spawn resume is its only event.
	spawn(k, "quiet", func(*Proc, Delivery) { panic("quiet handler got a message") })

	var err error
	if par == nil {
		err = k.Run()
	} else {
		cfg := *par
		cfg.Lanes = n
		cfg.LaneOf = func(p *Proc) int {
			if p.id < n {
				return p.id
			}
			return (p.id - n) % n
		}
		err = k.RunParallel(cfg)
	}
	out := graphOutcome{err: err, stats: k.Stats(), slots: slots, edges: rec.Edges(), total: rec.Total(), log: log}
	for _, p := range k.Procs() {
		out.clocks = append(out.clocks, p.now)
	}
	return out
}

// TestHandlerProcMatchesSpawnLoop is the equivalence the handler Proc rests
// on: under every engine configuration, SpawnHandler and the Recv-loop
// goroutine produce the same statistics, clocks, edge ring, attribution
// and effect order.
func TestHandlerProcMatchesSpawnLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // let Workers: 4 really fan out
	engines := []struct {
		name string
		par  *ParallelConfig
	}{
		{"serial", nil},
		{"workers1", &ParallelConfig{Workers: 1, Lookahead: graphL}},
		{"workers4", &ParallelConfig{Workers: 4, Lookahead: graphL}},
		{"pair-workers1", &ParallelConfig{Workers: 1, PairLookahead: graphPairLookahead}},
		{"pair-workers4", &ParallelConfig{Workers: 4, PairLookahead: graphPairLookahead}},
	}
	for seed := uint64(1); seed <= 6; seed++ {
		n, rounds := 2+int(seed%3)*2, 4+int(seed%4)
		want := runGraph(seed, n, rounds, spawnLoopRef, nil)
		if want.err != nil {
			t.Fatalf("seed %d: reference run: %v", seed, want.err)
		}
		if len(want.log) == 0 || want.total <= int64(len(want.edges)) {
			t.Fatalf("seed %d: workload too small: %d effects, %d edges of %d retained",
				seed, len(want.log), len(want.edges), want.total)
		}
		for i, c := range want.clocks[:2*n+1] {
			if sum := want.slots[i].Sum(); sum != c {
				t.Fatalf("seed %d: proc %d attribution %v != clock %v", seed, i, sum, c)
			}
		}
		for _, e := range engines {
			for _, impl := range []struct {
				name  string
				spawn spawnHandlerFunc
			}{{"handler", (*Kernel).SpawnHandler}, {"loop", spawnLoopRef}} {
				got := runGraph(seed, n, rounds, impl.spawn, e.par)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d %s/%s diverges from the serial Recv-loop reference:\n%s",
						seed, e.name, impl.name, diffOutcome(got, want))
				}
			}
		}
	}
}

func diffOutcome(got, want graphOutcome) string {
	var b strings.Builder
	if got.err != want.err {
		fmt.Fprintf(&b, "err: %v vs %v\n", got.err, want.err)
	}
	if got.stats != want.stats {
		fmt.Fprintf(&b, "stats: %+v vs %+v\n", got.stats, want.stats)
	}
	if !reflect.DeepEqual(got.clocks, want.clocks) {
		fmt.Fprintf(&b, "clocks: %v vs %v\n", got.clocks, want.clocks)
	}
	if !reflect.DeepEqual(got.slots, want.slots) {
		fmt.Fprintf(&b, "attribution slots differ\n")
	}
	if got.total != want.total || !reflect.DeepEqual(got.edges, want.edges) {
		fmt.Fprintf(&b, "edge ring differs (%d vs %d recorded)\n", got.total, want.total)
	}
	for i := 0; i < len(got.log) && i < len(want.log); i++ {
		if got.log[i] != want.log[i] {
			fmt.Fprintf(&b, "effect %d: %q vs %q\n", i, got.log[i], want.log[i])
			break
		}
	}
	if len(got.log) != len(want.log) {
		fmt.Fprintf(&b, "effects: %d vs %d\n", len(got.log), len(want.log))
	}
	return b.String()
}

func TestHandlerProcCannotBlock(t *testing.T) {
	for _, c := range []struct {
		op   string
		call func(p *Proc, b *Barrier)
	}{
		{"Recv", func(p *Proc, _ *Barrier) { p.Recv() }},
		{"Sleep", func(p *Proc, _ *Barrier) { p.Sleep(Microsecond) }},
		{"Wait", func(p *Proc, b *Barrier) { p.Wait(b) }},
	} {
		k := NewKernel()
		b := k.NewBarrier(2, Microsecond)
		h := k.SpawnHandler("stubborn", func(p *Proc, _ Delivery) { c.call(p, b) })
		k.Spawn("sender", func(p *Proc) { p.Send(h, 1, Microsecond) })
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, c.op) || !strings.Contains(msg, `"stubborn"`) {
					t.Errorf("%s on a handler Proc: panic %q does not name the call and the Proc", c.op, msg)
				}
			}()
			_ = k.Run()
		}()
	}
}

// waitGoroutines fails the test unless the goroutine count returns to base.
// A goroutine the kernel has released still needs a moment to exit.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the run:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoGoroutineOutlivesRun: however the engine stops, every Proc goroutine
// is gone when it returns.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	pingPong := func(k *Kernel) (a, b *Proc) {
		b = k.Spawn("b", func(p *Proc) {
			for {
				d := p.Recv()
				p.Send(d.From, d.Msg, 10*Microsecond)
			}
		})
		a = k.Spawn("a", func(p *Proc) {
			p.Send(b, 0, 10*Microsecond)
			for {
				d := p.Recv()
				p.Send(d.From, d.Msg, 10*Microsecond)
			}
		})
		return a, b
	}
	cases := []struct {
		name  string
		build func(k *Kernel)
		check func(t *testing.T, err error, panicked any)
	}{
		{"ok", func(k *Kernel) {
			// A goroutine daemon parked in Recv, a handler, a Proc that
			// finishes: the common shape of a successful run.
			d := k.Spawn("daemon", func(p *Proc) {
				for {
					p.Recv()
				}
			})
			d.SetDaemon(true)
			h := k.SpawnHandler("h", func(p *Proc, dl Delivery) { p.Send(d, dl.Msg, 10*Microsecond) })
			k.Spawn("main", func(p *Proc) { p.Send(h, 1, 10*Microsecond) })
		}, func(t *testing.T, err error, panicked any) {
			if err != nil || panicked != nil {
				t.Errorf("err %v, panic %v", err, panicked)
			}
		}},
		{"deadlock", func(k *Kernel) {
			k.Spawn("a", func(p *Proc) { p.Recv() })
			k.Spawn("b", func(p *Proc) { p.Recv() })
		}, func(t *testing.T, err error, _ any) {
			if _, ok := err.(*DeadlockError); !ok {
				t.Errorf("want DeadlockError, got %v", err)
			}
		}},
		{"runaway", func(k *Kernel) {
			pingPong(k)
			k.Spawn("never-started", func(p *Proc) { p.Recv() })
			k.MaxEvents = 2 // stops before the third spawn resume
		}, func(t *testing.T, err error, _ any) {
			if _, ok := err.(*RunawayError); !ok {
				t.Errorf("want RunawayError, got %v", err)
			}
		}},
		{"panic", func(k *Kernel) {
			a, _ := pingPong(k)
			k.Spawn("boom", func(p *Proc) {
				p.Send(a, 0, 50*Microsecond)
				p.Sleep(100 * Microsecond)
				panic("boom")
			})
		}, func(t *testing.T, _ error, panicked any) {
			if panicked != "boom" {
				t.Errorf("want panic boom, got %v", panicked)
			}
		}},
		{"handler-panic", func(k *Kernel) {
			a, _ := pingPong(k)
			h := k.SpawnHandler("h", func(p *Proc, _ Delivery) { panic("boom") })
			k.Spawn("trigger", func(p *Proc) {
				p.Send(a, 0, 50*Microsecond)
				p.Send(h, 0, 100*Microsecond)
				p.Recv()
			})
		}, func(t *testing.T, _ error, panicked any) {
			if panicked != "boom" {
				t.Errorf("want panic boom, got %v", panicked)
			}
		}},
	}
	engines := []struct {
		name string
		par  *ParallelConfig
	}{
		{"serial", nil},
		{"chain", &ParallelConfig{Workers: 1, Lookahead: 10 * Microsecond}},
		{"pool", &ParallelConfig{Workers: 2, Lookahead: 10 * Microsecond}},
	}
	for _, c := range cases {
		for _, e := range engines {
			t.Run(c.name+"/"+e.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				k := NewKernel()
				c.build(k)
				var err error
				panicked := func() (r any) {
					defer func() { r = recover() }()
					if e.par == nil {
						err = k.Run()
					} else {
						err = k.RunParallel(*e.par)
					}
					return nil
				}()
				c.check(t, err, panicked)
				waitGoroutines(t, base)
			})
		}
	}
}

// TestReapRunsDeferredCalls: a released Proc unwinds through its body's
// deferred calls, one Proc at a time, without re-entering the kernel.
func TestReapRunsDeferredCalls(t *testing.T) {
	k := NewKernel()
	unwound := 0
	for i := 0; i < 4; i++ {
		k.Spawn(fmt.Sprintf("stuck%d", i), func(p *Proc) {
			defer func() { unwound++ }() // unsynchronised: the race detector checks "one at a time"
			p.Recv()
		})
	}
	if _, ok := k.Run().(*DeadlockError); !ok {
		t.Fatal("want a deadlock")
	}
	if unwound != 4 {
		t.Fatalf("%d of 4 deferred calls ran before Run returned", unwound)
	}
}
