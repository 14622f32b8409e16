package sim

import (
	"errors"
	"fmt"
	"testing"
)

// mesh builds a deterministic message storm: n procs in a ring, each
// forwarding a counter to its right neighbor with the given delay, plus a
// barrier every burst messages. It returns a closure recording per-proc
// observations so serial and parallel runs can be compared field by field.
func mesh(n, rounds int, delay Time) (*Kernel, *[]string) {
	k := NewKernel()
	log := &[]string{}
	procs := make([]*Proc, n)
	bar := k.NewBarrier(n, 5*delay)
	for i := 0; i < n; i++ {
		i := i
		procs[i] = k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Advance(Time(i+1) * 100 * Nanosecond) // skew clocks
				p.Send(procs[(i+1)%n], r*n+i, delay)
				d := p.Recv()
				line := fmt.Sprintf("p%d r%d got %v at %v now %v", i, r, d.Msg, d.At, p.now)
				p.OnCommit(func() {
					*log = append(*log, line)
				})
				if r%3 == 2 {
					p.Wait(bar)
				}
			}
		})
	}
	return k, log
}

type runOutcome struct {
	err   error
	stats KernelStats
	times []Time
	log   []string
}

func runMesh(t *testing.T, n, rounds int, delay Time, par *ParallelConfig) runOutcome {
	t.Helper()
	k, log := mesh(n, rounds, delay)
	var err error
	if par == nil {
		err = k.Run()
	} else {
		err = k.RunParallel(*par)
	}
	var times []Time
	for _, p := range k.Procs() {
		times = append(times, p.now)
	}
	return runOutcome{err: err, stats: k.Stats(), times: times, log: *log}
}

func assertSameOutcome(t *testing.T, serial, parallel runOutcome) {
	t.Helper()
	if (serial.err == nil) != (parallel.err == nil) {
		t.Fatalf("error mismatch: serial %v, parallel %v", serial.err, parallel.err)
	}
	if serial.err != nil && serial.err.Error() != parallel.err.Error() {
		t.Fatalf("error mismatch:\nserial:   %v\nparallel: %v", serial.err, parallel.err)
	}
	if serial.stats != parallel.stats {
		t.Fatalf("kernel stats mismatch:\nserial:   %+v\nparallel: %+v", serial.stats, parallel.stats)
	}
	if len(serial.times) != len(parallel.times) {
		t.Fatalf("proc count mismatch")
	}
	for i := range serial.times {
		if serial.times[i] != parallel.times[i] {
			t.Fatalf("proc %d final time: serial %v, parallel %v", i, serial.times[i], parallel.times[i])
		}
	}
	if len(serial.log) != len(parallel.log) {
		t.Fatalf("log length: serial %d, parallel %d", len(serial.log), len(parallel.log))
	}
	for i := range serial.log {
		if serial.log[i] != parallel.log[i] {
			t.Fatalf("log[%d]:\nserial:   %s\nparallel: %s", i, serial.log[i], parallel.log[i])
		}
	}
}

func TestParallelMatchesSerialMesh(t *testing.T) {
	const (
		n      = 8
		rounds = 60
		delay  = 10 * Microsecond
	)
	serial := runMesh(t, n, rounds, delay, nil)
	if serial.err != nil {
		t.Fatalf("serial run: %v", serial.err)
	}
	for _, workers := range []int{1, 2, 8} {
		par := runMesh(t, n, rounds, delay, &ParallelConfig{Workers: workers, Lookahead: delay})
		assertSameOutcome(t, serial, par)
	}
}

// TestParallelMatchesSerialTightLookahead uses a lookahead much smaller
// than the message delay, forcing many small windows (including windows
// where only one lane is active).
func TestParallelMatchesSerialTightLookahead(t *testing.T) {
	serial := runMesh(t, 6, 40, 9*Microsecond, nil)
	if serial.err != nil {
		t.Fatalf("serial run: %v", serial.err)
	}
	par := runMesh(t, 6, 40, 9*Microsecond, &ParallelConfig{Workers: 4, Lookahead: 2 * Microsecond})
	assertSameOutcome(t, serial, par)
}

// TestParallelIntraLaneLocalMessages groups pairs of procs into shared
// lanes; messages within a pair use sub-lookahead delays (exercising fresh
// intra-window events), while cross-pair messages respect the lookahead.
func TestParallelIntraLaneLocalMessages(t *testing.T) {
	const (
		pairs     = 4
		rounds    = 30
		localD    = 500 * Nanosecond
		remoteD   = 20 * Microsecond
		lookahead = remoteD
	)
	build := func() (*Kernel, *[]string) {
		k := NewKernel()
		log := &[]string{}
		// front[i] and back[i] form lane i; front procs form a cross-lane ring.
		front := make([]*Proc, pairs)
		back := make([]*Proc, pairs)
		for i := 0; i < pairs; i++ {
			i := i
			back[i] = k.Spawn(fmt.Sprintf("back%d", i), func(p *Proc) {
				for r := 0; r < rounds; r++ {
					d := p.Recv()
					p.Advance(200 * Nanosecond)
					p.Send(d.From, d.Msg, localD) // local echo, far below lookahead
				}
			})
		}
		for i := 0; i < pairs; i++ {
			i := i
			front[i] = k.Spawn(fmt.Sprintf("front%d", i), func(p *Proc) {
				for r := 0; r < rounds; r++ {
					p.Send(back[i], r, localD)
					echo := p.Recv()
					p.Send(front[(i+1)%pairs], echo.Msg, remoteD)
					d := p.Recv()
					p.OnCommit(func() {
						*log = append(*log, fmt.Sprintf("front%d r%d %v@%v", i, r, d.Msg, d.At))
					})
				}
			})
		}
		return k, log
	}

	k, slog := build()
	serr := k.Run()
	if serr != nil {
		t.Fatalf("serial: %v", serr)
	}
	sstats := k.Stats()

	k2, plog := build()
	laneOf := func(p *Proc) int { return p.ID() % pairs } // back i ↔ front i share lane i
	perr := k2.RunParallel(ParallelConfig{Workers: 4, Lookahead: lookahead, Lanes: pairs, LaneOf: laneOf})
	if perr != nil {
		t.Fatalf("parallel: %v", perr)
	}
	if sstats != k2.Stats() {
		t.Fatalf("stats mismatch:\nserial:   %+v\nparallel: %+v", sstats, k2.Stats())
	}
	if len(*slog) != len(*plog) {
		t.Fatalf("log length: %d vs %d", len(*slog), len(*plog))
	}
	for i := range *slog {
		if (*slog)[i] != (*plog)[i] {
			t.Fatalf("log[%d]: %q vs %q", i, (*slog)[i], (*plog)[i])
		}
	}
}

func TestParallelDeadlockDetected(t *testing.T) {
	build := func() *Kernel {
		k := NewKernel()
		var a, b *Proc
		a = k.Spawn("a", func(p *Proc) {
			p.Recv() // never delivered
		})
		b = k.Spawn("b", func(p *Proc) {
			p.Recv()
		})
		_, _ = a, b
		return k
	}
	serial := build().Run()
	parallel := build().RunParallel(ParallelConfig{Workers: 2, Lookahead: Microsecond})
	var sde, pde *DeadlockError
	if !errors.As(serial, &sde) {
		t.Fatalf("serial: want DeadlockError, got %v", serial)
	}
	if !errors.As(parallel, &pde) {
		t.Fatalf("parallel: want DeadlockError, got %v", parallel)
	}
	if serial.Error() != parallel.Error() {
		t.Fatalf("deadlock reports differ:\nserial:   %v\nparallel: %v", serial, parallel)
	}
}

func TestParallelRunawayGuard(t *testing.T) {
	build := func() *Kernel {
		k := NewKernel()
		var a, b *Proc
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
		_ = a
		k.MaxEvents = 501
		return k
	}
	serial := build().Run()
	parallel := build().RunParallel(ParallelConfig{Workers: 2, Lookahead: 10 * Microsecond})
	var sre, pre *RunawayError
	if !errors.As(serial, &sre) {
		t.Fatalf("serial: want RunawayError, got %v", serial)
	}
	if !errors.As(parallel, &pre) {
		t.Fatalf("parallel: want RunawayError, got %v", parallel)
	}
	if *sre != *pre {
		t.Fatalf("runaway mismatch: serial %+v, parallel %+v", *sre, *pre)
	}
}

func TestParallelProcPanicPropagates(t *testing.T) {
	victims := map[string]func(k *Kernel) *Proc{
		"goroutine": func(k *Kernel) *Proc {
			return k.Spawn("victim", func(p *Proc) {
				p.Recv()
				panic("boom in proc")
			})
		},
		"handler": func(k *Kernel) *Proc {
			return k.SpawnHandler("victim", func(*Proc, Delivery) { panic("boom in proc") })
		},
	}
	for name, victim := range victims {
		run := func(par *ParallelConfig) (recovered any, log []string) {
			k := NewKernel()
			target := victim(k)
			k.Spawn("sender", func(p *Proc) {
				p.OnCommit(func() { log = append(log, "before") })
				p.Send(target, 1, 20*Microsecond)
				p.Sleep(30 * Microsecond)
				p.OnCommit(func() { log = append(log, "after") }) // past the panic's global position
			})
			defer func() { recovered = recover() }()
			if par != nil {
				_ = k.RunParallel(*par)
			} else {
				_ = k.Run()
			}
			return nil, log
		}
		s, slog := run(nil)
		for _, workers := range []int{1, 2} {
			p, plog := run(&ParallelConfig{Workers: workers, Lookahead: 5 * Microsecond})
			if s == nil || p == nil {
				t.Fatalf("%s: panic not propagated: serial %v, parallel %v", name, s, p)
			}
			if fmt.Sprint(s) != fmt.Sprint(p) {
				t.Fatalf("%s: panic values differ: %v vs %v", name, s, p)
			}
			if fmt.Sprint(slog) != "[before]" || fmt.Sprint(plog) != "[before]" {
				t.Fatalf("%s workers %d: effects committed around the panic: serial %v, parallel %v", name, workers, slog, plog)
			}
		}
	}
}

func TestParallelLookaheadViolationPanics(t *testing.T) {
	k := NewKernel()
	var a, b *Proc
	b = k.Spawn("b", func(p *Proc) {
		p.Recv()
	})
	a = k.Spawn("a", func(p *Proc) {
		p.Send(b, 1, Microsecond) // cross-lane delay below the configured lookahead
	})
	_ = a
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected lookahead-violation panic")
		}
	}()
	_ = k.RunParallel(ParallelConfig{Workers: 2, Lookahead: 50 * Microsecond})
}

func TestParallelRequiresLookahead(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic for zero lookahead")
		}
	}()
	_ = k.RunParallel(ParallelConfig{Workers: 2})
}

func TestSpawnDuringParallelRunPanics(t *testing.T) {
	k := NewKernel()
	k.Spawn("root", func(p *Proc) {
		p.k.Spawn("child", func(*Proc) {})
	})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic for Spawn during parallel run")
		}
	}()
	_ = k.RunParallel(ParallelConfig{Workers: 1, Lookahead: Microsecond})
}

// TestMailboxRingWraps exercises wraparound + growth of the mailbox ring.
func TestMailboxRingWraps(t *testing.T) {
	k := NewKernel()
	const msgs = 100
	var got []int
	cons := k.Spawn("cons", func(p *Proc) {
		// Alternate sleeping (letting deliveries pile up) and draining a few.
		for len(got) < msgs {
			p.Sleep(10 * Microsecond)
			for i := 0; i < 7; i++ {
				if d, ok := p.TryRecv(); ok {
					got = append(got, d.Msg.(int))
				}
			}
		}
	})
	k.Spawn("prod", func(p *Proc) {
		for i := 0; i < msgs; i++ {
			p.Send(cons, i, Microsecond)
			p.Sleep(2 * Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != msgs {
		t.Fatalf("got %d msgs", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
}
