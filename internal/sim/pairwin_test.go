package sim

import (
	"fmt"
	"strings"
	"testing"
)

// The tests in this file pin the per-lane-pair lookahead windows: the
// min-row clamp on asymmetric matrices, the exact commit boundary at the
// pair bound, the partitioned commit's lookahead-violation detector, and
// stealing-vs-serial identity.

// nearFar builds a three-proc workload with asymmetric causal distances:
// procs A and B ping-pong with a small delay while C exchanges with A at
// a 10x larger delay. With each proc on its own lane, the pair matrix is
// ragged — A and B have narrow causal horizons (their nearest neighbor is
// each other), C a wide one — exercising both the min-row window clamp
// and the per-lane horizon checks.
func nearFar(rounds int) (*Kernel, *[]string, Time, Time) {
	const (
		dNear = 4 * Microsecond
		dFar  = 40 * Microsecond
	)
	k := NewKernel()
	log := &[]string{}
	say := func(p *Proc, format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		p.OnCommit(func() { *log = append(*log, line) })
	}
	var a, b, c *Proc
	b = k.Spawn("b", func(p *Proc) {
		for r := 0; r < rounds; r++ {
			d := p.Recv()
			p.Advance(300 * Nanosecond)
			p.Send(d.From, d.Msg, dNear)
			say(p, "b r%d %v@%v", r, d.Msg, d.At)
		}
	})
	c = k.Spawn("c", func(p *Proc) {
		for r := 0; r < rounds; r++ {
			p.Send(a, 1000+r, dFar)
			d := p.Recv()
			say(p, "c r%d %v@%v now %v", r, d.Msg, d.At, p.now)
		}
	})
	a = k.Spawn("a", func(p *Proc) {
		for r := 0; r < rounds; r++ {
			p.Advance(150 * Nanosecond)
			p.Send(b, r, dNear)
			for i := 0; i < 2; i++ { // pong from b + this round's probe from c
				d := p.Recv()
				say(p, "a r%d %v@%v", r, d.Msg, d.At)
				if from, ok := d.Msg.(int); ok && from >= 1000 {
					p.Send(c, from+1, dFar)
				}
			}
		}
	})
	return k, log, dNear, dFar
}

// pairNearFar is the lookahead matrix for nearFar's lane layout (proc id
// == lane id): lanes 0 (b) and 2 (a) are near each other, lane 1 (c) is
// far from everyone.
func pairNearFar(dNear, dFar Time) func(i, j int) Time {
	return func(i, j int) Time {
		if (i == 0 && j == 2) || (i == 2 && j == 0) {
			return dNear
		}
		return dFar
	}
}

// TestPairLookaheadRaggedMatrixMatchesSerial runs the asymmetric workload
// under the pair matrix and demands outcome identity with the serial
// engine across worker counts, including the exact-edge case (the
// near-pair messages are delayed by exactly the pair bound, which is also
// the executed window width).
func TestPairLookaheadRaggedMatrixMatchesSerial(t *testing.T) {
	const rounds = 30
	run := func(par *ParallelConfig, rec bool) (runOutcome, *EngineFlight) {
		k, log, dNear, dFar := nearFar(rounds)
		if rec {
			k.EnableRecorder(1 << 16)
		}
		var err error
		if par == nil {
			err = k.Run()
		} else {
			cfg := *par
			cfg.PairLookahead = pairNearFar(dNear, dFar)
			err = k.RunParallel(cfg)
		}
		var times []Time
		for _, p := range k.Procs() {
			times = append(times, p.now)
		}
		return runOutcome{err: err, stats: k.Stats(), times: times, log: *log}, k.eng
	}
	serial, _ := run(nil, false)
	if serial.err != nil {
		t.Fatalf("serial: %v", serial.err)
	}
	for _, workers := range []int{1, 2, 3} {
		par, _ := run(&ParallelConfig{Workers: workers}, false)
		assertSameOutcome(t, serial, par)
	}
	par, eng := run(&ParallelConfig{Workers: 2}, true)
	assertSameOutcome(t, serial, par)
	if eng == nil || eng.Windows == 0 {
		t.Fatalf("flight recorder observed no windows: %+v", eng)
	}
}

// TestPairLookaheadWindowBoundary pins the exactness of the per-lane
// window end: a cross-lane message delayed by exactly PairLookahead(i,j)
// lands at the target's window end and commits cleanly; one nanosecond
// less is a lookahead violation the commit must detect and panic on.
func TestPairLookaheadWindowBoundary(t *testing.T) {
	run := func(delay, pairLA Time) (recovered any, err error) {
		k := NewKernel()
		var a, b *Proc
		b = k.Spawn("b", func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Recv()
			}
		})
		a = k.Spawn("a", func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Send(b, i, delay)
				p.Sleep(delay)
			}
		})
		_ = a
		defer func() { recovered = recover() }()
		err = k.RunParallel(ParallelConfig{
			Workers:       2,
			PairLookahead: func(i, j int) Time { return pairLA },
		})
		return nil, err
	}
	const la = 10 * Microsecond
	if r, err := run(la, la); r != nil || err != nil {
		t.Fatalf("delay == pair lookahead must commit cleanly, got panic %v err %v", r, err)
	}
	r, _ := run(la-Nanosecond, la)
	if r == nil {
		t.Fatal("delay one ns below the pair bound must panic")
	}
	if !strings.Contains(fmt.Sprint(r), "lookahead violation") {
		t.Fatalf("unexpected panic: %v", r)
	}
}

// TestPartitionedCommitViolationDetector exercises the merge-path
// detector: lanes are partitions (two procs per lane) with in-window
// local traffic forcing the k-way merge, and one cross-partition message
// below the target lane's window end must be caught at commit.
func TestPartitionedCommitViolationDetector(t *testing.T) {
	run := func(crossDelay Time) (recovered any) {
		const localD = 500 * Nanosecond
		k := NewKernel()
		// Lane 0: front0+back0, lane 1: front1+back1.
		var back [2]*Proc
		var front [2]*Proc
		for i := 0; i < 2; i++ {
			i := i
			back[i] = k.Spawn(fmt.Sprintf("back%d", i), func(p *Proc) {
				for {
					d := p.Recv()
					p.Advance(100 * Nanosecond)
					p.Send(d.From, d.Msg, localD)
				}
			})
		}
		for i := 0; i < 2; i++ {
			i := i
			front[i] = k.Spawn(fmt.Sprintf("front%d", i), func(p *Proc) {
				for r := 0; r < 10; r++ {
					p.Send(back[i], r, localD) // in-window: forces the merge commit
					p.Recv()
					p.Send(front[1-i], r, crossDelay)
					p.Recv()
				}
			})
		}
		defer func() { recovered = recover() }()
		_ = k.RunParallel(ParallelConfig{
			Workers:   2,
			Lookahead: 20 * Microsecond,
			Lanes:     2,
			LaneOf:    func(p *Proc) int { return p.ID() % 2 },
		})
		return nil
	}
	if r := run(25 * Microsecond); r != nil {
		t.Fatalf("legal cross-partition delay panicked: %v", r)
	}
	r := run(2 * Microsecond)
	if r == nil {
		t.Fatal("cross-partition message below the lookahead must panic at commit")
	}
	if !strings.Contains(fmt.Sprint(r), "lookahead violation") {
		t.Fatalf("unexpected panic: %v", r)
	}
}

// TestStealingMatchesSerial: work stealing changes which worker executes
// a lane, never the result.
func TestStealingMatchesSerial(t *testing.T) {
	const (
		n      = 8
		rounds = 40
		delay  = 10 * Microsecond
	)
	serial := runMesh(t, n, rounds, delay, nil)
	if serial.err != nil {
		t.Fatalf("serial: %v", serial.err)
	}
	assertSameOutcome(t, serial, runMesh(t, n, rounds, delay, &ParallelConfig{Workers: 4, Lookahead: delay}))
}

// TestReverseRunMutationDiverges: the chaos mutation must actually break
// the engine — a window run executed tail-first reorders mailbox
// deliveries, and the divergence must be visible in committed output.
// This is the sim-level counterpart of the protofuzz -expect-fail band.
func TestReverseRunMutationDiverges(t *testing.T) {
	const (
		n      = 4
		rounds = 20
		dA     = 20 * Microsecond
		dB     = 23 * Microsecond // lands in the same window as dA's message
	)
	build := func() (*Kernel, *[]string) {
		k := NewKernel()
		log := &[]string{}
		procs := make([]*Proc, n)
		for i := 0; i < n; i++ {
			i := i
			procs[i] = k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for r := 0; r < rounds; r++ {
					// Two messages to the right neighbor whose arrivals
					// fall in one lookahead window: the neighbor's lane
					// opens with a two-event established run, which the
					// mutation reverses.
					p.Send(procs[(i+1)%n], 1000*i+2*r, dA)
					p.Send(procs[(i+1)%n], 1000*i+2*r+1, dB)
					for m := 0; m < 2; m++ {
						d := p.Recv()
						line := fmt.Sprintf("p%d r%d got %v@%v", i, r, d.Msg, d.At)
						p.OnCommit(func() { *log = append(*log, line) })
					}
				}
			})
		}
		return k, log
	}
	cfg := ParallelConfig{Workers: 1, Lookahead: dA}
	k, clean := build()
	if err := k.RunParallel(cfg); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	k2, mutated := build()
	cfg.MutateReverseRuns = true
	err := k2.RunParallel(cfg) // may legitimately deadlock/err once diverged
	same := err == nil && len(*clean) == len(*mutated)
	if same {
		for i := range *clean {
			if (*clean)[i] != (*mutated)[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("reverse-run mutation produced identical output; the chaos oracle would not catch it")
	}
}
