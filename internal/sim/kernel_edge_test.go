package sim

import (
	"errors"
	"fmt"
	"testing"
)

// TestMailboxWraparoundGrow drives the mailbox ring directly through
// multiple wraparound-then-grow cycles: pops move the head off zero, and
// each growth then has to relinearize a ring whose live region wraps the
// array end. FIFO order and Pending() must survive every cycle.
func TestMailboxWraparoundGrow(t *testing.T) {
	p := &Proc{}
	next := 0  // next value to push
	first := 0 // next value expected from mpop
	push := func(n int) {
		for i := 0; i < n; i++ {
			p.mpush(Delivery{Msg: next})
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			d := p.mpop()
			if d.Msg.(int) != first {
				t.Fatalf("mpop = %v, want %d (cap %d head %d len %d)",
					d.Msg, first, len(p.mbox), p.mhead, p.mlen)
			}
			first++
		}
	}
	check := func() {
		t.Helper()
		if got, want := p.Pending(), next-first; got != want {
			t.Fatalf("Pending() = %d, want %d", got, want)
		}
	}

	// Fill the initial 8-slot ring, then pop a few so the head is interior.
	push(8)
	pop(3)
	check()
	// Wrap: these land in slots 0..2 ahead of the head at 3...
	push(3)
	check()
	// ...and the next push grows 8 -> 16 with a wrapped live region.
	push(4)
	if len(p.mbox) != 16 {
		t.Fatalf("cap = %d, want 16 after first grow", len(p.mbox))
	}
	check()
	pop(5)
	// Second cycle: wrap the 16-slot ring, then force 16 -> 32 and 32 -> 64,
	// popping only part of the backlog in between.
	push(9)
	check()
	push(30)
	if len(p.mbox) != 64 {
		t.Fatalf("cap = %d, want 64 after repeated growth", len(p.mbox))
	}
	check()
	pop(20)
	push(5)
	check()
	// Drain completely; every element must still come out in push order.
	pop(p.Pending())
	if first != next {
		t.Fatalf("drained %d values, pushed %d", first, next)
	}
	check()
}

// TestBarrierSingleMember pins the degenerate n=1 barrier: the sole
// member is its own last arrival, so each Wait costs exactly the barrier
// cost and the barrier is immediately reusable.
func TestBarrierSingleMember(t *testing.T) {
	k := NewKernel()
	b := k.NewBarrier(1, 5*Microsecond)
	var waits []Time
	var ends []Time
	k.Spawn("solo", func(p *Proc) {
		for round := 0; round < 3; round++ {
			p.Advance(100 * Microsecond)
			waits = append(waits, p.Wait(b))
			ends = append(ends, p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, w := range waits {
		if w != 5*Microsecond {
			t.Fatalf("round %d wait = %v, want 5us", i, w)
		}
		want := Time(i+1) * 105 * Microsecond
		if ends[i] != want {
			t.Fatalf("round %d released at %v, want %v", i, ends[i], want)
		}
	}
}

// TestBarrierReuseWithDaemons reuses one barrier across iterations while
// daemon procs are live and receiving: daemons must neither count toward
// the barrier nor keep the run from completing once the members finish.
func TestBarrierReuseWithDaemons(t *testing.T) {
	k := NewKernel()
	const members, rounds = 3, 4
	b := k.NewBarrier(members, Microsecond)
	served := 0
	daemon := k.Spawn("daemon", func(p *Proc) {
		for {
			p.Recv()
			served++
		}
	})
	daemon.SetDaemon(true)
	ends := make([]Time, members)
	for i := 0; i < members; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for round := 0; round < rounds; round++ {
				p.Advance(Time(i+1) * 10 * Microsecond)
				p.Send(daemon, round, Microsecond)
				p.Wait(b)
			}
			ends[i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if served != members*rounds {
		t.Fatalf("daemon served %d messages, want %d", served, members*rounds)
	}
	// Every round releases at the slowest member's arrival + cost; after
	// the release all clocks agree, so arrivals stay 10/20/30us apart and
	// each round adds 31us to the common release time.
	want := Time(rounds) * 31 * Microsecond
	for i, e := range ends {
		if e != want {
			t.Fatalf("member %d finished at %v, want %v", i, e, want)
		}
	}
}

// TestBarrierMemberExitsDeadlock covers the partial-arrival failure mode:
// one member waits, the other exits without ever reaching the barrier.
// The run must stop with a DeadlockError naming the stuck member — not
// hang, and not release the barrier early.
func TestBarrierMemberExitsDeadlock(t *testing.T) {
	k := NewKernel()
	b := k.NewBarrier(2, 0)
	k.Spawn("stuck", func(p *Proc) {
		p.Wait(b)
	})
	k.Spawn("quitter", func(p *Proc) {
		p.Advance(Microsecond) // do some work, never Wait
	})
	err := k.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck(blocked-barrier)" {
		t.Fatalf("blocked = %v, want [stuck(blocked-barrier)]", de.Blocked)
	}
}

// TestBarrierMemberExitsDeadlockParallel is the same failure mode under
// the parallel engine, where the arrival is applied by the window commit.
func TestBarrierMemberExitsDeadlockParallel(t *testing.T) {
	k := NewKernel()
	b := k.NewBarrier(2, 0)
	k.Spawn("stuck", func(p *Proc) {
		p.Sleep(Microsecond)
		p.Wait(b)
	})
	k.Spawn("quitter", func(p *Proc) {
		p.Sleep(2 * Microsecond)
	})
	err := k.RunParallel(ParallelConfig{Workers: 2, Lookahead: Microsecond})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck(blocked-barrier)" {
		t.Fatalf("blocked = %v, want [stuck(blocked-barrier)]", de.Blocked)
	}
}

// wheelEvent builds a bare scheduler event for white-box wheel tests.
func wheelEvent(at Time, seq uint64) *event {
	return &event{at: at, seq: seq}
}

// drainSched pops every pending event, asserting (at, seq) never goes
// backwards, and returns the pop order.
func drainSched(t *testing.T, s scheduler) []*event {
	t.Helper()
	var out []*event
	for s.len() > 0 {
		e := s.pop()
		if n := len(out); n > 0 && eventAfter(out[n-1], e) {
			t.Fatalf("pop order regressed: (%v, %d) after (%v, %d)",
				e.at, e.seq, out[n-1].at, out[n-1].seq)
		}
		out = append(out, e)
	}
	if s.peek() != nil {
		t.Fatal("peek after drain != nil")
	}
	return out
}

// TestWheelBucketWrap pushes events whose bucket indices wrap the 256-slot
// array while staying inside the horizon: physical slot order disagrees
// with time order, and the sweep must still pop in (at, seq) order.
func TestWheelBucketWrap(t *testing.T) {
	w := newWheel(Microsecond, 0)
	// Advance the cursor off zero so later pushes wrap the slot mask.
	w.push(wheelEvent(10*Microsecond, 0))
	if e := w.pop(); e.at != 10*Microsecond {
		t.Fatalf("pop at %v, want 10us", e.at)
	}
	// Bucket indices 265, 200, 11: slots 9, 200, 11 — the earliest-slot
	// event (9) is the latest in time.
	w.push(wheelEvent(265*Microsecond, 1))
	w.push(wheelEvent(200*Microsecond, 2))
	w.push(wheelEvent(11*Microsecond, 3))
	order := drainSched(t, w)
	var ats []Time
	for _, e := range order {
		ats = append(ats, e.at)
	}
	want := []Time{11 * Microsecond, 200 * Microsecond, 265 * Microsecond}
	for i := range want {
		if ats[i] != want[i] {
			t.Fatalf("pop order %v, want %v", ats, want)
		}
	}
}

// TestWheelOverflowMigration parks events beyond the horizon in the
// overflow heap and checks they migrate into their bucket — interleaved
// correctly with near events — once the cursor sweeps forward.
func TestWheelOverflowMigration(t *testing.T) {
	w := newWheel(Microsecond, 0)
	far1 := wheelEvent(300*Microsecond, 0) // beyond 256us horizon from cursor 0
	far2 := wheelEvent(300*Microsecond, 1) // same bucket, later seq
	far3 := wheelEvent(1000*Microsecond, 2)
	w.push(far1)
	w.push(far3)
	w.push(far2)
	if len(w.overflow) != 3 {
		t.Fatalf("overflow holds %d events, want 3", len(w.overflow))
	}
	near := wheelEvent(5*Microsecond, 3)
	w.push(near)
	order := drainSched(t, w)
	want := []*event{near, far1, far2, far3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop %d = (%v, %d), want (%v, %d)",
				i, order[i].at, order[i].seq, want[i].at, want[i].seq)
		}
	}
}

// TestWheelCursorJump: when every near bucket is empty and only far
// timers remain, peek must jump the cursor straight to the earliest far
// timer's bucket instead of sweeping hundreds of empty slots.
func TestWheelCursorJump(t *testing.T) {
	w := newWheel(Microsecond, 0)
	w.push(wheelEvent(Microsecond, 0))
	if e := w.pop(); e.seq != 0 {
		t.Fatalf("unexpected first pop (%v, %d)", e.at, e.seq)
	}
	far := wheelEvent(100_000*Microsecond, 1)
	w.push(far)
	if e := w.peek(); e != far {
		t.Fatal("peek did not surface the far timer")
	}
	if w.curIdx != 100_000 {
		t.Fatalf("cursor at bucket %d, want jump to 100000", w.curIdx)
	}
	if e := w.pop(); e != far {
		t.Fatal("pop did not return the far timer")
	}
}

// TestWheelLongStepsAllocateNothing: a cursor jump to a far bucket keeps
// the drained storage current, so the timers migrating into it append
// without allocating — even when every jump lands on a slot the wheel
// has never used (1001 buckets per step visits all 256 slots in turn).
func TestWheelLongStepsAllocateNothing(t *testing.T) {
	w := newWheel(Microsecond, 0)
	var pool eventPool
	var at Time
	var seq uint64
	step := func() {
		at += 1001 * Microsecond // beyond the 256-bucket horizon
		for i := 0; i < 4; i++ {
			e := pool.get()
			e.at, e.seq = at, seq
			seq++
			w.push(e)
		}
		for w.len() > 0 {
			pool.put(w.pop())
		}
	}
	for i := 0; i < 4; i++ {
		step()
	}
	if a := testing.AllocsPerRun(100, step); a != 0 {
		t.Fatalf("a long step allocates %v objects, want 0", a)
	}
}

// TestWheelPushBatch covers the batch insert on all three paths — current
// bucket, near wheel, overflow — interleaved with individual pushes at
// the same timestamp; pops must come out in strict (at, seq) order.
func TestWheelPushBatch(t *testing.T) {
	w := newWheel(Microsecond, 0)
	// Current-bucket path: cursor sits in bucket 2 with a remainder.
	w.push(wheelEvent(2*Microsecond, 0))
	w.push(wheelEvent(2*Microsecond+500*Nanosecond, 5))
	if e := w.pop(); e.seq != 0 {
		t.Fatalf("unexpected first pop seq %d", e.seq)
	}
	w.pushBatch([]*event{
		wheelEvent(2*Microsecond+100*Nanosecond, 1),
		wheelEvent(2*Microsecond+100*Nanosecond, 2),
	})
	// Near-wheel path, plus an individual push into the same bucket.
	w.pushBatch([]*event{
		wheelEvent(40*Microsecond, 6),
		wheelEvent(40*Microsecond, 7),
	})
	w.push(wheelEvent(40*Microsecond, 3)) // earlier seq, pushed later
	// Overflow path.
	w.pushBatch([]*event{
		wheelEvent(900*Microsecond, 8),
		wheelEvent(900*Microsecond, 9),
	})
	var seqs []uint64
	for _, e := range drainSched(t, w) {
		seqs = append(seqs, e.seq)
	}
	want := []uint64{1, 2, 5, 3, 6, 7, 8, 9}
	if len(seqs) != len(want) {
		t.Fatalf("drained %d events, want %d", len(seqs), len(want))
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("pop seqs %v, want %v", seqs, want)
		}
	}
}

// TestWheelPopBefore pins popBefore's contract on both schedulers: it
// pops the head only when the head is strictly before the cutoff, and
// never disturbs order otherwise.
func TestWheelPopBefore(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    scheduler
	}{
		{"wheel", newWheel(Microsecond, 0)},
		{"heap", &heapSched{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			if e := s.popBefore(Second); e != nil {
				t.Fatal("popBefore on empty scheduler != nil")
			}
			a := wheelEvent(3*Microsecond, 0)
			b := wheelEvent(700*Microsecond, 1) // overflow for the wheel
			s.push(a)
			s.push(b)
			if e := s.popBefore(3 * Microsecond); e != nil {
				t.Fatalf("popBefore(=head.at) popped (%v, %d); cutoff is exclusive", e.at, e.seq)
			}
			if e := s.popBefore(4 * Microsecond); e != a {
				t.Fatal("popBefore(4us) did not pop the due head")
			}
			// Slow path: the wheel's current bucket is exhausted, the next
			// head sits beyond it.
			if e := s.popBefore(700 * Microsecond); e != nil {
				t.Fatal("popBefore must not pop a head at the cutoff")
			}
			if e := s.popBefore(701 * Microsecond); e != b {
				t.Fatal("popBefore(701us) did not pop the far head")
			}
			if s.len() != 0 {
				t.Fatalf("len = %d after drain", s.len())
			}
		})
	}
}

// TestWheelHeapDifferential runs a deterministic pseudo-random push/pop
// trace through the wheel and the heap reference and demands identical
// pop sequences — the scheduler-swap property at the data-structure level.
func TestWheelHeapDifferential(t *testing.T) {
	wheel := newWheel(Microsecond, 0)
	heap := &heapSched{}
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		rng %= 1<<63 - 1
		return rng % n
	}
	var now Time // lower bound for pushes: the last popped timestamp
	seq := uint64(0)
	for step := 0; step < 20000; step++ {
		if both := wheel.len(); both == 0 || next(3) > 0 {
			// Push: mostly near the cursor, sometimes far into overflow.
			d := Time(next(40)) * Microsecond
			if next(10) == 0 {
				d = Time(200+next(2000)) * Microsecond
			}
			at := now + d
			e, f := wheelEvent(at, seq), wheelEvent(at, seq)
			seq++
			wheel.push(e)
			heap.push(f)
		} else {
			we, he := wheel.pop(), heap.pop()
			if we.at != he.at || we.seq != he.seq {
				t.Fatalf("step %d: wheel popped (%v, %d), heap popped (%v, %d)",
					step, we.at, we.seq, he.at, he.seq)
			}
			now = we.at
		}
		if wheel.len() != heap.len() {
			t.Fatalf("step %d: wheel len %d != heap len %d", step, wheel.len(), heap.len())
		}
	}
	for heap.len() > 0 {
		we, he := wheel.pop(), heap.pop()
		if we.at != he.at || we.seq != he.seq {
			t.Fatalf("drain: wheel (%v, %d) vs heap (%v, %d)", we.at, we.seq, he.at, he.seq)
		}
	}
	if wheel.len() != 0 {
		t.Fatalf("wheel holds %d events after heap drained", wheel.len())
	}
}

// TestWheelSizeDifferential drives an identical randomized push/pop trace
// through wheels of every capacity class — default, mid-size hint, and a
// hint beyond the cap — plus the reference heap. Bucket count moves events
// between the near wheel and the overflow heap, but the pop order must be
// bit-identical across all of them: capacity is a constant-factor knob,
// never a semantic one.
func TestWheelSizeDifferential(t *testing.T) {
	scheds := []scheduler{
		newWheel(Microsecond, 0),     // default 256 buckets
		newWheel(Microsecond, 2048),  // the 1024-lane machine's hint
		newWheel(Microsecond, 1<<20), // clamped to maxWheelBuckets
		&heapSched{},
	}
	if got := newWheel(Microsecond, 1<<20).size; got != maxWheelBuckets {
		t.Fatalf("oversized hint produced %d buckets, want cap %d", got, maxWheelBuckets)
	}
	if got := newWheel(Microsecond, 2048).size; got != 2048 {
		t.Fatalf("hint 2048 produced %d buckets", got)
	}
	rng := uint64(0x2545f4914f6cdd1d)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	var now Time
	seq := uint64(0)
	for step := 0; step < 20000; step++ {
		if scheds[0].len() == 0 || next(3) > 0 {
			d := Time(next(300)) * Microsecond
			if next(8) == 0 {
				// Far timers: land beyond the small wheel's horizon but
				// inside the big wheel's, so the overflow paths diverge.
				d = Time(500+next(5000)) * Microsecond
			}
			at := now + d
			for _, s := range scheds {
				s.push(wheelEvent(at, seq))
			}
			seq++
		} else {
			ref := scheds[0].pop()
			now = ref.at
			for _, s := range scheds[1:] {
				e := s.pop()
				if e.at != ref.at || e.seq != ref.seq {
					t.Fatalf("step %d: pop (%v, %d), want (%v, %d)",
						step, e.at, e.seq, ref.at, ref.seq)
				}
			}
		}
	}
	for scheds[0].len() > 0 {
		ref := scheds[0].pop()
		for _, s := range scheds[1:] {
			e := s.pop()
			if e.at != ref.at || e.seq != ref.seq {
				t.Fatalf("drain: pop (%v, %d), want (%v, %d)", e.at, e.seq, ref.at, ref.seq)
			}
		}
	}
	for _, s := range scheds[1:] {
		if s.len() != 0 {
			t.Fatalf("scheduler holds %d events after reference drained", s.len())
		}
	}
}
