package chaos

import (
	"fmt"
	"strings"
)

// Shrink minimizes a failing seed by tightening derivation caps rather
// than mutating the workload: DeriveCapped preserves the uncapped run's
// structural decisions, so the minimal reproducer is expressible as the
// original seed plus four -max-* flags (ReproCommand). Greedy descent
// per dimension — for each of nodes/phases/iters/blocks, try the floor,
// then halving, then decrement, keeping any cap under which the seed
// still fails — repeated until no dimension shrinks further.
func Shrink(seed int64, o Options) (Caps, SeedResult) {
	o = o.withDefaults()
	base := RunSeed(seed, o)
	if !base.Failed() {
		return o.Caps, base
	}
	cur := base.Spec.Size()
	best := base

	type dim struct {
		get func(Caps) int
		set func(*Caps, int)
		min int
	}
	dims := []dim{
		{func(c Caps) int { return c.Nodes }, func(c *Caps, v int) { c.Nodes = v }, 2},
		{func(c Caps) int { return c.Phases }, func(c *Caps, v int) { c.Phases = v }, 1},
		{func(c Caps) int { return c.Iters }, func(c *Caps, v int) { c.Iters = v }, 1},
		{func(c Caps) int { return c.Blocks }, func(c *Caps, v int) { c.Blocks = v }, 2},
	}

	try := func(c Caps) (SeedResult, bool) {
		oc := o
		oc.Caps = c
		r := RunSeed(seed, oc)
		return r, r.Failed()
	}

	for progress := true; progress; {
		progress = false
		for _, d := range dims {
			have := d.get(cur)
			for _, cand := range []int{d.min, have / 2, have - 1} {
				if cand >= have || cand < d.min {
					continue
				}
				trial := cur
				d.set(&trial, cand)
				if r, failed := try(trial); failed {
					cur, best = trial, r
					progress = true
					break
				}
			}
		}
	}
	// Report the dimensions actually derived at the minimal caps (the
	// caps may sit above what derivation produces).
	min := best.Spec.Size()
	return min, best
}

// ReproCommand renders the one-line command reproducing a failing seed
// at the given caps.
func ReproCommand(seed int64, o Options, c Caps) string {
	o = o.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "go run ./cmd/protofuzz -repro -seed %d -scale %s", seed, o.Scale)
	if c.Nodes > 0 {
		fmt.Fprintf(&b, " -max-nodes %d", c.Nodes)
	}
	if c.Phases > 0 {
		fmt.Fprintf(&b, " -max-phases %d", c.Phases)
	}
	if c.Iters > 0 {
		fmt.Fprintf(&b, " -max-iters %d", c.Iters)
	}
	if c.Blocks > 0 {
		fmt.Fprintf(&b, " -max-blocks %d", c.Blocks)
	}
	if o.Aggregate {
		fmt.Fprintf(&b, " -aggregate")
	}
	if o.JitterPct != 0 {
		fmt.Fprintf(&b, " -jitter %d", o.JitterPct)
	}
	return b.String()
}
