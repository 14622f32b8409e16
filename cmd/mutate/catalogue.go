package main

// Killer command lines shared by several mutants.
var (
	// The chaos band CI runs: 100 seeds under {stache, predictive} ×
	// {serial, parallel}, each failure shrunk to a reproducer.
	protofuzz100 = []string{"go", "run", "./cmd/protofuzz", "-seeds", "100", "-q"}
	// The explorer over a home and two caches (1234 states when honest).
	explorer = []string{"go", "test", "./internal/check", "-count=1", "-run", "TestExploreStacheTwoCaches$"}
	// The lowered interpreter against the reference tree walker.
	lowered = []string{"go", "test", "./internal/interp", "-count=1", "-run", "TestLoweredMatchesWalker$"}
	// HashMemory against the byte-wise FNV loop.
	hashLoop = []string{"go", "test", "./internal/rt", "-count=1", "-run", "TestHashMemoryMatchesByteLoop$"}
)

// Want patterns shared by several mutants.
const (
	// A Stache failure in the band, shrunk to at most 4 nodes and 3 phases.
	stacheShrunk = `minimal nodes=[1-4] phases=[1-3] `
	loweredFails = `--- FAIL: TestLoweredMatchesWalker`
	hashDiffers  = `HashMemory = [0-9a-f]{16}, byte loop [0-9a-f]{16}`
)

// catalogue is every mutant the runner applies, in the order it runs
// them. DESIGN.md §7 lists the score and the survivors.
var catalogue = []mutant{
	// Stache's two benign races (paper §3): an invalidation or a recall
	// that overtakes the grant it chases must wait for the grant.
	{
		Name: "stache-drop-overtaking-recall",
		File: "internal/stache/stache.go",
		Old: `		// The writable grant is still in flight; defer.
		state(n).or(b, uint8(kind)<<deferRecallShift)
		return`,
		New: `		return // the recall overtook the writable grant: drop it`,
		Killers: []killer{
			{Argv: explorer, Want: `transient state AwaitWB at quiescence.*
\s*after 10 choices:
\s*compute1 -> proto0 GetRO\(0x0 req=1\)
\s*proto0 -> proto1 DataRO\(0x0 p=false\)
\s*proto1 -> compute1 tempest\.MsgWake
\s*wake compute1
\s*wake compute1
\s*compute1 -> proto0 GetRW\(0x0 req=1\)
\s*compute2 -> proto0 GetRO\(0x0 req=2\)
\s*proto0 -> proto1 RecallRO\(0x0\)
\s*proto0 -> proto1 DataRW\(0x0 p=false\)
\s*proto1 -> compute1 tempest\.MsgWake\n`},
			{Argv: protofuzz100, Want: stacheShrunk},
		},
	},
	{
		Name: "stache-early-inval-ack",
		File: "internal/stache/stache.go",
		Old: `		// The data this invalidation chases has not arrived yet; defer
		// the acknowledgement until it does.
		state(n).or(m.Block, flagDeferInval)
		return`,
		New: `		// Acknowledge before the data this invalidation chases arrives.
		n.Post(n.ProtoProc, n.Peers[n.AS.HomeOf(m.Block)], tempest.MsgInvalAck{Block: m.Block, From: n.ID})
		return`,
		Killers: []killer{
			{Argv: explorer, Want: `node 2 has tag ReadOnly while 1 owns exclusively\n\s*after 13 choices:`},
			{Argv: protofuzz100, Want: `non-sharer \d+ has tag ReadOnly`},
		},
	},
	{
		Name: "stache-skip-inval-ack",
		File: "internal/stache/stache.go",
		Old: `	n.Store.SetTag(m.Block, memory.Invalid)
	home := n.Peers[n.AS.HomeOf(m.Block)]
	n.Post(n.ProtoProc, home, tempest.MsgInvalAck{Block: m.Block, From: n.ID})
}`,
		New: `	n.Store.SetTag(m.Block, memory.Invalid)
}`,
		Killers: []killer{
			{Argv: explorer, Want: `transient state AwaitAcks at quiescence\n\s*after 10 choices:`},
			{Argv: protofuzz100, Want: stacheShrunk},
		},
	},

	// The predictive pre-send and the write-update push.
	{
		Name: "presend-to-non-sharer",
		File: "internal/core/predictive.go",
		Old: `					dir.Sharers.Add(r)
					data := append([]byte(nil), n.Store.Data(e.Block)...)`,
		New: `					data := append([]byte(nil), n.Store.Data(e.Block)...)`,
		Killers: []killer{
			{Argv: protofuzz100, Want: `non-sharer \d+ has tag ReadOnly`},
		},
	},
	{
		Name: "update-drop-push",
		File: "internal/update/update.go",
		Old:  `		n.PostBulk(src, n.Peers[dst], msg)`,
		New:  `		tempest.PutBulkEntries(msg.Entries)`,
		Killers: []killer{
			{Argv: []string{"go", "test", "./internal/update", "-count=1"}, Want: `--- FAIL: Test`},
		},
	},

	// Node-leader aggregation and the windowed engine.
	{
		Name: "agg-drop-entry",
		File: "internal/tempest/aggregate.go",
		Old: `	n.Stats.AggMsgs++
	leader := n.Peers[g*n.Net.GroupSize]`,
		New: `	for i := range parts { // lose one coalesced entry on the wire
		if k := len(parts[i].Bulk.Entries); k > 0 {
			parts[i].Bulk.Entries = parts[i].Bulk.Entries[:k-1]
			break
		}
	}
	n.Stats.AggMsgs++
	leader := n.Peers[g*n.Net.GroupSize]`,
		Killers: []killer{
			// Shrunk to at most 6 nodes and 3 phases.
			{Argv: []string{"go", "run", "./cmd/protofuzz", "-seeds", "120", "-aggregate", "-q"}, Want: `minimal nodes=[1-6] phases=[1-3] `},
			{Argv: []string{"go", "test", "./internal/rt", "-count=1", "-run", "TestAggregationPredictive$"}, Want: `deadlock`},
		},
	},
	{
		Name: "steal-reverse-run",
		File: "internal/sim/parallel.go",
		Old: `		x.pending++
	}
	if x.eng != nil {`,
		New: `		x.pending++
	}
	for _, l := range x.active { // run every lane but 0 tail-first
		if l.id == 0 {
			continue
		}
		for i, j := 0, len(l.pending)-1; i < j; i, j = i+1, j-1 {
			l.pending[i], l.pending[j] = l.pending[j], l.pending[i]
		}
	}
	if x.eng != nil {`,
		Killers: []killer{
			{Argv: []string{"go", "run", "./cmd/protofuzz", "-seeds", "60", "-q"}, Want: `engine divergence`},
			{Argv: []string{"go", "test", "./internal/sim", "-count=1", "-run", "TestHandlerProcMatchesSpawnLoop$"}, Want: `--- FAIL: TestHandlerProcMatchesSpawnLoop`},
		},
	},

	// The Store epoch that read cursors are valid under.
	{
		Name: "settag-no-epoch-bump",
		File: "internal/memory/memory.go",
		Old: `	l.Tag = tag
	s.epoch++
}

// Data returns`,
		New: `	l.Tag = tag
}

// Data returns`,
		Killers: []killer{
			{Argv: explorer, Want: `read 0, but the last write stored`},
			{Argv: lowered, Want: `reread on \d nodes, stache`},
		},
	},
	{
		Name: "install-no-epoch-bump",
		File: "internal/memory/memory.go",
		Old: `	l.Tag = tag
	s.epoch++
}

// SetTag changes`,
		New: `	l.Tag = tag
}

// SetTag changes`,
		Killers: []killer{
			{Argv: explorer, Want: `after \d+ choices:`},
			{Argv: lowered, Want: loweredFails},
		},
		Survives: "equivalent: Install only grants access and copies into bytes a held run aliases, so an outliving cursor reads what ReadRun would (DESIGN §3, internal/memory row)",
	},
	{
		Name: "presend-arrival-no-bump",
		File: "internal/tempest/node.go",
		Old:  `	n.Store.Bump() // a fresh mark: a cursor hit would not score it`,
		New:  ``,
		Killers: []killer{
			{Argv: protofuzz100, Want: `FAILED`},
			{Argv: lowered, Want: loweredFails},
		},
		Survives: "gap: no oracle checks a pre-send hit scored through a cursor; ROADMAP item 9, the predictive explorer",
	},

	// HashMemory's shortcuts over the byte-wise fold.
	{
		Name: "hash-home-presence-only",
		File: "internal/rt/machine.go",
		Old:  `			if !m.pageHeld(r.ID, first/memory.PageBlocks) {`,
		New:  `			if !m.Nodes[m.AS.HomeOf(r.BlockAt(first))].Store.HoldsPage(r.ID, first/memory.PageBlocks) {`,
		Killers: []killer{
			{Argv: hashLoop, Want: `with a remote-owned page: ` + hashDiffers},
		},
	},
	{
		Name: "hash-short-page-as-full",
		File: "internal/rt/machine.go",
		Old:  `					h *= fnvPow(n * bs)`,
		New:  `					h *= pagePow`,
		Killers: []killer{
			{Argv: hashLoop, Want: hashDiffers},
		},
	},
	{
		Name: "hash-zero-word-as-byte",
		File: "internal/rt/machine.go",
		Old:  `			h *= fnvPrime8`,
		New:  `			h *= fnvPrime`,
		Killers: []killer{
			{Argv: hashLoop, Want: hashDiffers},
		},
	},

	// The operand-specialised cstar lowering against the tree walker.
	{
		Name:    "lower-slot-slot-operands-swapped",
		File:    "internal/interp/lower.go",
		Old:     `return fr.slots[i] - fr.slots[j] },`,
		New:     `return fr.slots[j] - fr.slots[i] },`,
		Killers: []killer{{Argv: lowered, Want: loweredFails}},
	},
	{
		Name:    "lower-slot-const-operands-swapped",
		File:    "internal/interp/lower.go",
		Old:     `return fr.slots[i] - d },`,
		New:     `return d - fr.slots[i] },`,
		Killers: []killer{{Argv: lowered, Want: loweredFails}},
	},
	{
		Name:    "lower-const-slot-operands-swapped",
		File:    "internal/interp/lower.go",
		Old:     `return c - fr.slots[j] },`,
		New:     `return fr.slots[j] - c },`,
		Killers: []killer{{Argv: lowered, Want: loweredFails}},
	},
	{
		Name:    "lower-slot-expr-operands-swapped",
		File:    "internal/interp/lower.go",
		Old:     `x := fr.slots[i]; return x - rf(fr) },`,
		New:     `x := fr.slots[i]; return rf(fr) - x },`,
		Killers: []killer{{Argv: lowered, Want: loweredFails}},
	},
	{
		Name:    "lower-update-operands-swapped",
		File:    "internal/interp/lower.go",
		Old:     `x := fr.slots[k]; fr.slots[k] = x - r(fr); return false },`,
		New:     `x := fr.slots[k]; fr.slots[k] = r(fr) - x; return false },`,
		Killers: []killer{{Argv: lowered, Want: loweredFails}},
	},
	{
		Name:    "lower-update-on-right-operand",
		File:    "internal/interp/lower.go",
		Old:     `case ok && val.l != nil && val.l.leaf == slot && val.l.k == k:`,
		New:     `case ok && val.l != nil && (val.l.leaf == slot && val.l.k == k || val.r.leaf == slot && val.r.k == k):`,
		Killers: []killer{{Argv: lowered, Want: loweredFails}},
	},
	{
		Name:    "lower-shift-index-truncated",
		File:    "internal/interp/lower.go",
		Old:     `fr.planes[k].addr(int(float64(fr.i)+fr.slots[s]), 0)`,
		New:     `fr.planes[k].addr(fr.i+int(fr.slots[s]), 0)`,
		Killers: []killer{{Argv: lowered, Want: loweredFails}},
	},
	{
		Name:    "lower-floor-slot-ceil",
		File:    "internal/interp/lower.go",
		Old:     `return math.Floor(fr.slots[k]) }`,
		New:     `return math.Ceil(fr.slots[k]) }`,
		Killers: []killer{{Argv: lowered, Want: loweredFails}},
	},
	{
		Name:    "lower-sqrt-abs",
		File:    "internal/interp/lower.go",
		Old:     `return math.Sqrt(xf(fr)) }`,
		New:     `return math.Abs(xf(fr)) }`,
		Killers: []killer{{Argv: lowered, Want: loweredFails}},
	},
	{
		Name: "lower-load-allocates",
		File: "internal/interp/lower.go",
		Old: `func load(fr *frame, site int, a memory.Addr, ok bool) float64 {
	if ok {
		return fr.w.Node.ReadF64At(fr.w.P, &fr.curs[site], a)
	}`,
		New: `var escaped *float64

func load(fr *frame, site int, a memory.Addr, ok bool) float64 {
	if ok {
		v := new(float64) // one allocation per element read
		*v = fr.w.Node.ReadF64At(fr.w.P, &fr.curs[site], a)
		escaped = v
		return *v
	}`,
		Killers: []killer{{
			Argv: []string{"go", "test", "./internal/interp", "-count=1", "-run", "TestParallelStepAllocsConstant$"},
			Want: `nsquared: four steps allocate \S+ objects over 64 elements but \S+ over 1024`,
		}},
	},
	// The harness row memo: a row is keyed under its whole run-wide
	// template and a hit answers under the caller's label.
	{
		Name: "harness-memo-key-drops-engine",
		File: "internal/harness/memo.go",
		Old:  `k := rowKey{run: v.run, scale: o.Scale, machine: o.Machine}`,
		New:  `k := rowKey{run: v.run, scale: o.Scale, machine: o.Machine}; k.machine.Engine = ""`,
		Killers: []killer{{
			Argv: []string{"go", "test", "./internal/harness", "-count=1", "-run", "TestRowMemoKeyedApart$"},
			Want: `Engine: memo holds 1 rows, want 2`,
		}},
	},
	{
		Name: "harness-memo-hit-keeps-label",
		File: "internal/harness/memo.go",
		Old:  `r.Label, r.Phases = v.label, slices.Clone(r.Phases)`,
		New:  `r.Phases = slices.Clone(r.Phases)`,
		Killers: []killer{{
			Argv: []string{"go", "test", "./internal/harness", "-count=1", "-run", "TestFigureCSVGolden$"},
			Want: `sweep engine "serial" sched "wheel" diverges from testdata/golden/sweep\.csv`,
		}},
	},
}
