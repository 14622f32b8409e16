// Package interp executes compiled cstar programs on the simulated DSM
// machine, closing the loop the original system implemented: the C**
// compiler's directives drive the predictive protocol in the runtime
// (paper §1). Main runs SPMD on every node's compute processor; a parallel
// call partitions its parallel aggregate's elements over the nodes.
//
// Run lowers the Analysis once (lower.go), then executes it. Main and the
// parallel functions it calls become closures over a per-worker frame:
// scalars, loop variables and scalar parameters are []float64 slots; a field
// access is a plane (parameter, field) bound once per call site, plus index
// closures, and a field read also owns a tempest.Cursor in the frame, so a
// read of the block run its site read last costs a range check and an
// epoch compare; directives attach to the statements of main they precede.
// Leaves are specialised at lowering: a slot or constant operand of +, -, *
// or / is loaded inside its operator's closure rather than called, x = x op e
// on a slot is one update closure, a field of the running element or of
// element #0 + slot is addressed inside the read's closure, and intrinsics
// are direct calls into math.
//
// Simulated cost: in parallel code each literal, name, position, operator,
// intrinsic and field read costs one Options.CostOp, a field write two.
// Expressions have no short-circuit forms, so each statement's cost is
// summed at lowering; an element charges its total in one Worker.Compute
// after it finishes. Shared accesses keep evaluation order: left before
// right, a written value before the written element's index.
//
// Semantics notes: aggregate sizes must be compile-time constants;
// out-of-range element reads yield the boundary value 0 and out-of-range
// writes are dropped (mesh boundary convention); main may not access
// aggregate elements directly (use reduce), matching the paper's
// restriction of the analyzed sequential portion. Errors in code (unknown
// names or fields, intrinsic arity, reduce in a parallel function, ...)
// are raised only if it runs. `a % b` truncates both operands; a divisor
// truncating to 0 is the run error "modulo by zero". Scoping is lexical,
// so Run rejects a `let x` directly in a loop body after a use there of an
// outer x (`for k in 0..3 { s = s + y; let y = 100; }`): the use would read
// the outer y or the previous iteration's.
package interp

import (
	"cmp"
	"fmt"
	"math"

	"presto/internal/compiler"
	"presto/internal/lang"
	"presto/internal/memory"
	"presto/internal/rt"
	"presto/internal/sim"
	"presto/internal/tempest"
)

// Options configures one interpreted run.
type Options struct {
	Machine rt.Config
	// CostOp is the modeled cost per evaluated operator/access (default
	// 300ns, a mid-90s interpreter-free compiled-code estimate).
	CostOp sim.Time
}

// Result carries the run's timing and final scalar state.
type Result struct {
	Machine   *rt.Machine
	Breakdown rt.Breakdown
	Counters  rt.Counters
	// Scalars holds main's top-level scalar variables after the run
	// (worker 0's view; SPMD execution makes all views identical).
	Scalars map[string]float64
}

// aggHandle is a bound aggregate instance. Aggregates are laid out
// field-major — one plane (region) per field — so distinct fields of one
// element never share a cache block; interleaving them would turn every
// phase that writes one field while neighbors read another into
// false-sharing conflicts (paper §3.3).
type aggHandle struct {
	decl   *lang.AggregateDecl
	planes []plane // one per field
	// Field 0's storage, whose distribution partitions the elements.
	grid *rt.Grid2D  // 2-D
	arr  *rt.Array1D // 1-D
}

// plane is one field's storage: element (i,j) lives at base+(i*cols+j)*8.
type plane struct {
	base       memory.Addr
	rows, cols int
}

func (p *plane) addr(i, j int) (memory.Addr, bool) {
	if uint(i) >= uint(p.rows) || uint(j) >= uint(p.cols) {
		return 0, false
	}
	return p.base.Add(int64(i*p.cols+j) * 8), true
}

// owned returns the element rectangle worker w computes: rows [rlo,rhi)
// by columns [clo,chi).
func (h *aggHandle) owned(w *rt.Worker) (rlo, rhi, clo, chi int) {
	switch {
	case h.arr != nil:
		lo, hi := h.arr.MyRange(w)
		return lo, hi, 0, 1
	case h.grid.Dist == rt.Tiled:
		return h.grid.MyTile(w)
	}
	lo, hi := h.grid.MyRows(w)
	return lo, hi, 0, h.grid.Cols
}

// Run executes an analyzed program under the given machine options; a
// machine configuration rt.Config.Validate rejects is an error before any
// machine is built.
func Run(a *compiler.Analysis, opt Options) (*Result, error) {
	if opt.CostOp == 0 {
		opt.CostOp = 300 * sim.Nanosecond
	}
	if err := opt.Machine.Validate(); err != nil {
		return nil, err
	}
	m := rt.New(opt.Machine)
	aggs, err := allocAggs(a, m)
	if err != nil {
		return nil, err
	}
	dirBefore, err := directives(a)
	if err != nil {
		return nil, err
	}
	p, err := lower(a, aggs, dirBefore, opt.CostOp)
	if err != nil {
		return nil, err
	}
	scalars := map[string]float64{}
	var runErr error
	err = m.Run(func(w *rt.Worker) {
		defer catch(&runErr)
		fr := &frame{w: w, slots: make([]float64, p.nslots), par: make([]float64, p.parSlots), curs: make([]tempest.Cursor, p.sites)}
		p.run(fr)
		if w.ID == 0 {
			for name, k := range p.scopes[0].slots {
				scalars[name] = fr.slots[k]
			}
		}
	})
	// A run error goes ahead of the deadlock it leaves behind when the
	// other workers wait at a barrier the failed one never reaches.
	if runErr != nil {
		err = runErr
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Machine:   m,
		Breakdown: m.Breakdown(),
		Counters:  m.Counters(),
		Scalars:   scalars,
	}, nil
}

// allocAggs allocates every aggregate main instantiates (sizes must be
// constant expressions).
func allocAggs(a *compiler.Analysis, m *rt.Machine) (aggs map[string]*aggHandle, err error) {
	defer catch(&err) // modulo by zero in a size
	aggs = map[string]*aggHandle{}
	collectAggLets(a.Main.Body, func(l *lang.LetStmt) {
		if err != nil || aggs[l.Name] != nil {
			return
		}
		decl := a.Prog.Aggregate(l.AggType)
		sizes := make([]int, len(l.AggDims))
		for k, e := range l.AggDims {
			v, ok := constEval(e)
			if !ok || v <= 0 || v != math.Trunc(v) {
				err = fmt.Errorf("interp: aggregate %s size must be a positive constant", l.Name)
				return
			}
			sizes[k] = int(v)
		}
		dist := rt.RowBlock
		if decl.Dist == "tiled" {
			dist = rt.Tiled
		}
		h := &aggHandle{decl: decl}
		for _, f := range decl.Fields {
			if decl.Dims == 2 {
				g := m.NewGrid2D(l.Name+"."+f, sizes[0], sizes[1], 1, dist)
				h.grid = cmp.Or(h.grid, g)
				h.planes = append(h.planes, plane{g.R.Base(), sizes[0], sizes[1]})
			} else {
				arr := m.NewArray1D(l.Name+"."+f, sizes[0], 1, false)
				h.arr = cmp.Or(h.arr, arr)
				h.planes = append(h.planes, plane{arr.R.Base(), sizes[0], 1})
			}
		}
		aggs[l.Name] = h
	})
	if err != nil {
		return nil, err
	}
	return aggs, nil
}

// directives maps each statement of main to the directives that fire
// before it (hoisted directives sit on synthetic preheader nodes whose
// successor holds the loop statement).
func directives(a *compiler.Analysis) (map[lang.Stmt][]*compiler.Phase, error) {
	dirBefore := map[lang.Stmt][]*compiler.Phase{}
	for _, ph := range a.Phases {
		n := a.Graph.Node(ph.DirectiveNode)
		stmt := n.Stmt
		if stmt == nil && len(n.Succs) > 0 {
			stmt = a.Graph.Node(n.Succs[0]).Stmt
		}
		if stmt == nil {
			return nil, fmt.Errorf("interp: directive for phase %d has no anchor statement", ph.ID)
		}
		dirBefore[stmt] = append(dirBefore[stmt], ph)
	}
	return dirBefore, nil
}

// collectAggLets visits aggregate-instantiating lets anywhere in main.
func collectAggLets(b *lang.Block, fn func(*lang.LetStmt)) {
	for _, s := range b.Stmts {
		switch v := s.(type) {
		case *lang.LetStmt:
			if v.AggType != "" {
				fn(v)
			}
		case *lang.IfStmt:
			collectAggLets(v.Then, fn)
			if v.Else != nil {
				collectAggLets(v.Else, fn)
			}
		case *lang.ForStmt:
			collectAggLets(v.Body, fn)
		}
	}
}

// constEval evaluates constant arithmetic (aggregate sizes).
func constEval(e lang.Expr) (float64, bool) {
	switch v := e.(type) {
	case *lang.NumberLit:
		return v.Value, true
	case *lang.BinaryExpr:
		l, ok1 := constEval(v.L)
		r, ok2 := constEval(v.R)
		if !ok1 || !ok2 {
			return 0, false
		}
		return applyBinary(v.Op, l, r), true
	case *lang.UnaryExpr:
		x, ok := constEval(v.X)
		if !ok {
			return 0, false
		}
		if v.Op == lang.Minus {
			return -x, true
		}
		return bool2f(x == 0), true
	}
	return 0, false
}

// evalError carries a run error out of the executing code as a panic;
// catch turns it back into an error.
type evalError struct{ err error }

func fail(format string, args ...any) {
	panic(&evalError{fmt.Errorf("interp: "+format, args...)})
}

// catch, deferred, records the first run error in *err and lets every
// other panic through.
func catch(err *error) {
	if r := recover(); r != nil {
		e, ok := r.(*evalError)
		if !ok {
			panic(r)
		}
		if *err == nil {
			*err = e.err
		}
	}
}

// reduce computes a language-level reduction over one field of an
// aggregate: each worker folds its own elements locally, then a machine
// reduction combines the partials (outside the coherence protocol, paper
// §1).
func reduce(w *rt.Worker, h *aggHandle, field int, op lang.Kind, costOp sim.Time) float64 {
	if op == lang.Star {
		// The machine reduces sums and maxima only; a product via a sum of
		// logarithms would lose sign and precision.
		fail("product reductions are not supported")
	}
	// A worker that owns no elements contributes the fold's identity.
	var acc float64
	switch op {
	case lang.Gt:
		acc = math.Inf(-1)
	case lang.Lt:
		acc = math.Inf(1)
	}
	rlo, rhi, clo, chi := h.owned(w)
	p := &h.planes[field]
	for i := rlo; i < rhi; i++ {
		for j := clo; j < chi; j++ {
			a, _ := p.addr(i, j)
			v := w.ReadF64(a)
			first := i == rlo && j == clo
			switch {
			case op == lang.Plus:
				acc += v
			case op == lang.Lt && (first || v < acc), op == lang.Gt && (first || v > acc):
				acc = v
			}
		}
	}
	w.Compute(sim.Time((rhi-rlo)*(chi-clo)) * costOp)
	switch op {
	case lang.Plus:
		return w.ReduceSum(acc)
	case lang.Gt:
		return w.ReduceMax(acc)
	}
	return -w.ReduceMax(-acc) // min
}

func applyBinary(op lang.Kind, l, r float64) float64 {
	switch op {
	case lang.Plus:
		return l + r
	case lang.Minus:
		return l - r
	case lang.Star:
		return l * r
	case lang.Slash:
		return l / r
	case lang.Percent:
		if int64(r) == 0 {
			fail("modulo by zero")
		}
		return float64(int64(l) % int64(r))
	case lang.Lt:
		return bool2f(l < r)
	case lang.Gt:
		return bool2f(l > r)
	case lang.Le:
		return bool2f(l <= r)
	case lang.Ge:
		return bool2f(l >= r)
	case lang.EqEq:
		return bool2f(l == r)
	case lang.NotEq:
		return bool2f(l != r)
	case lang.AndAnd:
		return bool2f(l != 0 && r != 0)
	case lang.OrOr:
		return bool2f(l != 0 || r != 0)
	}
	return 0
}

func bool2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
