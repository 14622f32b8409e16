package interp

import (
	"fmt"
	"math"
	"slices"

	"presto/internal/compiler"
	"presto/internal/lang"
	"presto/internal/memory"
	"presto/internal/rt"
	"presto/internal/sim"
	"presto/internal/tempest"
)

// frame is one worker's state while it runs the lowered program.
type frame struct {
	w      *rt.Worker
	slots  []float64 // the running body's slots: main's, or par
	par    []float64 // the running parallel function's slots
	planes []plane   // the running call's field planes
	i, j   int       // the running element
	ops    int       // cost units the running element has spent
	// curs holds one cursor per lowered read site.
	curs []tempest.Cursor
}

type (
	expr func(*frame) float64
	// stmt runs a statement and reports whether it returned.
	stmt   func(*frame) bool
	addrFn func(*frame) (memory.Addr, bool)
)

// leaf classifies an operand: a slot (a local, a loop variable or a
// scalar parameter), a constant, or anything else.
type leaf uint8

const (
	other leaf = iota
	slot
	constant
)

// operand is a lowered expression and its cost in CostOp units; a leaf
// says what it reads, and a +, -, * or / node keeps its operator and
// operands, so statements and indexes specialise without relowering.
type operand struct {
	f    expr
	n    int
	leaf leaf
	k    int     // a slot leaf's slot
	c    float64 // a constant leaf's value
	op   lang.Kind
	l, r *operand
}

// place is a lowered element address in plane k. A read of the running
// element (own), or of element #0 + slot s of one index (shift),
// addresses inline; anything else calls at.
type place struct {
	at         addrFn
	k, s       int
	own, shift bool
}

// lowerer holds what all bodies of one program share.
type lowerer struct {
	a         *compiler.Analysis
	aggs      map[string]*aggHandle
	dirBefore map[lang.Stmt][]*compiler.Phase
	costOp    sim.Time
	funcs     map[*lang.FuncDecl]*body
	parSlots  int
	sites     int   // read sites lowered so far
	err       error // the first rejected construct
}

// body lowers one function: main (fn nil) or a parallel function, whose
// parameters occupy the first slots.
type body struct {
	*lowerer
	fn     *lang.FuncDecl
	run    stmt
	scopes []scope // innermost last; [0] is the top level
	nslots int
	// fields lists the planes the body addresses, (parameter, field) by
	// plane index.
	fields [][2]int
}

// scope is one block's bindings, name → slot. A loop body's scope (which
// also binds the loop variable) records for the shadowing rule the names
// the body used before binding them itself.
type scope struct {
	slots map[string]int
	used  map[string]bool // nil outside loop bodies
}

// lower lowers main and the parallel functions it calls.
func lower(a *compiler.Analysis, aggs map[string]*aggHandle, dirBefore map[lang.Stmt][]*compiler.Phase, costOp sim.Time) (*body, error) {
	l := &lowerer{a: a, aggs: aggs, dirBefore: dirBefore, costOp: costOp, funcs: map[*lang.FuncDecl]*body{}}
	b := &body{lowerer: l}
	b.push(false)
	b.run = b.scoped(a.Main.Body)
	return b, l.err
}

func (l *lowerer) function(f *lang.FuncDecl) *body {
	if b := l.funcs[f]; b != nil {
		return b
	}
	b := &body{lowerer: l, fn: f, nslots: len(f.Params)}
	b.push(false)
	b.run = b.scoped(f.Body)
	l.parSlots = max(l.parSlots, b.nslots)
	l.funcs[f] = b
	return b
}

// failure returns code that raises a run error when executed.
func failure(format string, args ...any) operand {
	err := &evalError{fmt.Errorf("interp: "+format, args...)}
	return operand{f: func(*frame) float64 { panic(err) }, n: 1}
}

// effect evaluates e for its effects at a cost of n.
func effect(n int, e expr) stmt {
	return func(fr *frame) bool {
		fr.ops += n
		e(fr)
		return false
	}
}

// set stores val in slot k at a cost of n.
func set(k, n int, val expr) stmt {
	return func(fr *frame) bool {
		fr.ops += n
		fr.slots[k] = val(fr)
		return false
	}
}

func nop(*frame) bool { return false }

func (b *body) push(loop bool) {
	sc := scope{slots: map[string]int{}}
	if loop {
		sc.used = map[string]bool{}
	}
	b.scopes = append(b.scopes, sc)
}

func (b *body) pop() { b.scopes = b.scopes[:len(b.scopes)-1] }

// declare binds name to a new slot in the innermost scope.
func (b *body) declare(name string, pos lang.Pos) int {
	sc := b.scopes[len(b.scopes)-1]
	if sc.used[name] && b.err == nil {
		b.err = fmt.Errorf("interp: %s: let %q shadows %q read earlier in the same loop body", pos, name, name)
	}
	sc.slots[name] = b.nslots
	b.nslots++
	return b.nslots - 1
}

// lookup resolves a local name, noting it in every loop body it resolves
// outside of.
func (b *body) lookup(name string) (int, bool) {
	for d := len(b.scopes) - 1; d >= 0; d-- {
		if k, ok := b.scopes[d].slots[name]; ok {
			return k, true
		}
		if b.scopes[d].used != nil {
			b.scopes[d].used[name] = true
		}
	}
	return 0, false
}

// block lowers blk in a new scope; scoped lowers it in the current one.
func (b *body) block(blk *lang.Block) stmt {
	b.push(false)
	defer b.pop()
	return b.scoped(blk)
}

func (b *body) scoped(blk *lang.Block) stmt {
	list := make([]stmt, len(blk.Stmts))
	for k, s := range blk.Stmts {
		list[k] = b.stmt(s)
	}
	switch len(list) {
	case 0:
		return nop
	case 1:
		return list[0]
	}
	return func(fr *frame) bool {
		for _, s := range list {
			if s(fr) {
				return true
			}
		}
		return false
	}
}

func (b *body) stmt(s lang.Stmt) stmt {
	run, phases := b.stmt1(s), b.dirBefore[s]
	if b.fn != nil || len(phases) == 0 {
		return run
	}
	return func(fr *frame) bool {
		for _, ph := range phases {
			fr.w.Directive(ph.ID)
		}
		return run(fr)
	}
}

func (b *body) stmt1(s lang.Stmt) stmt {
	main := b.fn == nil
	switch v := s.(type) {
	case *lang.LetStmt:
		if v.AggType != "" {
			if main {
				return nop // bound at allocation
			}
			return effect(0, failure("aggregate instantiation inside parallel function").f)
		}
		val := b.expr(v.Value)
		return set(b.declare(v.Name, v.Pos), val.n, val.f)
	case *lang.AssignStmt:
		return b.assign(v)
	case *lang.IfStmt:
		c := b.expr(v.Cond)
		cond, n := c.f, c.n
		then, els := b.block(v.Then), stmt(nop)
		if v.Else != nil {
			els = b.block(v.Else)
		}
		return func(fr *frame) bool {
			fr.ops += n
			if cond(fr) != 0 {
				return then(fr)
			}
			return els(fr)
		}
	case *lang.ForStmt:
		lo, hi := b.expr(v.From), b.expr(v.To)
		from, to, n := lo.f, hi.f, lo.n+hi.n
		// The loop variable and the body's own lets share one scope.
		b.push(true)
		k := b.declare(v.Var, v.Pos)
		run := b.scoped(v.Body)
		b.pop()
		return func(fr *frame) bool {
			fr.ops += n
			lo, hi := int(from(fr)), int(to(fr))
			for i := lo; i < hi; i++ {
				fr.slots[k] = float64(i)
				if run(fr) {
					return true
				}
			}
			return false
		}
	case *lang.ExprStmt:
		if call, ok := v.X.(*lang.CallExpr); ok && main {
			return b.call(call)
		}
		x := b.expr(v.X)
		return effect(x.n, x.f)
	case *lang.ReturnStmt:
		if main {
			return effect(0, failure("return in main is not supported").f)
		}
		return func(*frame) bool { return true }
	}
	return nop
}

func (b *body) assign(v *lang.AssignStmt) stmt {
	tgt, isVar := v.Target.(*lang.VarRef)
	if !isVar && b.fn == nil {
		return effect(0, failure("main may not write aggregate elements directly").f)
	}
	val := b.expr(v.Value)
	n, vf := val.n, val.f
	if isVar {
		k, ok := b.lookup(tgt.Name)
		switch {
		case ok && val.l != nil && val.l.leaf == slot && val.l.k == k:
			return update(k, val)
		case ok:
			return set(k, n, vf)
		}
		// The value, then the error.
		bad := failure("assignment to undeclared variable %q", tgt.Name).f
		return effect(n, func(fr *frame) float64 { vf(fr); return bad(fr) })
	}
	pl, m := b.field(v.Target.(*lang.FieldAccess))
	n += m + 2
	at, k := pl.at, pl.k
	if pl.own {
		return func(fr *frame) bool {
			fr.ops += n
			x := vf(fr)
			if a, ok := fr.planes[k].addr(fr.i, fr.j); ok {
				fr.w.WriteF64(a, x)
			}
			return false
		}
	}
	return func(fr *frame) bool {
		fr.ops += n
		x := vf(fr)
		if a, ok := at(fr); ok {
			fr.w.WriteF64(a, x)
		} // out-of-range writes are dropped (boundary convention)
		return false
	}
}

// update runs x = x op e, lowered as v, on x's slot k.
func update(k int, v operand) stmt {
	n, r := v.n, v.r.f
	return arith(v.op,
		func(fr *frame) bool { fr.ops += n; x := fr.slots[k]; fr.slots[k] = x + r(fr); return false },
		func(fr *frame) bool { fr.ops += n; x := fr.slots[k]; fr.slots[k] = x - r(fr); return false },
		func(fr *frame) bool { fr.ops += n; x := fr.slots[k]; fr.slots[k] = x * r(fr); return false },
		func(fr *frame) bool { fr.ops += n; x := fr.slots[k]; fr.slots[k] = x / r(fr); return false })
}

// expr lowers an expression.
func (b *body) expr(x lang.Expr) operand {
	main := b.fn == nil
	switch v := x.(type) {
	case *lang.NumberLit:
		c := v.Value
		return operand{f: func(*frame) float64 { return c }, n: 1, leaf: constant, c: c}
	case *lang.PosRef:
		switch {
		case main:
			return failure("#%d outside a parallel function", v.Dim)
		case v.Dim == 0:
			return operand{f: func(fr *frame) float64 { return float64(fr.i) }, n: 1}
		}
		return operand{f: func(fr *frame) float64 { return float64(fr.j) }, n: 1}
	case *lang.VarRef:
		return b.varRef(v)
	case *lang.FieldAccess:
		if main {
			return failure("main may not read aggregate elements directly; use reduce")
		}
		pl, n := b.field(v)
		site := b.sites
		b.sites++
		at, k, s := pl.at, pl.k, pl.s
		f := func(fr *frame) float64 { a, ok := at(fr); return load(fr, site, a, ok) }
		switch {
		case pl.own:
			f = func(fr *frame) float64 { a, ok := fr.planes[k].addr(fr.i, fr.j); return load(fr, site, a, ok) }
		case pl.shift:
			f = func(fr *frame) float64 {
				a, ok := fr.planes[k].addr(int(float64(fr.i)+fr.slots[s]), 0)
				return load(fr, site, a, ok)
			}
		}
		return operand{f: f, n: n + 1}
	case *lang.BinaryExpr:
		return binary(v.Op, b.expr(v.L), b.expr(v.R))
	case *lang.UnaryExpr:
		a := b.expr(v.X)
		af := a.f
		if v.Op == lang.Minus {
			return operand{f: func(fr *frame) float64 { return -af(fr) }, n: a.n + 1}
		}
		return operand{f: func(fr *frame) float64 { return bool2f(af(fr) == 0) }, n: a.n + 1}
	case *lang.CallExpr:
		return b.intrinsic(v)
	case *lang.ReduceExpr:
		if !main {
			return failure("reduce inside parallel functions is not supported")
		}
		return b.reduce(v)
	}
	return operand{f: func(*frame) float64 { return 0 }, n: 1}
}

// load reads the element at a through read site site's cursor; an
// element out of range (ok false) reads as the boundary value 0.
func load(fr *frame, site int, a memory.Addr, ok bool) float64 {
	if ok {
		return fr.w.Node.ReadF64At(fr.w.P, &fr.curs[site], a)
	}
	return 0
}

// binary lowers l op r. For +, -, * and / it emits one closure per shape
// of slot, constant and other operands, and a slot left of another
// operand is loaded first, which keeps left-before-right evaluation.
func binary(op lang.Kind, l, r operand) operand {
	lf, rf, i, j, c, d := l.f, r.f, l.k, r.k, l.c, r.c
	out := operand{n: l.n + r.n + 1}
	if op < lang.Plus || op > lang.Slash {
		out.f = func(fr *frame) float64 { return applyBinary(op, lf(fr), rf(fr)) }
		return out
	}
	out.op, out.l, out.r = op, &l, &r
	switch {
	case l.leaf == slot && r.leaf == slot:
		out.f = arith(op,
			func(fr *frame) float64 { return fr.slots[i] + fr.slots[j] },
			func(fr *frame) float64 { return fr.slots[i] - fr.slots[j] },
			func(fr *frame) float64 { return fr.slots[i] * fr.slots[j] },
			func(fr *frame) float64 { return fr.slots[i] / fr.slots[j] })
	case l.leaf == slot && r.leaf == constant:
		out.f = arith(op,
			func(fr *frame) float64 { return fr.slots[i] + d },
			func(fr *frame) float64 { return fr.slots[i] - d },
			func(fr *frame) float64 { return fr.slots[i] * d },
			func(fr *frame) float64 { return fr.slots[i] / d })
	case l.leaf == constant && r.leaf == slot:
		out.f = arith(op,
			func(fr *frame) float64 { return c + fr.slots[j] },
			func(fr *frame) float64 { return c - fr.slots[j] },
			func(fr *frame) float64 { return c * fr.slots[j] },
			func(fr *frame) float64 { return c / fr.slots[j] })
	case l.leaf == slot:
		out.f = arith(op,
			func(fr *frame) float64 { x := fr.slots[i]; return x + rf(fr) },
			func(fr *frame) float64 { x := fr.slots[i]; return x - rf(fr) },
			func(fr *frame) float64 { x := fr.slots[i]; return x * rf(fr) },
			func(fr *frame) float64 { x := fr.slots[i]; return x / rf(fr) })
	case r.leaf == slot:
		out.f = arith(op,
			func(fr *frame) float64 { return lf(fr) + fr.slots[j] },
			func(fr *frame) float64 { return lf(fr) - fr.slots[j] },
			func(fr *frame) float64 { return lf(fr) * fr.slots[j] },
			func(fr *frame) float64 { return lf(fr) / fr.slots[j] })
	case l.leaf == constant:
		out.f = arith(op,
			func(fr *frame) float64 { return c + rf(fr) },
			func(fr *frame) float64 { return c - rf(fr) },
			func(fr *frame) float64 { return c * rf(fr) },
			func(fr *frame) float64 { return c / rf(fr) })
	case r.leaf == constant:
		out.f = arith(op,
			func(fr *frame) float64 { return lf(fr) + d },
			func(fr *frame) float64 { return lf(fr) - d },
			func(fr *frame) float64 { return lf(fr) * d },
			func(fr *frame) float64 { return lf(fr) / d })
	default:
		out.f = arith(op,
			func(fr *frame) float64 { return lf(fr) + rf(fr) },
			func(fr *frame) float64 { return lf(fr) - rf(fr) },
			func(fr *frame) float64 { return lf(fr) * rf(fr) },
			func(fr *frame) float64 { return lf(fr) / rf(fr) })
	}
	return out
}

// arith picks op's form from the +, -, * and / forms of one shape.
func arith[F any](op lang.Kind, add, sub, mul, div F) F {
	return [...]F{add, sub, mul, div}[op-lang.Plus]
}

func (b *body) varRef(v *lang.VarRef) operand {
	k, ok := b.lookup(v.Name)
	switch {
	case ok:
	case b.fn == nil:
		return failure("unknown variable %q in main", v.Name)
	default:
		k = paramIndex(b.fn, v.Name)
		if k < 0 {
			return failure("unknown variable %q", v.Name)
		}
		if !scalarType(b.fn.Params[k].Type) {
			return failure("aggregate %q used as scalar", v.Name)
		}
	}
	return operand{f: func(fr *frame) float64 { return fr.slots[k] }, n: 1, leaf: slot, k: k}
}

// field lowers the element address of a field access in a parallel
// function, and returns the cost of its index expressions.
func (b *body) field(fa *lang.FieldAccess) (place, int) {
	bad := func(format string, args ...any) (place, int) {
		e := failure(format, args...).f
		return place{at: func(fr *frame) (memory.Addr, bool) { e(fr); return 0, false }}, 0
	}
	pi := paramIndex(b.fn, fa.Base)
	if pi < 0 {
		return bad("unknown aggregate %q in %s", fa.Base, b.fn.Name)
	}
	p := b.fn.Params[pi]
	if scalarType(p.Type) {
		return bad("%q is not an aggregate", fa.Base)
	}
	decl := b.a.Prog.Aggregate(p.Type)
	fi := decl.FieldIndex(fa.Field)
	if fi < 0 {
		return bad("aggregate %s has no field %q", decl.Name, fa.Field)
	}
	k := slices.Index(b.fields, [2]int{pi, fi})
	if k < 0 {
		k = len(b.fields)
		b.fields = append(b.fields, [2]int{pi, fi})
	}
	switch len(fa.Index) {
	case 0:
		return place{k: k, own: true}, 0
	case 1:
		ix := b.expr(fa.Index[0])
		ixf := ix.f
		pl := place{at: func(fr *frame) (memory.Addr, bool) { return fr.planes[k].addr(int(ixf(fr)), 0) }, k: k}
		if p, ok := fa.Index[0].(*lang.BinaryExpr); ok && ix.op == lang.Plus && ix.r.leaf == slot {
			if pr, ok := p.L.(*lang.PosRef); ok && pr.Dim == 0 {
				pl.shift, pl.s = true, ix.r.k
			}
		}
		return pl, ix.n
	}
	ix, jx := b.expr(fa.Index[0]), b.expr(fa.Index[1])
	ixf, jxf := ix.f, jx.f
	return place{at: func(fr *frame) (memory.Addr, bool) { return fr.planes[k].addr(int(ixf(fr)), int(jxf(fr))) }, k: k}, ix.n + jx.n
}

// intrinsic lowers a call to a built-in math function (the numeric
// intrinsics C** inherited from C++) to a direct call.
func (b *body) intrinsic(c *lang.CallExpr) operand {
	arity := 1
	switch c.Callee {
	case "sqrt", "abs", "floor":
	case "min", "max":
		arity = 2
	default:
		return failure("call to %q: only intrinsics (sqrt, abs, floor, min, max) may be called in expressions", c.Callee)
	}
	if len(c.Args) != arity {
		return failure("%s expects %d argument(s), got %d", c.Callee, arity, len(c.Args))
	}
	x := b.expr(c.Args[0])
	xf, k := x.f, x.k
	if arity == 2 {
		y := b.expr(c.Args[1])
		yf, n := y.f, x.n+y.n+1
		if c.Callee == "min" {
			return operand{f: func(fr *frame) float64 { return math.Min(xf(fr), yf(fr)) }, n: n}
		}
		return operand{f: func(fr *frame) float64 { return math.Max(xf(fr), yf(fr)) }, n: n}
	}
	out := operand{n: x.n + 1}
	switch onSlot := x.leaf == slot; {
	case c.Callee == "sqrt" && onSlot:
		out.f = func(fr *frame) float64 { return math.Sqrt(fr.slots[k]) }
	case c.Callee == "sqrt":
		out.f = func(fr *frame) float64 { return math.Sqrt(xf(fr)) }
	case c.Callee == "abs" && onSlot:
		out.f = func(fr *frame) float64 { return math.Abs(fr.slots[k]) }
	case c.Callee == "abs":
		out.f = func(fr *frame) float64 { return math.Abs(xf(fr)) }
	case onSlot:
		out.f = func(fr *frame) float64 { return math.Floor(fr.slots[k]) }
	default:
		out.f = func(fr *frame) float64 { return math.Floor(xf(fr)) }
	}
	return out
}

func (b *body) reduce(r *lang.ReduceExpr) operand {
	h := b.aggs[r.Base]
	if h == nil {
		return failure("reduce over unknown aggregate %q", r.Base)
	}
	field := h.decl.FieldIndex(r.Field)
	if field < 0 {
		return failure("aggregate %s has no field %q", h.decl.Name, r.Field)
	}
	op, costOp := r.Op, b.costOp
	return operand{f: func(fr *frame) float64 { return reduce(fr.w, h, field, op, costOp) }, n: 1}
}

// call lowers a parallel function invocation in main: a data-parallel
// step over the elements of its parallel argument.
func (b *body) call(c *lang.CallExpr) stmt {
	f := b.a.Prog.Func(c.Callee)
	if f == nil || !f.Parallel {
		return effect(0, failure("call to non-parallel function %q in main", c.Callee).f)
	}
	pf := b.function(f)
	// Arguments bind in order: scalars into the function's parameter
	// slots when called, aggregates now. A bad aggregate argument fails
	// after the scalars before it are evaluated.
	var binds []stmt
	handles := make([]*aggHandle, len(f.Params))
	var bad expr
	for i, arg := range c.Args {
		p := f.Params[i]
		if scalarType(p.Type) {
			x := b.expr(arg).f
			binds = append(binds, func(fr *frame) bool { fr.par[i] = x(fr); return false })
			continue
		}
		vr, ok := arg.(*lang.VarRef)
		if !ok {
			bad = failure("aggregate argument %d of %s must be a variable", i, c.Callee).f
		} else if h := b.aggs[vr.Name]; h == nil {
			bad = failure("unknown aggregate %q", vr.Name).f
		} else if h.decl.Name != p.Type {
			bad = failure("aggregate %q has type %s, want %s", vr.Name, h.decl.Name, p.Type).f
		} else {
			handles[i] = h
			continue
		}
		break
	}
	par := slices.Index(f.Params, f.ParallelParam())
	if bad == nil && handles[par] == nil {
		bad = failure("parallel parameter %q of %s must be an aggregate", f.Params[par].Name, f.Name).f
	}
	planes := make([]plane, len(pf.fields))
	if bad != nil {
		binds = append(binds, effect(0, bad)) // stops the call before its step
	} else {
		for k, pfld := range pf.fields {
			planes[k] = handles[pfld[0]].planes[pfld[1]]
		}
	}
	ph := handles[par]
	run, costOp := pf.run, b.costOp
	return func(fr *frame) bool {
		for _, bind := range binds {
			bind(fr)
		}
		w, main := fr.w, fr.slots
		w.ParallelStep(func() {
			fr.slots, fr.planes = fr.par, planes
			rlo, rhi, clo, chi := ph.owned(w)
			for i := rlo; i < rhi; i++ {
				for j := clo; j < chi; j++ {
					fr.i, fr.j, fr.ops = i, j, 0
					run(fr)
					w.Compute(sim.Time(fr.ops) * costOp)
				}
			}
			fr.slots = main
		})
		return false
	}
}

func paramIndex(f *lang.FuncDecl, name string) int {
	return slices.IndexFunc(f.Params, func(p *lang.Param) bool { return p.Name == name })
}

func scalarType(t string) bool { return t == "float" || t == "int" }
