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
func failure(format string, args ...any) expr {
	err := &evalError{fmt.Errorf("interp: "+format, args...)}
	return func(*frame) float64 { panic(err) }
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
			return effect(0, failure("aggregate instantiation inside parallel function"))
		}
		val, n := b.expr(v.Value)
		return set(b.declare(v.Name, v.Pos), n, val)
	case *lang.AssignStmt:
		return b.assign(v)
	case *lang.IfStmt:
		cond, n := b.expr(v.Cond)
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
		from, n1 := b.expr(v.From)
		to, n2 := b.expr(v.To)
		n := n1 + n2
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
		x, n := b.expr(v.X)
		return effect(n, x)
	case *lang.ReturnStmt:
		if main {
			return effect(0, failure("return in main is not supported"))
		}
		return func(*frame) bool { return true }
	}
	return nop
}

func (b *body) assign(v *lang.AssignStmt) stmt {
	tgt, isVar := v.Target.(*lang.VarRef)
	if !isVar && b.fn == nil {
		return effect(0, failure("main may not write aggregate elements directly"))
	}
	val, n := b.expr(v.Value)
	if isVar {
		if k, ok := b.lookup(tgt.Name); ok {
			return set(k, n, val)
		}
		// The value, then the error.
		return effect(n, binary(lang.Plus, val, failure("assignment to undeclared variable %q", tgt.Name)))
	}
	at, m := b.field(v.Target.(*lang.FieldAccess))
	n += m + 2
	return func(fr *frame) bool {
		fr.ops += n
		x := val(fr)
		if a, ok := at(fr); ok {
			fr.w.WriteF64(a, x)
		} // out-of-range writes are dropped (boundary convention)
		return false
	}
}

// expr lowers an expression and returns its cost in CostOp units.
func (b *body) expr(x lang.Expr) (expr, int) {
	main := b.fn == nil
	switch v := x.(type) {
	case *lang.NumberLit:
		c := v.Value
		return func(*frame) float64 { return c }, 1
	case *lang.PosRef:
		switch {
		case main:
			return failure("#%d outside a parallel function", v.Dim), 1
		case v.Dim == 0:
			return func(fr *frame) float64 { return float64(fr.i) }, 1
		}
		return func(fr *frame) float64 { return float64(fr.j) }, 1
	case *lang.VarRef:
		return b.varRef(v), 1
	case *lang.FieldAccess:
		if main {
			return failure("main may not read aggregate elements directly; use reduce"), 1
		}
		at, n := b.field(v)
		site := b.sites
		b.sites++
		return func(fr *frame) float64 {
			if a, ok := at(fr); ok {
				return fr.w.Node.ReadF64At(fr.w.P, &fr.curs[site], a)
			}
			return 0 // boundary value
		}, n + 1
	case *lang.BinaryExpr:
		l, n1 := b.expr(v.L)
		r, n2 := b.expr(v.R)
		return binary(v.Op, l, r), n1 + n2 + 1
	case *lang.UnaryExpr:
		a, n := b.expr(v.X)
		if v.Op == lang.Minus {
			return func(fr *frame) float64 { return -a(fr) }, n + 1
		}
		return func(fr *frame) float64 { return bool2f(a(fr) == 0) }, n + 1
	case *lang.CallExpr:
		return b.intrinsic(v)
	case *lang.ReduceExpr:
		if !main {
			return failure("reduce inside parallel functions is not supported"), 1
		}
		return b.reduce(v), 1
	}
	return func(*frame) float64 { return 0 }, 1
}

func binary(op lang.Kind, l, r expr) expr {
	switch op {
	case lang.Plus:
		return func(fr *frame) float64 { return l(fr) + r(fr) }
	case lang.Minus:
		return func(fr *frame) float64 { return l(fr) - r(fr) }
	case lang.Star:
		return func(fr *frame) float64 { return l(fr) * r(fr) }
	case lang.Slash:
		return func(fr *frame) float64 { return l(fr) / r(fr) }
	}
	return func(fr *frame) float64 { return applyBinary(op, l(fr), r(fr)) }
}

func (b *body) varRef(v *lang.VarRef) expr {
	if k, ok := b.lookup(v.Name); ok {
		return func(fr *frame) float64 { return fr.slots[k] }
	}
	if b.fn == nil {
		return failure("unknown variable %q in main", v.Name)
	}
	k := paramIndex(b.fn, v.Name)
	switch {
	case k < 0:
		return failure("unknown variable %q", v.Name)
	case !scalarType(b.fn.Params[k].Type):
		return failure("aggregate %q used as scalar", v.Name)
	}
	return func(fr *frame) float64 { return fr.slots[k] }
}

// field lowers the element address of a field access in a parallel
// function, and returns the cost of its index expressions.
func (b *body) field(fa *lang.FieldAccess) (addrFn, int) {
	bad := func(format string, args ...any) (addrFn, int) {
		e := failure(format, args...)
		return func(fr *frame) (memory.Addr, bool) { e(fr); return 0, false }, 0
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
		return func(fr *frame) (memory.Addr, bool) { return fr.planes[k].addr(fr.i, fr.j) }, 0
	case 1:
		ix, n := b.expr(fa.Index[0])
		return func(fr *frame) (memory.Addr, bool) { return fr.planes[k].addr(int(ix(fr)), 0) }, n
	}
	ix, n1 := b.expr(fa.Index[0])
	jx, n2 := b.expr(fa.Index[1])
	return func(fr *frame) (memory.Addr, bool) {
		i := int(ix(fr))
		return fr.planes[k].addr(i, int(jx(fr)))
	}, n1 + n2
}

// intrinsics are the built-in math functions (the numeric intrinsics C**
// inherited from C++).
var intrinsics = map[string]any{"sqrt": math.Sqrt, "abs": math.Abs, "floor": math.Floor, "min": math.Min, "max": math.Max}

func (b *body) intrinsic(c *lang.CallExpr) (expr, int) {
	fn, ok := intrinsics[c.Callee]
	if !ok {
		return failure("call to %q: only intrinsics (sqrt, abs, floor, min, max) may be called in expressions", c.Callee), 1
	}
	f1, unary := fn.(func(float64) float64)
	arity := 2
	if unary {
		arity = 1
	}
	if len(c.Args) != arity {
		return failure("%s expects %d argument(s), got %d", c.Callee, arity, len(c.Args)), 1
	}
	x, n := b.expr(c.Args[0])
	if unary {
		return func(fr *frame) float64 { return f1(x(fr)) }, n + 1
	}
	f2 := fn.(func(float64, float64) float64)
	y, m := b.expr(c.Args[1])
	return func(fr *frame) float64 { return f2(x(fr), y(fr)) }, n + m + 1
}

func (b *body) reduce(r *lang.ReduceExpr) expr {
	h := b.aggs[r.Base]
	if h == nil {
		return failure("reduce over unknown aggregate %q", r.Base)
	}
	field := h.decl.FieldIndex(r.Field)
	if field < 0 {
		return failure("aggregate %s has no field %q", h.decl.Name, r.Field)
	}
	op, costOp := r.Op, b.costOp
	return func(fr *frame) float64 { return reduce(fr.w, h, field, op, costOp) }
}

// call lowers a parallel function invocation in main: a data-parallel
// step over the elements of its parallel argument.
func (b *body) call(c *lang.CallExpr) stmt {
	f := b.a.Prog.Func(c.Callee)
	if f == nil || !f.Parallel {
		return effect(0, failure("call to non-parallel function %q in main", c.Callee))
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
			x, _ := b.expr(arg)
			binds = append(binds, func(fr *frame) bool { fr.par[i] = x(fr); return false })
			continue
		}
		vr, ok := arg.(*lang.VarRef)
		if !ok {
			bad = failure("aggregate argument %d of %s must be a variable", i, c.Callee)
		} else if h := b.aggs[vr.Name]; h == nil {
			bad = failure("unknown aggregate %q", vr.Name)
		} else if h.decl.Name != p.Type {
			bad = failure("aggregate %q has type %s, want %s", vr.Name, h.decl.Name, p.Type)
		} else {
			handles[i] = h
			continue
		}
		break
	}
	par := slices.Index(f.Params, f.ParallelParam())
	if bad == nil && handles[par] == nil {
		bad = failure("parallel parameter %q of %s must be an aggregate", f.Params[par].Name, f.Name)
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
