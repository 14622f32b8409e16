package interp

// A tree walker over the AST, the reference the differential and fuzz
// tests hold the lowered program to: it resolves names through chained
// maps at run time and counts each element's cost node by node, sharing
// with lower.go only allocation, partitioning, reductions and operator
// arithmetic.

import (
	"math"

	"presto/internal/compiler"
	"presto/internal/lang"
	"presto/internal/rt"
	"presto/internal/sim"
)

// walkRun is Run with the tree walker in place of the lowered program.
func walkRun(a *compiler.Analysis, opt Options) (*Result, error) {
	if opt.CostOp == 0 {
		opt.CostOp = 300 * sim.Nanosecond
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
	scalars := map[string]float64{}
	var runErr error
	err = m.Run(func(w *rt.Worker) {
		defer catch(&runErr)
		ev := &evaluator{a: a, w: w, opt: opt, aggs: aggs, dirBefore: dirBefore}
		env := newEnv(nil)
		ev.execBlock(a.Main.Body, env)
		if w.ID == 0 {
			for k, v := range env.vars {
				scalars[k] = v
			}
		}
	})
	if runErr != nil {
		err = runErr
	}
	if err != nil {
		return nil, err
	}
	return &Result{Machine: m, Breakdown: m.Breakdown(), Counters: m.Counters(), Scalars: scalars}, nil
}

type env struct {
	vars   map[string]float64
	parent *env
}

func newEnv(parent *env) *env {
	return &env{vars: map[string]float64{}, parent: parent}
}

func (e *env) lookup(name string) (float64, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return 0, false
}

func (e *env) assign(name string, v float64) bool {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return true
		}
	}
	return false
}

type evaluator struct {
	a         *compiler.Analysis
	w         *rt.Worker
	opt       Options
	aggs      map[string]*aggHandle
	dirBefore map[lang.Stmt][]*compiler.Phase
}

// execBlock runs main's sequential statements (SPMD on every worker).
func (ev *evaluator) execBlock(b *lang.Block, e *env) {
	for _, s := range b.Stmts {
		for _, ph := range ev.dirBefore[s] {
			ev.w.Directive(ph.ID)
		}
		ev.execStmt(s, e)
	}
}

func (ev *evaluator) execStmt(s lang.Stmt, e *env) {
	switch v := s.(type) {
	case *lang.LetStmt:
		if v.AggType != "" {
			return // bound at allocation
		}
		e.vars[v.Name] = ev.evalSeq(v.Value, e)
	case *lang.AssignStmt:
		tgt, ok := v.Target.(*lang.VarRef)
		if !ok {
			fail("main may not write aggregate elements directly")
		}
		val := ev.evalSeq(v.Value, e)
		if !e.assign(tgt.Name, val) {
			fail("assignment to undeclared variable %q", tgt.Name)
		}
	case *lang.IfStmt:
		if ev.evalSeq(v.Cond, e) != 0 {
			ev.execBlock(v.Then, newEnv(e))
		} else if v.Else != nil {
			ev.execBlock(v.Else, newEnv(e))
		}
	case *lang.ForStmt:
		from := int(ev.evalSeq(v.From, e))
		to := int(ev.evalSeq(v.To, e))
		le := newEnv(e)
		for i := from; i < to; i++ {
			le.vars[v.Var] = float64(i)
			ev.execBlock(v.Body, le)
		}
	case *lang.ExprStmt:
		if call, ok := v.X.(*lang.CallExpr); ok {
			ev.execCall(call, e)
			return
		}
		ev.evalSeq(v.X, e)
	case *lang.ReturnStmt:
		fail("return in main is not supported")
	default:
		fail("unsupported statement %T", s)
	}
}

// execCall runs a parallel function invocation as a data-parallel step.
func (ev *evaluator) execCall(call *lang.CallExpr, e *env) {
	f := ev.a.Prog.Func(call.Callee)
	if f == nil || !f.Parallel {
		fail("call to non-parallel function %q in main", call.Callee)
	}
	args := make([]any, len(call.Args))
	for i, arg := range call.Args {
		p := f.Params[i]
		if p.Type == "float" || p.Type == "int" {
			args[i] = ev.evalSeq(arg, e)
			continue
		}
		vr, ok := arg.(*lang.VarRef)
		if !ok {
			fail("aggregate argument %d of %s must be a variable", i, call.Callee)
		}
		h := ev.aggs[vr.Name]
		if h == nil {
			fail("unknown aggregate %q", vr.Name)
		}
		if h.decl.Name != p.Type {
			fail("aggregate %q has type %s, want %s", vr.Name, h.decl.Name, p.Type)
		}
		args[i] = h
	}
	parIdx := -1
	for i, p := range f.Params {
		if p == f.ParallelParam() {
			parIdx = i
		}
	}
	ph, ok := args[parIdx].(*aggHandle)
	if !ok {
		fail("parallel parameter %q of %s must be an aggregate", f.Params[parIdx].Name, f.Name)
	}
	w := ev.w
	w.ParallelStep(func() {
		rlo, rhi, clo, chi := ph.owned(w)
		for i := rlo; i < rhi; i++ {
			for j := clo; j < chi; j++ {
				fe := &frameEnv{f: f, args: args, i: i, j: j}
				ops := 0
				ev.execParBlock(f.Body, fe, newEnv(nil), &ops)
				w.Compute(sim.Time(ops) * ev.opt.CostOp)
			}
		}
	})
}

// frameEnv is a parallel invocation's parameter binding plus element
// position.
type frameEnv struct {
	f    *lang.FuncDecl
	args []any
	i, j int
}

func (fe *frameEnv) param(name string) (any, bool) {
	for k, p := range fe.f.Params {
		if p.Name == name {
			return fe.args[k], true
		}
	}
	return nil, false
}

func (ev *evaluator) execParBlock(b *lang.Block, fe *frameEnv, e *env, ops *int) (returned bool) {
	for _, s := range b.Stmts {
		switch v := s.(type) {
		case *lang.LetStmt:
			if v.AggType != "" {
				fail("aggregate instantiation inside parallel function")
			}
			e.vars[v.Name] = ev.evalPar(v.Value, fe, e, ops)
		case *lang.AssignStmt:
			val := ev.evalPar(v.Value, fe, e, ops)
			switch tgt := v.Target.(type) {
			case *lang.VarRef:
				if !e.assign(tgt.Name, val) {
					fail("assignment to undeclared variable %q", tgt.Name)
				}
			case *lang.FieldAccess:
				ev.writeField(tgt, val, fe, e, ops)
			}
		case *lang.IfStmt:
			if ev.evalPar(v.Cond, fe, e, ops) != 0 {
				if ev.execParBlock(v.Then, fe, newEnv(e), ops) {
					return true
				}
			} else if v.Else != nil {
				if ev.execParBlock(v.Else, fe, newEnv(e), ops) {
					return true
				}
			}
		case *lang.ForStmt:
			from := int(ev.evalPar(v.From, fe, e, ops))
			to := int(ev.evalPar(v.To, fe, e, ops))
			le := newEnv(e)
			for i := from; i < to; i++ {
				le.vars[v.Var] = float64(i)
				if ev.execParBlock(v.Body, fe, le, ops) {
					return true
				}
			}
		case *lang.ExprStmt:
			ev.evalPar(v.X, fe, e, ops)
		case *lang.ReturnStmt:
			return true
		}
	}
	return false
}

// resolveField computes the target element of a field access within a
// parallel invocation.
func (ev *evaluator) resolveField(fa *lang.FieldAccess, fe *frameEnv, e *env, ops *int) (h *aggHandle, i, j, field int) {
	v, ok := fe.param(fa.Base)
	if !ok {
		fail("unknown aggregate %q in %s", fa.Base, fe.f.Name)
	}
	h, ok = v.(*aggHandle)
	if !ok {
		fail("%q is not an aggregate", fa.Base)
	}
	field = h.decl.FieldIndex(fa.Field)
	if field < 0 {
		fail("aggregate %s has no field %q", h.decl.Name, fa.Field)
	}
	if fa.Index == nil {
		return h, fe.i, fe.j, field
	}
	i = int(ev.evalPar(fa.Index[0], fe, e, ops))
	if len(fa.Index) > 1 {
		j = int(ev.evalPar(fa.Index[1], fe, e, ops))
	}
	return h, i, j, field
}

func (ev *evaluator) writeField(fa *lang.FieldAccess, val float64, fe *frameEnv, e *env, ops *int) {
	h, i, j, field := ev.resolveField(fa, fe, e, ops)
	*ops += 2
	if a, ok := h.planes[field].addr(i, j); ok {
		ev.w.WriteF64(a, val)
	} // out-of-range writes are dropped (boundary convention)
}

func (ev *evaluator) evalPar(x lang.Expr, fe *frameEnv, e *env, ops *int) float64 {
	*ops++
	switch v := x.(type) {
	case *lang.NumberLit:
		return v.Value
	case *lang.PosRef:
		if v.Dim == 0 {
			return float64(fe.i)
		}
		return float64(fe.j)
	case *lang.VarRef:
		if val, ok := e.lookup(v.Name); ok {
			return val
		}
		if pv, ok := fe.param(v.Name); ok {
			if f, ok := pv.(float64); ok {
				return f
			}
			fail("aggregate %q used as scalar", v.Name)
		}
		fail("unknown variable %q", v.Name)
	case *lang.FieldAccess:
		h, i, j, field := ev.resolveField(v, fe, e, ops)
		if a, ok := h.planes[field].addr(i, j); ok {
			return ev.w.ReadF64(a)
		}
		return 0 // boundary value
	case *lang.BinaryExpr:
		return applyBinary(v.Op, ev.evalPar(v.L, fe, e, ops), ev.evalPar(v.R, fe, e, ops))
	case *lang.UnaryExpr:
		xv := ev.evalPar(v.X, fe, e, ops)
		if v.Op == lang.Minus {
			return -xv
		}
		return bool2f(xv == 0)
	case *lang.CallExpr:
		return ev.intrinsic(v, func(x lang.Expr) float64 { return ev.evalPar(x, fe, e, ops) })
	case *lang.ReduceExpr:
		fail("reduce inside parallel functions is not supported")
	}
	return 0
}

// intrinsic evaluates the built-in math functions.
func (ev *evaluator) intrinsic(c *lang.CallExpr, eval func(lang.Expr) float64) float64 {
	arity := func(n int) {
		if len(c.Args) != n {
			fail("%s expects %d argument(s), got %d", c.Callee, n, len(c.Args))
		}
	}
	switch c.Callee {
	case "sqrt":
		arity(1)
		return math.Sqrt(eval(c.Args[0]))
	case "abs":
		arity(1)
		return math.Abs(eval(c.Args[0]))
	case "floor":
		arity(1)
		return math.Floor(eval(c.Args[0]))
	case "min":
		arity(2)
		return math.Min(eval(c.Args[0]), eval(c.Args[1]))
	case "max":
		arity(2)
		return math.Max(eval(c.Args[0]), eval(c.Args[1]))
	}
	fail("call to %q: only intrinsics (sqrt, abs, floor, min, max) may be called in expressions", c.Callee)
	return 0
}

// evalSeq evaluates main's sequential expressions (scalar-only, except
// reductions which synchronize all workers).
func (ev *evaluator) evalSeq(x lang.Expr, e *env) float64 {
	switch v := x.(type) {
	case *lang.NumberLit:
		return v.Value
	case *lang.VarRef:
		if val, ok := e.lookup(v.Name); ok {
			return val
		}
		fail("unknown variable %q in main", v.Name)
	case *lang.BinaryExpr:
		return applyBinary(v.Op, ev.evalSeq(v.L, e), ev.evalSeq(v.R, e))
	case *lang.UnaryExpr:
		xv := ev.evalSeq(v.X, e)
		if v.Op == lang.Minus {
			return -xv
		}
		return bool2f(xv == 0)
	case *lang.ReduceExpr:
		h := ev.aggs[v.Base]
		if h == nil {
			fail("reduce over unknown aggregate %q", v.Base)
		}
		field := h.decl.FieldIndex(v.Field)
		if field < 0 {
			fail("aggregate %s has no field %q", h.decl.Name, v.Field)
		}
		return reduce(ev.w, h, field, v.Op, ev.opt.CostOp)
	case *lang.PosRef:
		fail("#%d outside a parallel function", v.Dim)
	case *lang.FieldAccess:
		fail("main may not read aggregate elements directly; use reduce")
	case *lang.CallExpr:
		return ev.intrinsic(v, func(x lang.Expr) float64 { return ev.evalSeq(x, e) })
	}
	return 0
}
