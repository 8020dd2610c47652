// Package naive implements the exponential-time XPath evaluation strategy
// the paper's introduction measures in XALAN, XT and Internet Explorer 6:
// context-at-a-time recursive evaluation of location paths. A location step
// applied to a node evaluates the remainder of the path once per selected
// node, and intermediate results are never deduplicated, so documents in
// which steps fan out and refold (e.g. the b/parent::a doubling queries of
// [11]) cost time exponential in the query size.
//
// This engine stands in for those processors, which this repository does
// not ship: it is semantically a correct XPath 1.0 evaluator — results are
// deduplicated at the very end — and differs from the polynomial engines
// only in its evaluation strategy.
package naive

import (
	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/syntax"
	"repro/internal/values"
	"repro/internal/xmltree"
)

// Engine is the naive evaluator. The zero value is ready to use.
type Engine struct{}

// New returns a naive engine.
func New() *Engine { return &Engine{} }

// Name implements engine.Engine.
func (*Engine) Name() string { return "naive" }

// MaxWork bounds the number of node visits during location-path recursion
// before evaluation aborts; the exponential benchmarks rely on it so a
// mis-sized sweep degrades into an error instead of a hang. Zero means
// no bound.
var MaxWork int64 = 1 << 26

// ErrWorkLimit is returned when MaxWork is exceeded.
type ErrWorkLimit struct{ Visited int64 }

func (e *ErrWorkLimit) Error() string {
	return "naive: exponential evaluation exceeded the work limit"
}

// Evaluate implements engine.Engine.
func (*Engine) Evaluate(q *syntax.Query, doc *xmltree.Document, ctx engine.Context) (values.Value, engine.Stats, error) {
	ev := &evaluator{doc: doc, bud: ctx.Budget}
	defer func() {
		// Translate the work-limit panic into an error; any other panic is
		// a bug and propagates.
		if r := recover(); r != nil {
			if _, ok := r.(*ErrWorkLimit); !ok {
				panic(r)
			}
		}
	}()
	v, err := ev.evalSafe(q.Root, ctx)
	return v, ev.st, err
}

type evaluator struct {
	doc  *xmltree.Document
	st   engine.Stats
	work int64
	bud  *budget.Budget
}

// evalSafe wraps eval, converting the work-limit panic (and a budget bail)
// into an error.
func (ev *evaluator) evalSafe(e syntax.Expr, ctx engine.Context) (v values.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			if wl, ok := r.(*ErrWorkLimit); ok {
				err = wl
				return
			}
			if berr, ok := budget.FromPanic(r); ok {
				err = berr
				return
			}
			panic(r)
		}
	}()
	return ev.eval(e, ctx), nil
}

func (ev *evaluator) charge() {
	ev.work++
	if MaxWork > 0 && ev.work > MaxWork {
		panic(&ErrWorkLimit{Visited: ev.work})
	}
	if b := ev.bud; b != nil {
		if err := b.Step(1); err != nil {
			budget.Bail(err)
		}
	}
}

// eval evaluates any expression for a single context, recursively.
func (ev *evaluator) eval(e syntax.Expr, ctx engine.Context) values.Value {
	ev.st.ContextsEvaluated++
	ev.charge()
	switch e := e.(type) {
	case *syntax.NumberLit:
		return values.Number(e.Val)
	case *syntax.StringLit:
		return values.String(e.Val)
	case *syntax.Negate:
		return values.Number(-values.ToNumber(ev.eval(e.E, ctx)))
	case *syntax.Binary:
		return ev.evalBinary(e, ctx)
	case *syntax.Call:
		return ev.evalCall(e, ctx)
	case *syntax.Union:
		out := xmltree.NewSet(ev.doc)
		for _, p := range e.Paths {
			out.UnionWith(ev.eval(p, ctx).Set)
		}
		return values.NodeSet(out)
	case *syntax.Path:
		return values.NodeSet(ev.evalPath(e, ctx))
	}
	panic("naive: eval: unhandled expression")
}

func (ev *evaluator) evalBinary(e *syntax.Binary, ctx engine.Context) values.Value {
	switch {
	case e.Op == syntax.OpOr:
		if values.ToBool(ev.eval(e.L, ctx)) {
			return values.Boolean(true)
		}
		return values.Boolean(values.ToBool(ev.eval(e.R, ctx)))
	case e.Op == syntax.OpAnd:
		if !values.ToBool(ev.eval(e.L, ctx)) {
			return values.Boolean(false)
		}
		return values.Boolean(values.ToBool(ev.eval(e.R, ctx)))
	case e.Op.IsRelational():
		return values.Boolean(values.Compare(e.Op, ev.eval(e.L, ctx), ev.eval(e.R, ctx)))
	default:
		return values.Number(values.Arith(e.Op,
			values.ToNumber(ev.eval(e.L, ctx)), values.ToNumber(ev.eval(e.R, ctx))))
	}
}

func (ev *evaluator) evalCall(e *syntax.Call, ctx engine.Context) values.Value {
	switch e.Fn {
	case syntax.FnPosition:
		return values.Number(float64(ctx.Pos))
	case syntax.FnLast:
		return values.Number(float64(ctx.Size))
	}
	args := make([]values.Value, len(e.Args))
	for i, a := range e.Args {
		args[i] = ev.eval(a, ctx)
	}
	v, err := values.Call(e.Fn, args, values.CallEnv{Doc: ev.doc, Node: ctx.Node})
	if err != nil {
		panic(err) // unreachable: signatures were checked at compile time
	}
	return v
}

// evalPath evaluates a location path for one context. The recursion over
// remaining steps per selected node — with no deduplication of the
// intermediate node lists — is the exponential strategy under study.
func (ev *evaluator) evalPath(p *syntax.Path, ctx engine.Context) *xmltree.Set {
	var starts []*xmltree.Node
	switch {
	case p.Abs:
		starts = []*xmltree.Node{ev.doc.Root()}
	case p.Filter != nil:
		set := ev.eval(p.Filter, ctx).Set
		nodes := set.Nodes()
		for _, pred := range p.FPreds {
			nodes = ev.filterByPredicate(pred, nodes)
		}
		starts = nodes
	default:
		starts = []*xmltree.Node{ctx.Node}
	}
	out := xmltree.NewSet(ev.doc)
	for _, s := range starts {
		for _, n := range ev.evalSteps(p.Steps, s) {
			out.Add(n)
		}
	}
	return out
}

// evalSteps returns the nodes reached from x via the remaining steps, with
// duplicates preserved (the defining trait of the naive strategy). Each
// visit counts as a context evaluation: it is the unit of the exponential
// blowup the §1 experiments measure.
func (ev *evaluator) evalSteps(steps []*syntax.Step, x *xmltree.Node) []*xmltree.Node {
	ev.st.ContextsEvaluated++
	ev.charge()
	if len(steps) == 0 {
		return []*xmltree.Node{x}
	}
	step := steps[0]
	cands := engine.Candidates(step.Axis, step.Test, x, nil)
	for _, pred := range step.Preds {
		cands = ev.filterByPredicate(pred, cands)
	}
	var out []*xmltree.Node
	for _, y := range cands {
		out = append(out, ev.evalSteps(steps[1:], y)...)
	}
	return out
}

// filterByPredicate keeps the candidates for which the (normalized,
// boolean-typed) predicate holds, using positions within the candidate
// list, which is already in <doc,χ order.
func (ev *evaluator) filterByPredicate(pred syntax.Expr, cands []*xmltree.Node) []*xmltree.Node {
	var out []*xmltree.Node
	size := len(cands)
	for i, c := range cands {
		v := ev.eval(pred, engine.Context{Node: c, Pos: i + 1, Size: size})
		if values.ToBool(v) {
			out = append(out, c)
		}
	}
	return out
}
