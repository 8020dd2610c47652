package plan

import (
	"fmt"
	"sync"

	"repro/internal/axes"
	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/syntax"
	"repro/internal/trace"
	"repro/internal/values"
	"repro/internal/xmltree"
)

// Engine evaluates queries by compiling them to flat instruction programs
// and running them on a register VM. It implements engine.Engine and is
// safe for concurrent use: programs are immutable and live on their query
// (ProgramOf), and each evaluation checks a machine (register file +
// scratch sets) out of a pool.
type Engine struct {
	pool sync.Pool
}

// New returns a compiled-plan engine.
func New() *Engine { return &Engine{} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "compiled" }

// Evaluate implements engine.Engine.
func (e *Engine) Evaluate(q *syntax.Query, doc *xmltree.Document, ctx engine.Context) (values.Value, engine.Stats, error) {
	prog, err := ProgramOf(q)
	if err != nil {
		return values.Value{}, engine.Stats{}, err
	}
	m, _ := e.pool.Get().(*machine)
	if m == nil {
		m = &machine{}
	}
	m.reset(prog, doc)
	m.tr = ctx.Tracer
	m.bud = ctx.Budget
	v, err := m.runBlock(0, ctx.Node, ctx.Pos, ctx.Size)
	st := m.st
	if err == nil && v.T == values.KindNodeSet {
		// Detach the result from the machine's reusable arena.
		v = values.NodeSet(v.Set.Clone())
	}
	m.prog, m.doc, m.tr, m.bud = nil, nil, nil, nil
	e.pool.Put(m)
	return v, st, err
}

// machine is one VM instance: the register file, the instrumentation
// counters, and the reusable scratch memory (a set arena and candidate-list
// buffers) that make repeated evaluations allocation-light.
type machine struct {
	prog *Program
	doc  *xmltree.Document
	// lastDoc survives the end-of-Evaluate field clearing so reset can
	// detect document switches and drop document-bound scratch memory.
	lastDoc *xmltree.Document
	regs    []values.Value
	st      engine.Stats

	// arena recycles node sets across evaluations (and, stack-wise, across
	// predicate-block invocations); arenaN is the bump pointer.
	arena  []*xmltree.Set
	arenaN int
	// bufs is a free list of candidate-list buffers for OpStepSel and
	// OpFilterList.
	bufs [][]*xmltree.Node
	// sc is the axis-kernel scratch arena threaded through every step and
	// inverse-step instruction of the program; it rebinds itself when the
	// machine is reset onto a different document.
	sc axes.Scratch
	// tr, when non-nil, receives one KindOpcode span per executed
	// instruction. The nil case is the hot path: one predicted branch per
	// instruction and nothing else (pinned by TestWarmEvaluateAllocs).
	tr trace.Tracer
	// bud, when non-nil, is charged one step per block entry — the main
	// block once per evaluation, predicate blocks once per candidate — so a
	// positional predicate loop observes cancellation per candidate. The nil
	// case is one predicted branch (pinned by TestWarmEvaluateAllocs with a
	// live budget too).
	bud *budget.Budget
}

func (m *machine) reset(p *Program, doc *xmltree.Document) {
	docChanged := m.lastDoc != nil && m.lastDoc != doc
	m.prog, m.doc, m.lastDoc = p, doc, doc
	if cap(m.regs) < p.NumRegs {
		m.regs = make([]values.Value, p.NumRegs)
	} else {
		// Clear the whole backing array, not just the visible prefix: a
		// pooled machine must not pin a prior document through stale
		// high-register values of a larger earlier program.
		full := m.regs[:cap(m.regs)]
		for i := range full {
			full[i] = values.Value{}
		}
		m.regs = m.regs[:p.NumRegs]
	}
	if docChanged {
		// Arena sets are sized for (and reference) the old document, and
		// candidate buffers keep node pointers beyond their zero length.
		m.arena = nil
		m.bufs = nil
		m.sc.Release()
	}
	m.arenaN = 0
	m.st = engine.Stats{}
}

// newSet returns a cleared set from the arena (allocating on first use).
// Sets above the caller's saved arena mark may be recycled once the caller
// restores the mark, so only values consumed before the restore may live in
// them.
func (m *machine) newSet() *xmltree.Set {
	if m.arenaN < len(m.arena) {
		s := m.arena[m.arenaN]
		m.arenaN++
		s.Clear()
		return s
	}
	s := xmltree.NewSet(m.doc)
	m.arena = append(m.arena, s)
	m.arenaN++
	return s
}

func (m *machine) getBuf() []*xmltree.Node {
	if n := len(m.bufs); n > 0 {
		b := m.bufs[n-1]
		m.bufs = m.bufs[:n-1]
		return b
	}
	return nil
}

func (m *machine) putBuf(b []*xmltree.Node) { m.bufs = append(m.bufs, b[:0]) }

// runBlock executes one block in the context 〈cn, cp, cs〉 (cp/cs 0 = the
// wildcard "∗") and returns its result value.
//
//xpathlint:noalloc
func (m *machine) runBlock(block int, cn *xmltree.Node, cp, cs int) (values.Value, error) {
	if b := m.bud; b != nil {
		if err := b.Step(1); err != nil {
			return values.Value{}, err
		}
	}
	m.st.ContextsEvaluated++
	code := m.prog.Code
	R := m.regs
	tr := m.tr
	for pc := m.prog.Blocks[block]; pc < len(code); pc++ {
		in := &code[pc]
		var t0 int64
		var opPC, inCard int
		if tr != nil {
			t0, opPC, inCard = trace.Now(), pc, m.opInputCard(in)
		}
		switch in.Op {
		case OpConst:
			R[in.Dst] = m.prog.Consts[in.A]
		case OpMove:
			R[in.Dst] = R[in.A]
		case OpCtxNode:
			s := m.newSet()
			s.Add(cn)
			R[in.Dst] = values.NodeSet(s)
		case OpRootSet:
			s := m.newSet()
			s.Add(m.doc.Root())
			R[in.Dst] = values.NodeSet(s)
		case OpEmptySet:
			R[in.Dst] = values.NodeSet(m.newSet())
		case OpPosition:
			R[in.Dst] = values.Number(float64(cp))
		case OpLast:
			R[in.Dst] = values.Number(float64(cs))
		case OpArith:
			R[in.Dst] = values.Number(values.Arith(syntax.BinOp(in.A),
				values.ToNumber(R[in.B]), values.ToNumber(R[in.C])))
		case OpNegate:
			R[in.Dst] = values.Number(-values.ToNumber(R[in.A]))
		case OpCompare:
			R[in.Dst] = values.Boolean(values.Compare(syntax.BinOp(in.A), R[in.B], R[in.C]))
		case OpCoerceBool:
			R[in.Dst] = values.Boolean(values.ToBool(R[in.A]))
		case OpCall:
			v, err := values.Call(syntax.Func(in.A), R[in.B:in.B+in.C],
				values.CallEnv{Doc: m.doc, Node: cn})
			if err != nil {
				return values.Value{}, err
			}
			R[in.Dst] = v
		case OpJump:
			pc = in.A - 1
		case OpJumpIfTrue:
			if values.ToBool(R[in.B]) {
				pc = in.A - 1
			}
		case OpJumpIfFalse:
			if !values.ToBool(R[in.B]) {
				pc = in.A - 1
			}
		case OpStep:
			R[in.Dst] = values.NodeSet(m.step(in, R[in.C].Set))
		case OpStepInv:
			m.st.AxisCalls++
			s := m.newSet()
			axes.ApplyInverseInto(s, axes.Axis(in.A), R[in.C].Set, &m.sc)
			R[in.Dst] = values.NodeSet(s)
		case OpTestFilter:
			s := R[in.C].Set
			if in.Dst != in.C {
				fresh := m.newSet()
				fresh.CopyFrom(s)
				s = fresh
			}
			s.IntersectWith(engine.TestSet(m.doc, m.prog.Tests[in.B]))
			R[in.Dst] = values.NodeSet(s)
		case OpTestSet:
			R[in.Dst] = values.NodeSet(engine.TestSet(m.doc, m.prog.Tests[in.B]))
		case OpScanCmp:
			R[in.Dst] = values.NodeSet(m.scanCmp(in))
		case OpUnionSet:
			s := R[in.B].Set
			if in.Dst != in.B {
				fresh := m.newSet()
				fresh.UnionWith(s)
				s = fresh
			}
			s.UnionWith(R[in.C].Set)
			R[in.Dst] = values.NodeSet(s)
		case OpIntersect:
			s := R[in.B].Set
			if in.Dst != in.B {
				fresh := m.newSet()
				fresh.UnionWith(s)
				s = fresh
			}
			s.IntersectWith(R[in.C].Set)
			R[in.Dst] = values.NodeSet(s)
		case OpComplement:
			s := m.newSet()
			s.UnionWith(m.doc.AllNodes())
			s.SubtractWith(R[in.C].Set)
			R[in.Dst] = values.NodeSet(s)
		case OpBoolGate:
			if values.ToBool(R[in.B]) {
				R[in.Dst] = R[in.C]
			} else {
				R[in.Dst] = values.NodeSet(m.newSet())
			}
		case OpFilterSet:
			s, err := m.filterSet(in, R[in.C].Set)
			if err != nil {
				return values.Value{}, err
			}
			R[in.Dst] = values.NodeSet(s)
		case OpFilterList:
			s, err := m.filterList(in, R[in.C].Set)
			if err != nil {
				return values.Value{}, err
			}
			R[in.Dst] = values.NodeSet(s)
		case OpStepSel:
			s, err := m.stepSel(in, R[in.C].Set)
			if err != nil {
				return values.Value{}, err
			}
			R[in.Dst] = values.NodeSet(s)
		case OpSatHas:
			R[in.Dst] = values.Boolean(R[in.A].Set.Has(cn))
		case OpReturn:
			if tr != nil {
				m.emitOp(block, opPC, in, inCard, t0)
			}
			return R[in.A], nil
		default:
			//xpathlint:ignore noalloc cold error path, unreachable for compiled programs
			return values.Value{}, fmt.Errorf("plan: vm: unknown opcode %v", in.Op)
		}
		if tr != nil {
			m.emitOp(block, opPC, in, inCard, t0)
		}
	}
	//xpathlint:ignore noalloc cold error path, every compiled block ends in OpReturn
	return values.Value{}, fmt.Errorf("plan: vm: block %d fell off the end", block)
}

// setCard returns the cardinality of a node-set value, CardUnknown for
// scalars and empty registers.
//
//xpathlint:noalloc
func setCard(v values.Value) int {
	if v.T == values.KindNodeSet && v.Set != nil {
		return v.Set.Len()
	}
	return trace.CardUnknown
}

// opInputCard returns the cardinality of the instruction's node-set input
// register, CardUnknown when the opcode has none (constants, context
// loads). Only called when tracing is on.
//
//xpathlint:noalloc
func (m *machine) opInputCard(in *Instr) int {
	switch in.Op {
	case OpConst, OpCtxNode, OpRootSet, OpEmptySet, OpPosition, OpLast,
		OpTestSet, OpScanCmp, OpJump:
		return trace.CardUnknown
	case OpMove, OpNegate, OpCoerceBool, OpSatHas, OpReturn:
		return setCard(m.regs[in.A])
	case OpUnionSet, OpIntersect:
		return setCard(m.regs[in.B])
	case OpJumpIfTrue, OpJumpIfFalse:
		return setCard(m.regs[in.B])
	default:
		return setCard(m.regs[in.C])
	}
}

// emitOp reports one executed instruction as a KindOpcode span; the Out
// cardinality reads the destination register (for OpReturn, the returned
// register) after execution.
//
//xpathlint:noalloc
func (m *machine) emitOp(block, pc int, in *Instr, inCard int, t0 int64) {
	if m.tr == nil {
		return
	}
	dst := in.Dst
	if in.Op == OpReturn {
		dst = in.A
	}
	m.tr.Emit(trace.Event{
		Kind: trace.KindOpcode, Name: in.Op.String(), Block: block, PC: pc,
		In: inCard, Out: setCard(m.regs[dst]), Ns: trace.Now() - t0,
		HighWater: m.sc.HighWater(),
	})
}

// step executes a fused predicate-free location step. Singleton sources
// (the common case inside predicate blocks) walk the per-node neighborhood
// instead of paying the O(|D|) set-at-a-time scan.
//
//xpathlint:noalloc
func (m *machine) step(in *Instr, src *xmltree.Set) *xmltree.Set {
	axis, test := axes.Axis(in.A), m.prog.Tests[in.B]
	if src.Len() == 1 {
		m.st.AxisCalls++
		buf := m.getBuf()
		z := engine.Candidates(axis, test, src.First(), buf[:0])
		out := m.newSet()
		for _, n := range z {
			out.Add(n)
		}
		m.putBuf(z)
		return out
	}
	out := m.newSet()
	engine.StepImageInto(&m.st, out, axis, test, src, &m.sc)
	return out
}

// scanCmp executes the whole-document string-value comparison scan.
func (m *machine) scanCmp(in *Instr) *xmltree.Set {
	out := m.newSet()
	op := syntax.BinOp(in.A)
	want := m.prog.Consts[in.B]
	for _, n := range m.doc.Nodes() {
		if values.Compare(op, values.String(n.StringValue()), want) {
			out.Add(n)
		}
	}
	return out
}

// filterSet keeps the members of src satisfying the block at the wildcard
// context 〈n, ∗, ∗〉 — generic position-independent predicate filtering.
func (m *machine) filterSet(in *Instr, src *xmltree.Set) (*xmltree.Set, error) {
	out := m.newSet()
	var err error
	src.ForEach(func(n *xmltree.Node) {
		if err != nil {
			return
		}
		mark := m.arenaN
		v, e := m.runBlock(in.B, n, 0, 0)
		if e != nil {
			err = e
			return
		}
		keep := values.ToBool(v)
		m.arenaN = mark
		if keep {
			out.Add(n)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// applyChain runs a predicate chain over an ordered candidate list,
// left-to-right with positions recomputed per predicate (the step/filter
// predicate semantics of Definition 2).
//
//xpathlint:noalloc
func (m *machine) applyChain(preds []PredRef, z []*xmltree.Node) ([]*xmltree.Node, error) {
	for _, pr := range preds {
		if len(z) == 0 {
			break
		}
		switch pr.Kind {
		case PredIndex:
			if pr.K <= len(z) {
				z = z[pr.K-1 : pr.K]
			} else {
				z = z[:0]
			}
		case PredLast:
			z = z[len(z)-1:]
		case PredSat:
			sat := m.regs[pr.Reg].Set
			kept := z[:0]
			for _, n := range z {
				if sat.Has(n) {
					kept = append(kept, n)
				}
			}
			z = kept
		case PredGate:
			if !values.ToBool(m.regs[pr.Reg]) {
				z = z[:0]
			}
		case PredBlock:
			size := len(z)
			kept := z[:0]
			for j, n := range z {
				mark := m.arenaN
				v, err := m.runBlock(pr.Block, n, j+1, size)
				if err != nil {
					return nil, err
				}
				keep := values.ToBool(v)
				m.arenaN = mark
				if keep {
					kept = append(kept, n)
				}
			}
			z = kept
		}
	}
	return z, nil
}

// filterList applies filter-expression predicates to src in document order.
func (m *machine) filterList(in *Instr, src *xmltree.Set) (*xmltree.Set, error) {
	buf := m.getBuf()
	z := src.AppendTo(buf[:0])
	if cap(z) > cap(buf) {
		buf = z
	}
	z, err := m.applyChain(in.Preds, z)
	if err != nil {
		m.putBuf(buf)
		return nil, err
	}
	out := m.newSet()
	for _, n := range z {
		out.Add(n)
	}
	m.putBuf(buf)
	return out, nil
}

// stepSel executes a positional location step: per context node, the
// ordered candidate list of χ::t runs through the predicate chain, and the
// survivors are united.
func (m *machine) stepSel(in *Instr, src *xmltree.Set) (*xmltree.Set, error) {
	axis, test := axes.Axis(in.A), m.prog.Tests[in.B]
	out := m.newSet()
	buf := m.getBuf()
	var err error
	src.ForEach(func(x *xmltree.Node) {
		if err != nil {
			return
		}
		m.st.AxisCalls++
		z := engine.Candidates(axis, test, x, buf[:0])
		if cap(z) > cap(buf) {
			buf = z
		}
		z, err = m.applyChain(in.Preds, z)
		if err != nil {
			return
		}
		for _, n := range z {
			out.Add(n)
		}
	})
	m.putBuf(buf)
	if err != nil {
		return nil, err
	}
	return out, nil
}
