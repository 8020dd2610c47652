package plan

import (
	"fmt"
	"math"

	"repro/internal/axes"
	"repro/internal/syntax"
	"repro/internal/values"
)

// Compile lowers a normalized query into a flat instruction program. The
// compiler performs constant folding, dead-branch elimination, static
// specialization of position() = k / position() = last() predicates,
// satisfaction-set compilation of eligible position-independent predicates
// (see sat.go), and per-node memoization of the scalar subexpressions that
// nested predicate blocks would otherwise recompute (emitMemo); everything
// the six interpreting engines re-derive per evaluation happens here
// exactly once.
func Compile(q *syntax.Query) (p *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(compileError); ok {
				p, err = nil, fmt.Errorf("plan: %s", string(ce))
				return
			}
			panic(r)
		}
	}()
	c := &compiler{q: q}
	main := c.newBlock() // block 0 = main program
	c.satHoist = main
	res := c.compileExpr(main, q.Root)
	c.emit(main, Instr{Op: OpReturn, A: res})
	return c.link(), nil
}

// compileError aborts compilation through the recover in Compile.
type compileError string

// blockBuf accumulates one block's instructions with block-relative jump
// targets; link concatenates the buffers and absolutizes the targets.
type blockBuf struct {
	id   int
	code []Instr
	// memo: the block can run more than once for the same node in one
	// evaluation, so its maximal memoizable subexpressions go behind OpMemo.
	memo bool
	// slot is the block's own memo slot, or -1.
	slot int
}

type compiler struct {
	q      *syntax.Query
	blocks []*blockBuf
	consts []values.Value
	tests  []syntax.NodeTest
	nreg   int
	nmemo  int
	// satHoist is the main block: satisfaction sets for subexpressions of
	// per-candidate predicate blocks are hoisted here, so they are computed
	// once per evaluation instead of once per candidate (the compile-time
	// analogue of MINCONTEXT's context-value tables for Relev = {cn} nodes).
	satHoist *blockBuf
}

func (c *compiler) fail(format string, args ...any) {
	panic(compileError(fmt.Sprintf(format, args...)))
}

func (c *compiler) newBlock() *blockBuf {
	b := &blockBuf{id: len(c.blocks), slot: -1}
	c.blocks = append(c.blocks, b)
	return b
}

func (c *compiler) newReg() int {
	c.nreg++
	return c.nreg - 1
}

func (c *compiler) emit(b *blockBuf, in Instr) int {
	b.code = append(b.code, in)
	return len(b.code) - 1
}

func (c *compiler) constIdx(v values.Value) int {
	for i, have := range c.consts {
		if have.T == v.T && values.Equal(have, v) {
			return i
		}
	}
	c.consts = append(c.consts, v)
	return len(c.consts) - 1
}

func (c *compiler) testIdx(t syntax.NodeTest) int {
	for i, have := range c.tests {
		if have == t {
			return i
		}
	}
	c.tests = append(c.tests, t)
	return len(c.tests) - 1
}

// link concatenates the block buffers into the final flat program,
// absolutizing jump targets (jumps never cross block boundaries).
func (c *compiler) link() *Program {
	p := &Program{
		Source:   c.q.Source,
		Consts:   c.consts,
		Tests:    c.tests,
		NumRegs:  c.nreg,
		NumMemo:  c.nmemo,
		Blocks:   make([]int, len(c.blocks)),
		MemoSlot: make([]int, len(c.blocks)),
	}
	for i, b := range c.blocks {
		start := len(p.Code)
		p.Blocks[i] = start
		p.MemoSlot[i] = b.slot
		for _, in := range b.code {
			switch in.Op {
			case OpJump, OpJumpIfTrue, OpJumpIfFalse:
				in.A += start
			}
			p.Code = append(p.Code, in)
		}
	}
	return p
}

// emitConst emits a constant load and returns its register.
func (c *compiler) emitConst(b *blockBuf, v values.Value) int {
	dst := c.newReg()
	c.emit(b, Instr{Op: OpConst, Dst: dst, A: c.constIdx(v)})
	return dst
}

// compileExpr emits code evaluating e in the current frame's context and
// returns the result register.
func (c *compiler) compileExpr(b *blockBuf, e syntax.Expr) int {
	if v, ok := fold(e); ok {
		return c.emitConst(b, v)
	}
	if b.memo && c.memoizable(e) {
		return c.emitMemo(b, e)
	}
	return c.lower(b, e)
}

// memoizable reports whether e's value can be kept per context node for a
// whole evaluation: it is scalar (node sets live in the recycled arena), it
// depends on the context node only (Relev ⊆ {cn}, §3.1), it is not the same
// at every node (ctxFree), and it contains a location path, so recomputing
// it costs more than a table lookup.
func (c *compiler) memoizable(e syntax.Expr) bool {
	return e.ResultType() != syntax.TypeNodeSet && !c.q.Relev[e.ID()].NeedsPosition() &&
		!ctxFree(e) && hasPath(e)
}

// emitMemo compiles e into its own memoized block and returns the register
// OpMemo loads.
func (c *compiler) emitMemo(b *blockBuf, e syntax.Expr) int {
	nb := c.memoBlock(e)
	dst := c.newReg()
	c.emit(b, Instr{Op: OpMemo, Dst: dst, B: nb})
	return dst
}

// memoBlock compiles e into a new block with a fresh memo slot. e's
// subexpressions compile into the block unwrapped, so each memoized
// subexpression is maximal; predicate blocks nested in it memoize again,
// because they run per candidate.
func (c *compiler) memoBlock(e syntax.Expr) int {
	nb := c.newBlock()
	nb.slot = c.nmemo
	c.nmemo++
	c.emit(nb, Instr{Op: OpReturn, A: c.lower(nb, e)})
	return nb.id
}

// lower emits the instructions of a non-constant expression.
func (c *compiler) lower(b *blockBuf, e syntax.Expr) int {
	switch e := e.(type) {
	case *syntax.Negate:
		r := c.compileExpr(b, e.E)
		dst := c.newReg()
		c.emit(b, Instr{Op: OpNegate, Dst: dst, A: r})
		return dst
	case *syntax.Binary:
		return c.compileBinary(b, e)
	case *syntax.Call:
		return c.compileCall(b, e)
	case *syntax.Union:
		return c.compileUnion(b, e)
	case *syntax.Path:
		return c.compilePath(b, e)
	}
	c.fail("lower: unhandled expression %T", e)
	return 0
}

// compileBinary lowers a binary operator. and/or get short-circuit jumps;
// a constant-folded operand eliminates the dead branch entirely (operands
// are side-effect free, so this is always sound).
func (c *compiler) compileBinary(b *blockBuf, e *syntax.Binary) int {
	if e.Op == syntax.OpAnd || e.Op == syntax.OpOr {
		return c.compileBool(b, e)
	}
	l := c.compileExpr(b, e.L)
	r := c.compileExpr(b, e.R)
	dst := c.newReg()
	op := OpArith
	if e.Op.IsRelational() {
		op = OpCompare
	}
	c.emit(b, Instr{Op: op, Dst: dst, A: int(e.Op), B: l, C: r})
	return dst
}

func (c *compiler) compileBool(b *blockBuf, e *syntax.Binary) int {
	isOr := e.Op == syntax.OpOr
	// Dead-branch elimination: a folded operand decides the result or
	// reduces the connective to boolean(other side).
	if v, ok := fold(e.L); ok {
		if values.ToBool(v) == isOr {
			return c.emitConst(b, values.Boolean(isOr))
		}
		return c.coerceBool(b, c.compileExpr(b, e.R))
	}
	if v, ok := fold(e.R); ok {
		if values.ToBool(v) == isOr {
			return c.emitConst(b, values.Boolean(isOr))
		}
		return c.coerceBool(b, c.compileExpr(b, e.L))
	}
	// Short-circuit: evaluate L into dst; skip R when L decides.
	dst := c.newReg()
	l := c.compileBoolOperand(b, e.L)
	c.emit(b, Instr{Op: OpCoerceBool, Dst: dst, A: l})
	jop := OpJumpIfFalse
	if isOr {
		jop = OpJumpIfTrue
	}
	j := c.emit(b, Instr{Op: jop, B: dst})
	r := c.compileBoolOperand(b, e.R)
	c.emit(b, Instr{Op: OpCoerceBool, Dst: dst, A: r})
	b.code[j].A = len(b.code)
	return dst
}

// compileBoolOperand compiles one and/or operand. Inside a per-candidate
// predicate block, a position-independent operand of satisfiable shape is
// replaced by a membership test against a satisfaction set hoisted into the
// main block: the set is computed once per evaluation, and each candidate
// pays O(1) instead of re-walking the subexpression (this is what keeps
// mixed predicates like "position() > last()*0.5 or self::* = 100" from
// re-evaluating their path half per 〈context, candidate〉 pair).
func (c *compiler) compileBoolOperand(b *blockBuf, e syntax.Expr) int {
	if b != c.satHoist && !c.q.Relev[e.ID()].NeedsPosition() && c.satisfiable(e) {
		sat := c.emitSat(c.satHoist, e)
		dst := c.newReg()
		c.emit(b, Instr{Op: OpSatHas, Dst: dst, A: sat})
		return dst
	}
	return c.compileExpr(b, e)
}

func (c *compiler) coerceBool(b *blockBuf, r int) int {
	dst := c.newReg()
	c.emit(b, Instr{Op: OpCoerceBool, Dst: dst, A: r})
	return dst
}

func (c *compiler) compileCall(b *blockBuf, e *syntax.Call) int {
	switch e.Fn {
	case syntax.FnPosition:
		dst := c.newReg()
		c.emit(b, Instr{Op: OpPosition, Dst: dst})
		return dst
	case syntax.FnLast:
		dst := c.newReg()
		c.emit(b, Instr{Op: OpLast, Dst: dst})
		return dst
	}
	regs := make([]int, len(e.Args))
	for i, a := range e.Args {
		regs[i] = c.compileExpr(b, a)
	}
	// values.Call takes a contiguous register window.
	base := c.nreg
	for range regs {
		c.newReg()
	}
	for i, r := range regs {
		c.emit(b, Instr{Op: OpMove, Dst: base + i, A: r})
	}
	dst := c.newReg()
	c.emit(b, Instr{Op: OpCall, Dst: dst, A: int(e.Fn), B: base, C: len(regs)})
	return dst
}

func (c *compiler) compileUnion(b *blockBuf, e *syntax.Union) int {
	cur := c.compileExpr(b, e.Paths[0])
	for _, p := range e.Paths[1:] {
		r := c.compileExpr(b, p)
		dst := c.newReg()
		c.emit(b, Instr{Op: OpUnionSet, Dst: dst, B: cur, C: r})
		cur = dst
	}
	return cur
}

// compilePath lowers a location path: head (root, context node, or filter
// expression with its predicates), then the step chain.
func (c *compiler) compilePath(b *blockBuf, p *syntax.Path) int {
	var cur int
	switch {
	case p.Abs:
		cur = c.newReg()
		c.emit(b, Instr{Op: OpRootSet, Dst: cur})
	case p.Filter != nil:
		cur = c.compileExpr(b, p.Filter)
		if len(p.FPreds) > 0 {
			chain, empty := c.predChain(b, p.FPreds)
			if empty {
				dst := c.newReg()
				c.emit(b, Instr{Op: OpEmptySet, Dst: dst})
				return dst
			}
			if len(chain) > 0 {
				dst := c.newReg()
				c.emit(b, Instr{Op: OpFilterList, Dst: dst, C: cur, Preds: chain})
				cur = dst
			}
		}
	default:
		cur = c.newReg()
		c.emit(b, Instr{Op: OpCtxNode, Dst: cur})
	}
	for _, s := range p.Steps {
		cur = c.compileStep(b, s, cur)
	}
	return cur
}

// predClass is the compile-time classification of one predicate.
type predClass struct {
	kind  PredKind
	drop  bool // constant-true predicate: no code needed
	empty bool // constant-false predicate: the whole step selects nothing
	k     int  // PredIndex
	reg   int  // PredSat / PredGate
	block int  // PredBlock
}

// classifyPred resolves one predicate as statically as possible. Support
// code (satisfaction sets, hoisted uniform gate values) is emitted into the
// main block c.satHoist, never into the block being compiled. repeats says
// whether a predicate block would run more than once for the same node in
// one evaluation (see repeats in compileStep); such a block memoizes.
func (c *compiler) classifyPred(pred syntax.Expr, repeats bool) predClass {
	if v, ok := fold(pred); ok {
		if values.ToBool(v) {
			return predClass{drop: true}
		}
		return predClass{empty: true}
	}
	if k, last, bad, ok := matchPositionEq(pred); ok {
		if bad {
			return predClass{empty: true}
		}
		if last {
			return predClass{kind: PredLast}
		}
		return predClass{kind: PredIndex, k: k}
	}
	if !c.q.Relev[pred.ID()].NeedsPosition() {
		// Gate values and satisfaction sets are context-independent, so
		// they are hoisted into the main block: computed once per
		// evaluation even when this step sits inside a per-candidate
		// predicate block. (A skipped short-circuit branch skips both the
		// hoisted code and its only readers, so defs still precede uses.)
		if ctxFree(pred) {
			// Context-uniform predicate: evaluate once, gate the whole step.
			r := c.coerceBool(c.satHoist, c.compileExpr(c.satHoist, pred))
			return predClass{kind: PredGate, reg: r}
		}
		if reg, ok := c.trySat(c.satHoist, pred); ok {
			return predClass{kind: PredSat, reg: reg}
		}
	}
	block := c.compileBlock(pred, repeats)
	return predClass{kind: PredBlock, block: block}
}

// compileBlock compiles an expression as a standalone block evaluated per
// context; returns the block index. A memoizable predicate of a repeating
// block is memoized whole, so a repeated candidate costs one table lookup
// and no block entry.
func (c *compiler) compileBlock(e syntax.Expr, memo bool) int {
	if memo && c.memoizable(e) {
		return c.memoBlock(e)
	}
	nb := c.newBlock()
	nb.memo = memo
	r := c.compileExpr(nb, e)
	c.emit(nb, Instr{Op: OpReturn, A: r})
	return nb.id
}

// predChain classifies the filter predicates of a path compiled into block
// b into a PredRef chain. empty reports that some predicate is
// constant-false (the result is the empty set).
func (c *compiler) predChain(b *blockBuf, preds []syntax.Expr) (chain []PredRef, empty bool) {
	for _, pred := range preds {
		pc := c.classifyPred(pred, b != c.satHoist)
		switch {
		case pc.drop:
			continue
		case pc.empty:
			return nil, true
		}
		chain = append(chain, PredRef{Kind: pc.kind, K: pc.k, Reg: pc.reg, Block: pc.block})
	}
	return chain, false
}

// compileStep lowers one location step χ::t[e1]…[em] applied to the node
// set in src. Steps whose predicates are all position-independent run
// set-at-a-time over the whole image (satisfaction-set intersections, gates
// and per-node filters); a positional predicate switches the step to the
// per-context candidate loop of OpStepSel, with position() = k / last()
// predicates specialized to direct index selection.
func (c *compiler) compileStep(b *blockBuf, s *syntax.Step, src int) int {
	axisI, testI := int(s.Axis), c.testIdx(s.Test)
	// A predicate that needs cp/cs (position() = k and last() included)
	// makes the step positional. The step's predicate blocks repeat per node
	// when b itself runs per candidate, or when the step is positional:
	// OpStepSel's candidate lists of different context nodes overlap.
	positional := false
	for _, pred := range s.Preds {
		positional = positional || c.q.Relev[pred.ID()].NeedsPosition()
	}
	repeats := b != c.satHoist || positional
	classes := make([]predClass, 0, len(s.Preds))
	for _, pred := range s.Preds {
		pc := c.classifyPred(pred, repeats)
		if pc.empty {
			dst := c.newReg()
			c.emit(b, Instr{Op: OpEmptySet, Dst: dst})
			return dst
		}
		if pc.drop {
			continue
		}
		classes = append(classes, pc)
	}

	if positional {
		chain := make([]PredRef, len(classes))
		for i, pc := range classes {
			chain[i] = PredRef{Kind: pc.kind, K: pc.k, Reg: pc.reg, Block: pc.block}
		}
		dst := c.newReg()
		c.emit(b, Instr{Op: OpStepSel, Dst: dst, A: axisI, B: testI, C: src, Preds: chain})
		return dst
	}

	// Whole-image mode: one fused axis+test image, then set-at-a-time
	// filtering. (For position-independent predicates, filtering the union
	// image equals filtering per context node and re-uniting.)
	cur := c.newReg()
	c.emit(b, Instr{Op: OpStep, Dst: cur, A: axisI, B: testI, C: src})
	for _, pc := range classes {
		switch pc.kind {
		case PredSat:
			// In place: OpStep produced an owned set.
			c.emit(b, Instr{Op: OpIntersect, Dst: cur, B: cur, C: pc.reg})
		case PredGate:
			c.emit(b, Instr{Op: OpBoolGate, Dst: cur, B: pc.reg, C: cur})
		default: // PredBlock, position-independent
			dst := c.newReg()
			c.emit(b, Instr{Op: OpFilterSet, Dst: dst, B: pc.block, C: cur})
			cur = dst
		}
	}
	return cur
}

// matchPositionEq recognizes the normalized positional shorthands
// position() = k and position() = last(). bad reports a statically
// unsatisfiable index (k < 1 or non-integral).
func matchPositionEq(e syntax.Expr) (k int, last, bad, ok bool) {
	bin, isBin := e.(*syntax.Binary)
	if !isBin || bin.Op != syntax.OpEq {
		return 0, false, false, false
	}
	l, r := bin.L, bin.R
	if !isCallOf(l, syntax.FnPosition) {
		l, r = r, l
	}
	if !isCallOf(l, syntax.FnPosition) {
		return 0, false, false, false
	}
	if isCallOf(r, syntax.FnLast) {
		return 0, true, false, true
	}
	if num, isNum := r.(*syntax.NumberLit); isNum {
		if num.Val < 1 || num.Val != math.Trunc(num.Val) {
			return 0, false, true, true
		}
		return int(num.Val), false, false, true
	}
	return 0, false, false, false
}

func isCallOf(e syntax.Expr, fn syntax.Func) bool {
	call, ok := e.(*syntax.Call)
	return ok && call.Fn == fn && len(call.Args) == 0
}

// ctxFree reports whether the expression's value is independent of the
// evaluation context entirely (node, position and size) — such predicates
// gate the whole step instead of being re-evaluated per candidate. This is
// finer than Relev(N): the §3.1 analysis assigns {'cn'} to every location
// path, including absolute ones.
func ctxFree(e syntax.Expr) bool {
	switch e := e.(type) {
	case *syntax.NumberLit, *syntax.StringLit:
		return true
	case *syntax.Negate:
		return ctxFree(e.E)
	case *syntax.Binary:
		return ctxFree(e.L) && ctxFree(e.R)
	case *syntax.Union:
		for _, p := range e.Paths {
			if !ctxFree(p) {
				return false
			}
		}
		return true
	case *syntax.Call:
		switch e.Fn {
		case syntax.FnPosition, syntax.FnLast, syntax.FnLang:
			return false
		case syntax.FnString, syntax.FnNumber, syntax.FnStringLength,
			syntax.FnNormalizeSpace, syntax.FnLocalName, syntax.FnName:
			// The zero-argument forms read the context node.
			if len(e.Args) == 0 {
				return false
			}
		}
		for _, a := range e.Args {
			if !ctxFree(a) {
				return false
			}
		}
		return true
	case *syntax.Path:
		// Step predicates and filter predicates see step-local contexts, so
		// only the path's own starting point can leak the outer context in.
		if e.Filter != nil {
			return ctxFree(e.Filter)
		}
		return e.Abs
	}
	return false
}

// hasPath reports whether the expression contains a location path.
func hasPath(e syntax.Expr) bool {
	switch e := e.(type) {
	case *syntax.Path, *syntax.Union:
		return true
	case *syntax.Negate:
		return hasPath(e.E)
	case *syntax.Binary:
		return hasPath(e.L) || hasPath(e.R)
	case *syntax.Call:
		for _, a := range e.Args {
			if hasPath(a) {
				return true
			}
		}
	}
	return false
}

// fold evaluates a context- and document-independent scalar subexpression
// at compile time. Functions touching the document (id) or the context
// (lang, the zero-argument string forms, position, last) are excluded, as
// is anything containing a location path.
func fold(e syntax.Expr) (values.Value, bool) {
	switch e := e.(type) {
	case *syntax.NumberLit:
		return values.Number(e.Val), true
	case *syntax.StringLit:
		return values.String(e.Val), true
	case *syntax.Negate:
		if v, ok := fold(e.E); ok {
			return values.Number(-values.ToNumber(v)), true
		}
	case *syntax.Binary:
		l, okL := fold(e.L)
		if !okL {
			return values.Value{}, false
		}
		r, okR := fold(e.R)
		if !okR {
			return values.Value{}, false
		}
		switch {
		case e.Op == syntax.OpOr:
			return values.Boolean(values.ToBool(l) || values.ToBool(r)), true
		case e.Op == syntax.OpAnd:
			return values.Boolean(values.ToBool(l) && values.ToBool(r)), true
		case e.Op.IsRelational():
			return values.Boolean(values.Compare(e.Op, l, r)), true
		default:
			return values.Number(values.Arith(e.Op, values.ToNumber(l), values.ToNumber(r))), true
		}
	case *syntax.Call:
		switch e.Fn {
		case syntax.FnPosition, syntax.FnLast, syntax.FnID, syntax.FnLang:
			return values.Value{}, false
		case syntax.FnString, syntax.FnNumber, syntax.FnStringLength,
			syntax.FnNormalizeSpace, syntax.FnLocalName, syntax.FnName:
			if len(e.Args) == 0 {
				return values.Value{}, false
			}
		}
		args := make([]values.Value, len(e.Args))
		for i, a := range e.Args {
			v, ok := fold(a)
			if !ok {
				return values.Value{}, false
			}
			args[i] = v
		}
		v, err := values.Call(e.Fn, args, values.CallEnv{})
		if err != nil {
			return values.Value{}, false
		}
		return v, true
	}
	return values.Value{}, false
}

// axisHasInverse reports whether backward propagation can run over the
// axis. The id-"axis" is excluded: its inverse is a whole-document string
// scan with subtly different root handling, so id steps stay on the
// forward/generic path.
func axisHasInverse(a axes.Axis) bool { return a != axes.ID }
