// Package plan implements the seventh evaluation engine of this repository:
// a whole-query compiler that lowers a normalized *syntax.Query into a flat,
// register-based instruction program, and a virtual machine that executes
// such programs with preallocated register slots and reusable scratch sets.
//
// The other six engines interpret the parse tree on every evaluation,
// re-dispatching on AST node kinds in the hot path. Following the
// whole-query-compilation argument of Maneth & Nguyen ("XPath Whole Query
// Optimization", PVLDB 2011) and the precomputed per-label structures of
// Arroyuelo et al. ("Fast In-Memory XPath Search over Compressed Text and
// Tree Indexes", ICDE 2010), the compiler performs the analysis the
// interpreters redo per evaluation exactly once per query:
//
//   - location steps are fused axis+node-test opcodes executing
//     set-at-a-time over the document's bitset node sets;
//   - position-independent predicates are compiled, where possible, into
//     satisfaction-set programs — straight-line set algebra computing
//     {n ∈ dom | pred(n)} wholesale via inverse axes (the compile-time form
//     of the paper's Algorithm 8 backward propagation), so step filtering is
//     one bitset intersection instead of a per-candidate loop;
//   - position()=k and position()=last() predicates are specialized into
//     direct candidate-index selection;
//   - context-free scalar subexpressions are constant-folded at compile
//     time, and and/or branches decided by a folded operand are eliminated;
//   - everything else falls back to generic predicate blocks evaluated per
//     candidate, so the engine covers full XPath 1.0, not just a fragment;
//   - inside blocks that can run more than once for the same node, each
//     maximal scalar subexpression with Relev ⊆ {cn} that contains a path,
//     whole predicates included, becomes a memoized block that runs at most
//     once per node per evaluation — the paper's context-value table for
//     Relev = {cn} (§3.1) — so each nesting level adds block entries
//     instead of multiplying them.
//
// A Program is a single flat instruction array; predicate subexpressions are
// code blocks (entry points into the array) invoked by the step and filter
// instructions. Registers are dense indexes into one preallocated value
// slice, assigned single-statically by the compiler.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/axes"
	"repro/internal/syntax"
	"repro/internal/values"
)

// Op is an instruction opcode.
type Op uint8

// The instruction set. Operand conventions: Dst is the result register;
// A, B, C are opcode-specific (register numbers, pool indexes, jump targets
// or operator codes), spelled out per opcode below.
const (
	// OpConst: R[Dst] = Consts[A].
	OpConst Op = iota
	// OpMove: R[Dst] = R[A].
	OpMove
	// OpCtxNode: R[Dst] = {cn}, the frame's context node as a singleton set.
	OpCtxNode
	// OpRootSet: R[Dst] = {root}.
	OpRootSet
	// OpEmptySet: R[Dst] = ∅.
	OpEmptySet
	// OpPosition: R[Dst] = number(cp) of the current frame.
	OpPosition
	// OpLast: R[Dst] = number(cs) of the current frame.
	OpLast
	// OpArith: R[Dst] = number(R[B]) op_A number(R[C]), op_A a syntax.BinOp.
	OpArith
	// OpNegate: R[Dst] = -number(R[A]).
	OpNegate
	// OpCompare: R[Dst] = boolean(R[B] op_A R[C]) with the full sixteen-case
	// comparison semantics of values.Compare.
	OpCompare
	// OpCoerceBool: R[Dst] = boolean(R[A]).
	OpCoerceBool
	// OpCall: R[Dst] = F[[fn_A]](R[B], …, R[B+C-1]).
	OpCall
	// OpJump: pc = A.
	OpJump
	// OpJumpIfTrue: if boolean(R[B]) { pc = A }.
	OpJumpIfTrue
	// OpJumpIfFalse: if !boolean(R[B]) { pc = A }.
	OpJumpIfFalse
	// OpStep: R[Dst] = χ_A(R[C]) ∩ T(Tests[B]) — one fused set-at-a-time
	// location step (axis apply + node test) with no predicates.
	OpStep
	// OpStepInv: R[Dst] = χ_A⁻¹(R[C]) — inverse axis application, the
	// backward-propagation step of satisfaction-set programs.
	OpStepInv
	// OpTestFilter: R[Dst] = R[C] ∩ T(Tests[B]). The compiler only emits
	// this onto freshly produced sets, so the VM may intersect in place.
	OpTestFilter
	// OpTestSet: R[Dst] = T(Tests[B]), the document's cached label set. The
	// register aliases the shared cache; the compiler never emits in-place
	// mutation of it (it is only read, e.g. as an OpStepInv source).
	OpTestSet
	// OpScanCmp: R[Dst] = {n ∈ dom ∪ {root} | strval(n) op_A Consts[B]} —
	// the whole-document comparison scan seeding satisfaction sets for
	// π RelOp s predicates.
	OpScanCmp
	// OpUnionSet: R[Dst] = R[B] ∪ R[C].
	OpUnionSet
	// OpIntersect: R[Dst] = R[B] ∩ R[C] (in place when Dst == B).
	OpIntersect
	// OpComplement: R[Dst] = (dom ∪ {root}) \ R[C].
	OpComplement
	// OpBoolGate: R[Dst] = R[C] if boolean(R[B]) else ∅ — the whole-step
	// gate for context-uniform predicates.
	OpBoolGate
	// OpFilterSet: R[Dst] = {y ∈ R[C] | Blocks[B](y, ∗, ∗)} — generic
	// position-independent predicate filtering over a whole image set.
	OpFilterSet
	// OpFilterList: order R[C] in document order and apply the Preds chain
	// with 1-based positions (the filter-expression predicate semantics);
	// R[Dst] = surviving nodes.
	OpFilterList
	// OpStepSel: for every x ∈ R[C], build the ordered candidate list of
	// χ_A::Tests[B] and apply the Preds chain with per-x positions; R[Dst]
	// is the union of the survivors (the positional step case).
	OpStepSel
	// OpSatHas: R[Dst] = boolean(cn ∈ R[A]) — membership test of the
	// frame's context node in a hoisted satisfaction set; the per-candidate
	// form of a predicate subexpression computed wholesale in the main
	// block.
	OpSatHas
	// OpMemo: R[Dst] = the value of memoized block B at cn, which runs B in
	// the current frame only on the first visit of cn in this evaluation —
	// the per-node context-value table of §3.1 for a scalar subexpression
	// with Relev ⊆ {cn} inside a block that runs repeatedly.
	OpMemo
	// OpReturn: finish the current block with R[A] as its result.
	OpReturn
)

var opNames = [...]string{
	OpConst: "const", OpMove: "move", OpCtxNode: "ctxnode", OpRootSet: "rootset",
	OpEmptySet: "emptyset", OpPosition: "position", OpLast: "last",
	OpArith: "arith", OpNegate: "negate", OpCompare: "compare",
	OpCoerceBool: "coercebool", OpCall: "call", OpJump: "jump",
	OpJumpIfTrue: "jumptrue", OpJumpIfFalse: "jumpfalse", OpStep: "step",
	OpStepInv: "stepinv", OpTestFilter: "testfilter", OpTestSet: "testset",
	OpScanCmp:  "scancmp",
	OpUnionSet: "union", OpIntersect: "intersect", OpComplement: "complement",
	OpBoolGate: "boolgate", OpFilterSet: "filterset", OpFilterList: "filterlist",
	OpStepSel: "stepsel", OpSatHas: "sathas", OpMemo: "memo", OpReturn: "return",
}

// String returns the opcode's mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// PredKind classifies one entry of a step/filter predicate chain.
type PredKind uint8

// Predicate chain entry kinds, ordered by how statically the compiler
// resolved them.
const (
	// PredIndex selects the K-th candidate — the position() = k
	// specialization.
	PredIndex PredKind = iota
	// PredLast selects the last candidate — the position() = last()
	// specialization.
	PredLast
	// PredSat keeps candidates that are members of the satisfaction set in
	// R[Reg].
	PredSat
	// PredGate empties the candidate list unless boolean(R[Reg]) — a
	// context-uniform predicate hoisted out of the loop.
	PredGate
	// PredBlock evaluates Blocks[Block] per candidate with context
	// 〈z_j, j, m〉 — the generic fallback.
	PredBlock
)

// PredRef is one entry of a predicate chain, applied left to right exactly
// as XPath applies step predicates.
type PredRef struct {
	Kind  PredKind
	K     int // PredIndex: the 1-based candidate index
	Reg   int // PredSat / PredGate: the register holding the set / gate value
	Block int // PredBlock: the block index
}

func (p PredRef) String() string {
	switch p.Kind {
	case PredIndex:
		return fmt.Sprintf("[#%d]", p.K)
	case PredLast:
		return "[#last]"
	case PredSat:
		return fmt.Sprintf("[sat r%d]", p.Reg)
	case PredGate:
		return fmt.Sprintf("[gate r%d]", p.Reg)
	default:
		return fmt.Sprintf("[block b%d]", p.Block)
	}
}

// Instr is one instruction. The operand fields are interpreted per opcode
// (see the Op constants); Preds is the predicate chain of OpStepSel and
// OpFilterList.
type Instr struct {
	Op      Op
	Dst     int
	A, B, C int
	Preds   []PredRef
}

// Program is one compiled query: a flat instruction array with block entry
// points, plus the constant and node-test pools. Programs are immutable
// after Compile and safe for concurrent execution by any number of VMs.
type Program struct {
	// Source is the query text the program was compiled from.
	Source string
	// Code is the flat instruction array.
	Code []Instr
	// Blocks holds entry pcs into Code; block 0 is the main program, the
	// rest are predicate/filter blocks invoked by step instructions.
	Blocks []int
	// Consts is the constant pool (folded scalars and literals).
	Consts []values.Value
	// Tests is the node-test pool referenced by step instructions.
	Tests []syntax.NodeTest
	// NumRegs is the size of the register file.
	NumRegs int
	// MemoSlot[b] is block b's memo slot, or -1 when b is not memoized. A
	// memoized block computes a scalar with Relev ⊆ {cn} and runs at most
	// once per node per evaluation, whether OpMemo or a predicate filter
	// enters it.
	MemoSlot []int
	// NumMemo is the number of memoized blocks.
	NumMemo int
}

// blockEnd returns the pc one past block b's OpReturn.
func (p *Program) blockEnd(b int) int {
	if b+1 < len(p.Blocks) {
		return p.Blocks[b+1]
	}
	return len(p.Code)
}

// Disasm renders the program as a human-readable instruction listing — the
// compiled-engine counterpart of Query.Explain, shown by the CLI's -explain
// flag. The exact format is not part of the API contract.
//
//xpathlint:deterministic
func (p *Program) Disasm() string {
	return p.DisasmAnnotated(nil)
}

// DisasmAnnotated renders the instruction listing with a per-instruction
// annotation appended to each line: annot is called with the block number
// and the global program counter of the instruction, and whatever non-empty
// string it returns is printed after the mnemonic. A nil annot (or an annot
// returning "") yields the plain Disasm listing. EXPLAIN ANALYZE uses it to
// splice observed call counts, cardinalities and timings into the listing.
//
//xpathlint:deterministic
func (p *Program) DisasmAnnotated(annot func(block, pc int) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d instruction(s), %d block(s), %d register(s), %d const(s)\n",
		len(p.Code), len(p.Blocks), p.NumRegs, len(p.Consts))
	block := 0
	for pc, in := range p.Code {
		for block < len(p.Blocks) && p.Blocks[block] == pc {
			switch {
			case block == 0:
				fmt.Fprintf(&b, "b%d:  (main)\n", block)
			case p.MemoSlot[block] >= 0:
				fmt.Fprintf(&b, "b%d:  (memo m%d)\n", block, p.MemoSlot[block])
			default:
				fmt.Fprintf(&b, "b%d:\n", block)
			}
			block++
		}
		fmt.Fprintf(&b, "  %3d  %s", pc, p.disasmInstr(in))
		if annot != nil {
			if a := annot(block-1, pc); a != "" {
				b.WriteString(a)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (p *Program) disasmInstr(in Instr) string {
	reg := func(r int) string { return fmt.Sprintf("r%d", r) }
	cst := func(i int) string { return fmt.Sprintf("#%d (%s)", i, values.Render(p.Consts[i])) }
	tst := func(i int) string { return p.Tests[i].String() }
	axis := func(a int) string { return axes.Axis(a).String() }
	preds := func(ps []PredRef) string {
		parts := make([]string, len(ps))
		for i, pr := range ps {
			parts[i] = pr.String()
		}
		return strings.Join(parts, "")
	}
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("const      %s = %s", reg(in.Dst), cst(in.A))
	case OpMove:
		return fmt.Sprintf("move       %s = %s", reg(in.Dst), reg(in.A))
	case OpCtxNode:
		return fmt.Sprintf("ctxnode    %s = {cn}", reg(in.Dst))
	case OpRootSet:
		return fmt.Sprintf("rootset    %s = {root}", reg(in.Dst))
	case OpEmptySet:
		return fmt.Sprintf("emptyset   %s = {}", reg(in.Dst))
	case OpPosition:
		return fmt.Sprintf("position   %s = cp", reg(in.Dst))
	case OpLast:
		return fmt.Sprintf("last       %s = cs", reg(in.Dst))
	case OpArith:
		return fmt.Sprintf("arith      %s = %s %s %s", reg(in.Dst), reg(in.B), syntax.BinOp(in.A), reg(in.C))
	case OpNegate:
		return fmt.Sprintf("negate     %s = -%s", reg(in.Dst), reg(in.A))
	case OpCompare:
		return fmt.Sprintf("compare    %s = %s %s %s", reg(in.Dst), reg(in.B), syntax.BinOp(in.A), reg(in.C))
	case OpCoerceBool:
		return fmt.Sprintf("coercebool %s = boolean(%s)", reg(in.Dst), reg(in.A))
	case OpCall:
		args := make([]string, in.C)
		for i := range args {
			args[i] = reg(in.B + i)
		}
		return fmt.Sprintf("call       %s = %s(%s)", reg(in.Dst), syntax.Func(in.A), strings.Join(args, ", "))
	case OpJump:
		return fmt.Sprintf("jump       -> %d", in.A)
	case OpJumpIfTrue:
		return fmt.Sprintf("jumptrue   %s -> %d", reg(in.B), in.A)
	case OpJumpIfFalse:
		return fmt.Sprintf("jumpfalse  %s -> %d", reg(in.B), in.A)
	case OpStep:
		return fmt.Sprintf("step       %s = %s::%s(%s)", reg(in.Dst), axis(in.A), tst(in.B), reg(in.C))
	case OpStepInv:
		return fmt.Sprintf("stepinv    %s = %s⁻¹(%s)", reg(in.Dst), axis(in.A), reg(in.C))
	case OpTestFilter:
		return fmt.Sprintf("testfilter %s = %s ∩ T(%s)", reg(in.Dst), reg(in.C), tst(in.B))
	case OpTestSet:
		return fmt.Sprintf("testset    %s = T(%s)", reg(in.Dst), tst(in.B))
	case OpScanCmp:
		return fmt.Sprintf("scancmp    %s = {n | strval(n) %s %s}", reg(in.Dst), syntax.BinOp(in.A), cst(in.B))
	case OpUnionSet:
		return fmt.Sprintf("union      %s = %s ∪ %s", reg(in.Dst), reg(in.B), reg(in.C))
	case OpIntersect:
		return fmt.Sprintf("intersect  %s = %s ∩ %s", reg(in.Dst), reg(in.B), reg(in.C))
	case OpComplement:
		return fmt.Sprintf("complement %s = dom \\ %s", reg(in.Dst), reg(in.C))
	case OpBoolGate:
		return fmt.Sprintf("boolgate   %s = %s if %s else {}", reg(in.Dst), reg(in.C), reg(in.B))
	case OpFilterSet:
		return fmt.Sprintf("filterset  %s = %s where b%d", reg(in.Dst), reg(in.C), in.B)
	case OpFilterList:
		return fmt.Sprintf("filterlist %s = %s%s", reg(in.Dst), reg(in.C), preds(in.Preds))
	case OpStepSel:
		return fmt.Sprintf("stepsel    %s = %s::%s(%s)%s", reg(in.Dst), axis(in.A), tst(in.B), reg(in.C), preds(in.Preds))
	case OpSatHas:
		return fmt.Sprintf("sathas     %s = cn ∈ %s", reg(in.Dst), reg(in.A))
	case OpMemo:
		return fmt.Sprintf("memo       %s = m%d[cn] ?: b%d", reg(in.Dst), p.MemoSlot[in.B], in.B)
	case OpReturn:
		return fmt.Sprintf("return     %s", reg(in.A))
	}
	return fmt.Sprintf("?%d", int(in.Op))
}
