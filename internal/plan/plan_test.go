package plan

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/syntax"
	"repro/internal/values"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

func mustCompileQuery(t *testing.T, src string) *syntax.Query {
	t.Helper()
	q, err := syntax.Compile(src)
	if err != nil {
		t.Fatalf("syntax.Compile(%q): %v", src, err)
	}
	return q
}

func mustPlan(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Compile(mustCompileQuery(t, src))
	if err != nil {
		t.Fatalf("plan.Compile(%q): %v", src, err)
	}
	return p
}

// countOps tallies opcode occurrences in a program.
func countOps(p *Program) map[Op]int {
	out := make(map[Op]int)
	for _, in := range p.Code {
		out[in.Op]++
	}
	return out
}

// TestConstantFolding: context-free scalar subtrees compile to one constant
// load, and and/or branches decided by a folded operand disappear.
func TestConstantFolding(t *testing.T) {
	p := mustPlan(t, `2 + 3 * 4`)
	ops := countOps(p)
	if ops[OpConst] != 1 || ops[OpArith] != 0 {
		t.Errorf("2+3*4 not folded:\n%s", p.Disasm())
	}
	if values.ToNumber(p.Consts[0]) != 14 {
		t.Errorf("folded value = %v, want 14", p.Consts[0])
	}

	// Dead-branch elimination: the or is decided by true(), the path under
	// it must not be compiled.
	p = mustPlan(t, `true() or //a`)
	ops = countOps(p)
	if ops[OpStep]+ops[OpStepSel] != 0 || ops[OpJumpIfTrue]+ops[OpJumpIfFalse] != 0 {
		t.Errorf("true() or //a kept the dead branch:\n%s", p.Disasm())
	}

	// A constant-false predicate empties the step statically.
	p = mustPlan(t, `//a[false()]`)
	if ops := countOps(p); ops[OpEmptySet] != 1 {
		t.Errorf("//a[false()] did not compile to an empty set:\n%s", p.Disasm())
	}
	// A constant-true predicate is dropped.
	p = mustPlan(t, `//a[true()]`)
	if ops := countOps(p); ops[OpFilterSet]+ops[OpStepSel]+ops[OpBoolGate] != 0 {
		t.Errorf("//a[true()] kept predicate code:\n%s", p.Disasm())
	}
}

// TestPositionSpecialization: position() = k and [last()] predicates become
// index selections, not per-candidate blocks.
func TestPositionSpecialization(t *testing.T) {
	for _, src := range []string{`//b/c[2]`, `//b/c[last()]`, `//b/c[position() = 2]`} {
		p := mustPlan(t, src)
		ops := countOps(p)
		if ops[OpStepSel] != 1 {
			t.Errorf("%s: want one stepsel:\n%s", src, p.Disasm())
			continue
		}
		if len(p.Blocks) != 1 {
			t.Errorf("%s: index predicate compiled to a block:\n%s", src, p.Disasm())
		}
	}
	// Statically out-of-range indexes are dead.
	p := mustPlan(t, `//b/c[0]`)
	if ops := countOps(p); ops[OpEmptySet] != 1 || ops[OpStepSel] != 0 {
		t.Errorf("//b/c[0] not eliminated:\n%s", p.Disasm())
	}
}

// TestSatisfactionSets: Core XPath existence predicates and π RelOp const
// comparisons compile to whole-domain set programs — no predicate blocks,
// no per-candidate loops.
func TestSatisfactionSets(t *testing.T) {
	cases := []string{
		`/descendant::b[child::d]/child::c`,
		`/descendant::*[following-sibling::d and not(child::node())]`,
		`//b[.//d]//c`,
		`/descendant::*[preceding-sibling::*/preceding::* = 100]`,
		`/descendant::b[child::c = "21 22"]`,
	}
	for _, src := range cases {
		p := mustPlan(t, src)
		if len(p.Blocks) != 1 {
			t.Errorf("%s: expected pure satisfaction-set compilation, got %d blocks:\n%s",
				src, len(p.Blocks), p.Disasm())
		}
		if ops := countOps(p); ops[OpStepInv] == 0 {
			t.Errorf("%s: no backward propagation emitted:\n%s", src, p.Disasm())
		}
	}
}

// TestDisasm: the listing names every opcode it contains and stays stable
// against the block layout.
func TestDisasm(t *testing.T) {
	p := mustPlan(t, `/descendant::b[child::d and position() != last()]/child::c[2]`)
	d := p.Disasm()
	for _, want := range []string{"b0:", "(main)", "step", "return", "stepsel"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
	if len(p.Blocks) < 2 {
		t.Errorf("positional non-index predicate should need a block:\n%s", d)
	}
}

// evalBoth evaluates one query on one document with both the compiled
// engine and OPTMINCONTEXT and requires identical values.
func evalBoth(t *testing.T, compiled *Engine, ref engine.Engine, q *syntax.Query, doc *xmltree.Document, ctx engine.Context) {
	t.Helper()
	got, _, err := compiled.Evaluate(q, doc, ctx)
	if err != nil {
		t.Errorf("compiled %q: %v", q.Source, err)
		return
	}
	want, _, err := ref.Evaluate(q, doc, ctx)
	if err != nil {
		t.Errorf("optmincontext %q: %v", q.Source, err)
		return
	}
	if !values.Equal(got, want) {
		t.Errorf("disagreement on %q (cn=%d):\n  compiled:      %s\n  optmincontext: %s",
			q.Source, ctx.Node.Pre(), values.Render(got), values.Render(want))
	}
}

// workloadQueries is the full named query matrix of internal/workload.
func workloadQueries() []string {
	var out []string
	out = append(out, workload.WadlerQueries()...)
	out = append(out, workload.CoreQueries()...)
	out = append(out, workload.FullXPathQueries()...)
	out = append(out, workload.MixedQuery(), workload.PositionHeavy())
	for i := 1; i <= 6; i++ {
		out = append(out, workload.DoublingQuery(i))
	}
	return out
}

// TestDifferentialWorkloadMatrix runs the compiled engine against
// OPTMINCONTEXT over the full internal/workload query/document matrix,
// from the root and from a mid-document context node.
func TestDifferentialWorkloadMatrix(t *testing.T) {
	docs := map[string]*xmltree.Document{
		"figure2":  workload.Figure2(),
		"doubling": workload.Doubling(),
		"scaled":   workload.Scaled(90),
		"nested":   workload.Nested(70),
		"deep":     workload.DeepChain(50),
		"widefan":  workload.WideFan(64),
		"random":   workload.Random(80, 7),
	}
	compiled, ref := New(), core.NewOptMinContext()
	for name, doc := range docs {
		for _, src := range workloadQueries() {
			q := mustCompileQuery(t, src)
			t.Run(name+"/"+src, func(t *testing.T) {
				evalBoth(t, compiled, ref, q, doc, engine.RootContext(doc))
				if mid := doc.Node(doc.NumNodes() / 2); mid != nil {
					evalBoth(t, compiled, ref, q, doc, engine.Context{Node: mid, Pos: 1, Size: 1})
				}
			})
		}
	}
}

// TestDifferentialRandomQueries sweeps seeded random full-XPath queries
// (the E13 generator) against OPTMINCONTEXT.
func TestDifferentialRandomQueries(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 25
	}
	compiled, ref := New(), core.NewOptMinContext()
	doc := workload.Random(60, 3)
	for seed := int64(1); seed <= int64(n); seed++ {
		src := workload.RandomQuery(5000 + seed)
		q := mustCompileQuery(t, src)
		evalBoth(t, compiled, ref, q, doc, engine.RootContext(doc))
	}
}

// TestEngineInterface: the compiled engine satisfies engine.Engine and
// reports sensible instrumentation.
func TestEngineInterface(t *testing.T) {
	var _ engine.Engine = New()
	e := New()
	if e.Name() != "compiled" {
		t.Errorf("Name() = %q", e.Name())
	}
	doc := workload.Figure2()
	q := mustCompileQuery(t, `/descendant::b/child::c`)
	v, st, err := e.Evaluate(q, doc, engine.RootContext(doc))
	if err != nil {
		t.Fatal(err)
	}
	if v.T != values.KindNodeSet || v.Set.Len() != 3 {
		t.Errorf("result: %s", values.Render(v))
	}
	if st.AxisCalls == 0 {
		t.Error("AxisCalls not counted")
	}
	if st.TableCells != 0 {
		t.Error("compiled engine writes no context-value tables")
	}
}

// TestPlanCacheReuse: one query always shares one compiled program, and
// evaluating it equals evaluating a freshly compiled query of the same text.
func TestPlanCacheReuse(t *testing.T) {
	const src = `/descendant::b[child::d]/child::c`
	q := mustCompileQuery(t, src)
	p1, err := ProgramOf(q)
	if err != nil {
		t.Fatal(err)
	}
	if p2, err := ProgramOf(q); err != nil || p1 != p2 {
		t.Errorf("ProgramOf(q) = %p, %v on the second call; want %p", p2, err, p1)
	}
	doc := workload.Scaled(50)
	warm, _, err := New().Evaluate(q, doc, engine.RootContext(doc))
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := New().Evaluate(mustCompileQuery(t, src), doc, engine.RootContext(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !values.Equal(warm, cold) {
		t.Errorf("shared program diverged from a fresh compile: %s vs %s",
			values.Render(warm), values.Render(cold))
	}
}
