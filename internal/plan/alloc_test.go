package plan

import (
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/syntax"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// TestWarmEvaluateAllocs pins the steady-state allocation count of compiled
// plan evaluation, so alloc regressions in the VM or the axis kernels fail
// CI rather than silently eroding the zero-alloc design:
//
//   - a node-set query costs exactly 2 allocations per warm evaluation —
//     the result-detach Clone (one Set header + one word slice) that hands
//     the caller a set independent of the machine's reusable arena;
//   - a scalar query costs exactly 0: registers, arena sets, candidate
//     buffers, axis-kernel scratch and memo tables are all pooled with the
//     machine.
//
// If an intentional change moves these constants, update them here together
// with the ownership rules documented in the README.
func TestWarmEvaluateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; exact pins run in the non-race job")
	}
	scaled := workload.Scaled(400)
	e := New()
	cases := []struct {
		src  string
		doc  *xmltree.Document
		want float64
	}{
		{"/descendant::b[child::d]/child::c", scaled, 2},                                      // fused steps, sat-set predicate
		{"//b[.//d]//c", scaled, 2},                                                           // descendant-heavy chain
		{"/descendant::*/descendant::*[position() > last()*0.5 or self::* = 100]", scaled, 2}, // positional loop
		{"count(//b)", scaled, 0},                                                             // scalar result: nothing to detach
		{"sum(//b/d)", scaled, 0},                                                             // scalar over a two-step path
		{"boolean(//e)", scaled, 0},                                                           // satisfaction-set program
		{workload.NestedCountQuery(2, false), workload.Pairs(32), 2},                          // memoized predicates
		{workload.NestedCountQuery(2, true), workload.Pairs(32), 2},                           // OpMemo under position()
	}
	for _, c := range cases {
		doc := c.doc
		ctx := engine.RootContext(doc)
		q, err := syntax.Compile(c.src)
		if err != nil {
			t.Fatalf("compile %q: %v", c.src, err)
		}
		// Warm the plan cache, the machine pool and the arena.
		for i := 0; i < 5; i++ {
			if _, _, err := e.Evaluate(q, doc, ctx); err != nil {
				t.Fatalf("evaluate %q: %v", c.src, err)
			}
		}
		got := testing.AllocsPerRun(50, func() {
			if _, _, err := e.Evaluate(q, doc, ctx); err != nil {
				t.Fatalf("evaluate %q: %v", c.src, err)
			}
		})
		if got != c.want {
			t.Errorf("%q: %v allocs/op on warm evaluation, want %v", c.src, got, c.want)
		}

		// The Budget contract mirrors the Tracer contract: a live Budget —
		// fuel, deadline and cardinality cap all armed — must hold the same
		// pins, because Step/Err/Card are allocation-free.
		bctx := ctx
		bctx.Budget = budget.New(budget.Limits{
			Steps:         1 << 40,
			Deadline:      time.Hour,
			MaxResultCard: 1 << 30,
		})
		for i := 0; i < 5; i++ {
			if _, _, err := e.Evaluate(q, doc, bctx); err != nil {
				t.Fatalf("budgeted evaluate %q: %v", c.src, err)
			}
		}
		got = testing.AllocsPerRun(50, func() {
			if _, _, err := e.Evaluate(q, doc, bctx); err != nil {
				t.Fatalf("budgeted evaluate %q: %v", c.src, err)
			}
		})
		if got != c.want {
			t.Errorf("%q: %v allocs/op with live Budget, want the pinned %v", c.src, got, c.want)
		}
	}
}

// TestTracedEvaluateAllocs guards both sides of the observability contract:
// a context whose Tracer field is explicitly nil costs exactly the pinned
// counts of TestWarmEvaluateAllocs (the nil check is the whole price of the
// instrumentation), and an attached recorder actually receives per-opcode
// spans whose timings are coherent.
func TestTracedEvaluateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; exact pins run in the non-race job")
	}
	doc := workload.Scaled(400)
	e := New()
	ctx := engine.RootContext(doc)
	ctx.Tracer = nil // explicit: the zero-cost default
	q, err := syntax.Compile("/descendant::b[child::d]/child::c")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := e.Evaluate(q, doc, ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(50, func() {
		if _, _, err := e.Evaluate(q, doc, ctx); err != nil {
			t.Fatal(err)
		}
	}); got != 2 {
		t.Errorf("nil-tracer evaluation: %v allocs/op, want the pinned 2", got)
	}

	rec := trace.NewRecorder()
	traced := ctx
	traced.Tracer = rec
	if _, _, err := e.Evaluate(q, doc, traced); err != nil {
		t.Fatal(err)
	}
	rows := rec.Rows()
	if len(rows) == 0 {
		t.Fatal("traced evaluation emitted no spans")
	}
	var opcodeRows, totalNs int64
	for _, r := range rows {
		if r.Kind != trace.KindOpcode {
			t.Errorf("VM emitted kind %v, want only opcode spans", r.Kind)
		}
		opcodeRows++
		totalNs += r.Ns
		if r.Calls <= 0 {
			t.Errorf("row %+v: non-positive call count", r)
		}
	}
	if opcodeRows < 4 {
		t.Errorf("only %d distinct instructions traced for a 7-instruction plan", opcodeRows)
	}
	if totalNs <= 0 {
		t.Error("traced spans carry no time")
	}
}
