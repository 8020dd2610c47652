package store

import (
	"testing"

	"repro/internal/core"
	"repro/internal/corexpath"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/topdown"
	"repro/internal/trace"
	"repro/internal/values"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// parallelQueries mixes partitionable shapes (absolute multi-step paths,
// positional predicates on the final step) with shapes that must fall back
// (scalars, filter heads, unions, single steps, global subpaths in the
// final step's predicate).
var parallelQueries = []struct {
	src       string
	splitsOK  bool
	splitNote string
}{
	{`//c`, true, "two steps after normalization"},
	{`//b[c = 100]/child::d`, true, "predicate rides in the head"},
	{`/descendant::*/child::c[position() = last()]`, true, "positional predicate is per-context"},
	{`//b/descendant-or-self::*[. = 100]`, true, "value predicate on the final step"},
	{`//b/child::*[position() mod 2 = 1]`, true, "arithmetic position predicate"},
	{`/child::a/child::b/child::c`, true, "plain child chain"},
	{`count(//c)`, false, "scalar root"},
	{`(//c)[2]`, false, "filter head: positional over the whole set"},
	{`//c | //d`, false, "union root"},
	{`/child::a`, false, "single step"},
	{`//b/child::d[//c = 100]`, false, "global subpath in final-step predicate"},
	{`//b/child::d[count(id("10")/child::b) > 0]`, false, "filter-headed subpath in predicate"},
}

func TestSplitQuery(t *testing.T) {
	for _, tc := range parallelQueries {
		q := mustQuery(t, tc.src)
		head, tail, ok := SplitQuery(q)
		if ok != tc.splitsOK {
			t.Errorf("SplitQuery(%q) ok=%v, want %v (%s)", tc.src, ok, tc.splitsOK, tc.splitNote)
			continue
		}
		if ok && (head == nil || tail == nil) {
			t.Errorf("SplitQuery(%q): nil part", tc.src)
		}
		// Splitting must not disturb the original query's analyzed tree.
		if q.Root.ID() != 0 || q.Nodes[0] != q.Root {
			t.Errorf("SplitQuery(%q) mutated the original query", tc.src)
		}
	}
}

// TestEvaluateParallelMatchesSerial: for every query, engine and worker
// count, the parallel evaluator returns exactly the serial result.
func TestEvaluateParallelMatchesSerial(t *testing.T) {
	docs := []*xmltree.Document{
		workload.Figure2(),
		workload.Scaled(800),
		workload.Nested(400),
	}
	engines := []engine.Engine{core.NewOptMinContext(), topdown.New(), plan.New()}
	for _, doc := range docs {
		for _, eng := range engines {
			for _, tc := range parallelQueries {
				q := mustQuery(t, tc.src)
				want, _, err := eng.Evaluate(q, doc, engine.RootContext(doc))
				if err != nil {
					t.Fatalf("%s serial on %s: %v", eng.Name(), tc.src, err)
				}
				for _, workers := range []int{1, 2, 3, 8} {
					got, _, _, err := EvaluateParallel(eng, q, doc, engine.RootContext(doc), workers)
					if err != nil {
						t.Fatalf("%s parallel(%d) on %s: %v", eng.Name(), workers, tc.src, err)
					}
					if values.Render(got) != values.Render(want) {
						t.Errorf("%s workers=%d on %q: %s vs serial %s",
							eng.Name(), workers, tc.src, values.Render(got), values.Render(want))
					}
				}
			}
		}
	}
}

// TestEvaluateParallelTakesParallelPath: on a large document, a
// partitionable query actually fans out (guards against the gate silently
// sending everything down the serial path).
func TestEvaluateParallelTakesParallelPath(t *testing.T) {
	doc := workload.Scaled(2000)
	q := mustQuery(t, `//b[d = 100]/child::c`)
	eng := plan.New()
	_, _, parallel, err := EvaluateParallel(eng, q, doc, engine.RootContext(doc), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !parallel {
		t.Error("large document, partitionable query: want the parallel path")
	}
	// Tiny documents must take the serial gate.
	small := workload.Figure2()
	_, _, parallel, err = EvaluateParallel(eng, q, small, engine.RootContext(small), 4)
	if err != nil {
		t.Fatal(err)
	}
	if parallel {
		t.Error("tiny document: want the serial fallback")
	}
}

// TestSplitCachedStable: repeated parallel evaluations of one query must
// reuse the same head/tail query objects — each carries its compiled VM
// program, so fresh clones per call would recompile it every time.
func TestSplitCachedStable(t *testing.T) {
	q := mustQuery(t, `//b[d = 100]/child::c`)
	h1, t1, ok1 := splitCached(q)
	h2, t2, ok2 := splitCached(q)
	if !ok1 || !ok2 {
		t.Fatal("split refused a partitionable query")
	}
	if h1 != h2 || t1 != t2 {
		t.Error("splitCached returned fresh query objects on a repeat call")
	}
}

// TestSerialFallbackPropagatesTracer pins the shared-tracer contract on the
// low-context serial fallback: when a partitionable query's context set is
// below the fan-out threshold, the tail steps are evaluated on the calling
// goroutine — and their spans must still reach ctx.Tracer, exactly as they
// would on the parallel path. (The first version of the fallback built the
// per-context engine.Context without the tracer, so per-step spans silently
// vanished precisely when the fallback triggered.)
func TestSerialFallbackPropagatesTracer(t *testing.T) {
	doc := workload.Figure2() // two <b> sections: far below minParallelContexts*workers
	q := mustQuery(t, `/child::a/child::b/child::c`)
	eng := corexpath.New()
	rec := trace.NewRecorder()
	ctx := engine.RootContext(doc)
	ctx.Tracer = rec
	_, _, parallel, err := EvaluateParallel(eng, q, doc, ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if parallel {
		t.Fatal("tiny document: want the below-threshold serial fallback")
	}
	var tailSteps int64
	for _, row := range rec.Rows() {
		if row.Kind == trace.KindStep && row.Name == `child::c` {
			tailSteps += row.Calls
		}
	}
	// The head yields two <b> context nodes, so the tail step must have
	// been traced twice — once per context.
	if tailSteps != 2 {
		t.Errorf("recorder saw %d tail-step spans, want 2 (tracer lost on the serial fallback)", tailSteps)
	}
}

// TestEvaluateParallelRelativeContext: partitioning respects a non-root
// context node... by falling back (relative paths are not absolute) while
// still returning the correct result.
func TestEvaluateParallelRelativeContext(t *testing.T) {
	doc := workload.Figure2()
	q := mustQuery(t, `child::c`)
	eng := core.NewOptMinContext()
	cn := doc.ByID("11")
	if cn == nil {
		t.Fatal("no node 11")
	}
	ctx := engine.Context{Node: cn, Pos: 1, Size: 1}
	want, _, err := eng.Evaluate(q, doc, ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, _, parallel, err := EvaluateParallel(eng, q, doc, ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if parallel {
		t.Error("relative single-step path: want serial fallback")
	}
	if values.Render(got) != values.Render(want) {
		t.Errorf("%s vs %s", values.Render(got), values.Render(want))
	}
}
