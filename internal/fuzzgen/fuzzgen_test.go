package fuzzgen

import (
	"math/rand"
	"testing"

	axespkg "repro/internal/axes"
	"repro/internal/syntax"
)

// TestQueriesAlwaysCompile: the generator must emit only grammar the parser
// accepts — a compile failure in the differential suite would otherwise be
// ambiguous between generator and parser bugs.
func TestQueriesAlwaysCompile(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 300
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		src := Query(rng, Config{})
		if _, err := syntax.Compile(src); err != nil {
			t.Fatalf("generated query %d does not compile: %q: %v", i, src, err)
		}
	}
}

// TestDeterministic: the same seed yields the same query and document.
func TestDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		q1, d1 := Pair(seed, Config{}, 60)
		q2, d2 := Pair(seed, Config{}, 60)
		if q1 != q2 {
			t.Fatalf("seed %d: queries differ:\n%s\n%s", seed, q1, q2)
		}
		if d1.XMLString() != d2.XMLString() {
			t.Fatalf("seed %d: documents differ", seed)
		}
	}
}

// TestDocumentShape: generated documents hit the requested size and carry
// resolvable ids.
func TestDocumentShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{10, 60, 300} {
		doc := Document(rng, n)
		if doc.Size() < n-1 || doc.Size() > n+8 {
			t.Errorf("size %d: got %d", n, doc.Size())
		}
		if doc.ByID("0") == nil {
			t.Errorf("size %d: root id missing", n)
		}
	}
}

// TestQueryVariety: over many seeds the generator exercises scalars,
// unions, filter heads and predicates — guard against a silent collapse of
// a generation branch.
func TestQueryVariety(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var scalars, unions, preds, heads int
	for i := 0; i < 500; i++ {
		src := Query(rng, Config{})
		q, err := syntax.Compile(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		switch q.Root.(type) {
		case *syntax.Path:
			if q.Root.(*syntax.Path).Filter != nil {
				heads++
			}
		case *syntax.Union:
			unions++
		default:
			scalars++
		}
		for _, e := range q.Nodes {
			if s, ok := e.(*syntax.Step); ok && len(s.Preds) > 0 {
				preds++
				break
			}
		}
	}
	if scalars == 0 || unions == 0 || preds == 0 || heads == 0 {
		t.Errorf("variety collapsed: scalars=%d unions=%d preds=%d filter-heads=%d",
			scalars, unions, preds, heads)
	}
}

// TestAxisChainQueriesCompileAndCoverAxes: every generated axis chain must
// compile, and across a modest sample all twelve axes (the eleven
// structural ones as steps, the id-axis via the syntax tree's id()
// rewriting) must appear — the coverage guarantee the fused-kernel
// differential suite relies on.
func TestAxisChainQueriesCompileAndCoverAxes(t *testing.T) {
	n := 600
	if testing.Short() {
		n = 200
	}
	rng := rand.New(rand.NewSource(9))
	seen := make(map[axespkg.Axis]int)
	for i := 0; i < n; i++ {
		src := AxisChainQuery(rng)
		q, err := syntax.Compile(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		for _, e := range q.Nodes {
			if s, ok := e.(*syntax.Step); ok {
				seen[s.Axis]++
			}
		}
	}
	for _, a := range axespkg.All() {
		if seen[a] == 0 {
			t.Errorf("axis %v never generated across %d chains", a, n)
		}
	}
}

// TestNestedAggregateQueries: generated nested-aggregate queries compile,
// carry one predicate-bearing step per level, and come in both positional
// and position-independent variants.
func TestNestedAggregateQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var positional, plain int
	for i := 0; i < 400; i++ {
		depth := 1 + i%4
		src := NestedAggregateQuery(rng, depth)
		q, err := syntax.Compile(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		withPreds, needsPos := 0, false
		for _, e := range q.Nodes {
			if s, ok := e.(*syntax.Step); ok && len(s.Preds) > 0 {
				withPreds++
				for _, p := range s.Preds {
					needsPos = needsPos || q.RelevOf(p).NeedsPosition()
				}
			}
		}
		if withPreds < depth {
			t.Fatalf("%q: %d predicate-bearing steps at depth %d", src, withPreds, depth)
		}
		if needsPos {
			positional++
		} else {
			plain++
		}
	}
	if positional == 0 || plain == 0 {
		t.Errorf("%d positional and %d position-independent queries, want both", positional, plain)
	}
}
