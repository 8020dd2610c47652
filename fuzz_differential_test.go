package xpath

// Randomized differential testing: all seven engines evaluate generated
// (query, document) pairs and any disagreement fails the suite. The
// generator (internal/fuzzgen) is seeded, so a failure reproduces from the
// printed pair seed alone. This is the hardening harness for the
// concurrency work: the batch and parallel evaluators reuse the engines
// verified here, and the parallel split (internal/store.SplitQuery) is
// additionally cross-checked against serial evaluation on every pair.

import (
	"math/rand"
	"testing"

	"repro/internal/fuzzgen"
	"repro/internal/plan"
	"repro/internal/store"
	"repro/internal/workload"
)

// fuzzPairs returns how many generated pairs to run: ≥ 500 in full mode
// (the acceptance bar of the differential harness), a fast subset under
// -short for CI's race job.
func fuzzPairs() int {
	if testing.Short() {
		return 120
	}
	return 600
}

// fuzzSeed pins the suite: CI runs a fixed, reproducible workload.
const fuzzSeed = 20260729

// TestDifferentialFuzz runs the randomized cross-engine agreement suite.
// Documents are regenerated every few pairs so both query and document
// shapes vary; each pair is checked from the document root and from a
// random id-bearing context node.
func TestDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(fuzzSeed))
	pairs := fuzzPairs()
	var doc *Document
	var ids []string
	for i := 0; i < pairs; i++ {
		if i%10 == 0 {
			// Sizes follow the E13 harness: the full engine set includes the
			// strict bottom-up E↑ and the exponential naive strategy, whose
			// superpolynomial growth dominates past ~60 nodes.
			size := 20 + rng.Intn(40)
			tree := fuzzgen.Document(rng, size)
			doc = WrapTree(tree)
			ids = ids[:0]
			for _, n := range tree.Nodes() {
				if id, ok := n.Attr("id"); ok {
					ids = append(ids, id)
				}
			}
		}
		src := fuzzgen.Query(rng, fuzzgen.Config{})
		agree(t, doc, src, "")
		if len(ids) > 0 && rng.Intn(3) == 0 {
			agree(t, doc, src, ids[rng.Intn(len(ids))])
		}
		if t.Failed() {
			t.Fatalf("disagreement at pair %d (suite seed %d)", i, fuzzSeed)
		}
	}
}

// TestDifferentialFuzzAxisChains holds the fused set-at-a-time axis+test
// kernels (corexpath, compiled, and the core engines' step images) to the
// unfused candidate-list engines (topdown, bottomup, naive) on long
// generated chains that mix all twelve axes with name and node-test
// combinations — the workload shape where the flat-topology kernels carry
// the whole evaluation.
func TestDifferentialFuzzAxisChains(t *testing.T) {
	rng := rand.New(rand.NewSource(fuzzSeed + 3))
	pairs := fuzzPairs() / 2
	var doc *Document
	var ids []string
	for i := 0; i < pairs; i++ {
		if i%10 == 0 {
			tree := fuzzgen.Document(rng, 20+rng.Intn(40))
			doc = WrapTree(tree)
			ids = ids[:0]
			for _, n := range tree.Nodes() {
				if id, ok := n.Attr("id"); ok {
					ids = append(ids, id)
				}
			}
		}
		src := fuzzgen.AxisChainQuery(rng)
		agree(t, doc, src, "")
		if len(ids) > 0 && rng.Intn(3) == 0 {
			agree(t, doc, src, ids[rng.Intn(len(ids))])
		}
		if t.Failed() {
			t.Fatalf("disagreement at axis-chain pair %d (suite seed %d): %s", i, fuzzSeed+3, src)
		}
	}
}

// TestDifferentialFuzzNestedAggregates holds the compiled VM's per-node memo
// tables to OPTMINCONTEXT, MINCONTEXT and topdown on predicates that nest
// count, sum, string-length and boolean up to four levels deep, positional
// and position-independent, from the root and from id contexts. bottomup
// and naive sit out: their cubic tables and exponential recursion cannot
// afford depth 4.
func TestDifferentialFuzzNestedAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(fuzzSeed + 5))
	engines := []Engine{EngineOptMinContext, EngineMinContext, EngineCompiled}
	var doc *Document
	var ids []string
	memo, nonEmpty := 0, 0
	pairs := fuzzPairs()
	for i := 0; i < pairs; i++ {
		if i%10 == 0 {
			tree := fuzzgen.Document(rng, 20+rng.Intn(40))
			doc = WrapTree(tree)
			ids = ids[:0]
			for _, n := range tree.Nodes() {
				if id, ok := n.Attr("id"); ok {
					ids = append(ids, id)
				}
			}
		}
		src := fuzzgen.NestedAggregateQuery(rng, 1+rng.Intn(4))
		agreeWith(t, doc, src, "", engines)
		if len(ids) > 0 {
			agreeWith(t, doc, src, ids[rng.Intn(len(ids))], engines)
		}
		if t.Failed() {
			t.Fatalf("disagreement at nested-aggregate pair %d (suite seed %d): %s", i, fuzzSeed+5, src)
		}
		q := MustCompile(src)
		if p, err := plan.ProgramOf(q.q); err == nil && p.NumMemo > 0 {
			memo++
		}
		if res, err := q.Evaluate(doc); err == nil && len(res.Nodes()) > 0 {
			nonEmpty++
		}
	}
	// Guard the diet against a silent collapse of the generator.
	t.Logf("%d pairs: %d compile to memo programs, %d select nodes", pairs, memo, nonEmpty)
	if memo < pairs/2 || nonEmpty < pairs/4 {
		t.Errorf("%d pairs: only %d memo programs and %d non-empty answers", pairs, memo, nonEmpty)
	}
}

// TestDifferentialFuzzParallel cross-checks the parallel evaluator against
// serial evaluation on generated pairs — the split/merge logic, the
// fallback gates and the document-order merge all ride the same check.
func TestDifferentialFuzzParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(fuzzSeed + 1))
	pairs := fuzzPairs() / 2
	var doc *Document
	for i := 0; i < pairs; i++ {
		if i%10 == 0 {
			doc = WrapTree(fuzzgen.Document(rng, 40+rng.Intn(150)))
		}
		src := fuzzgen.Query(rng, fuzzgen.Config{})
		q, err := Compile(src)
		if err != nil {
			t.Fatalf("pair %d: compile %q: %v", i, src, err)
		}
		ref, err := q.Evaluate(doc)
		if err != nil {
			t.Fatalf("pair %d: serial %q: %v", i, src, err)
		}
		workers := 2 + rng.Intn(4)
		got, err := q.EvaluateParallel(doc, ParallelOptions{Workers: workers})
		if err != nil {
			t.Fatalf("pair %d: parallel %q: %v", i, src, err)
		}
		if !sameResult(ref, got) {
			t.Fatalf("pair %d: parallel(%d) disagrees on %q:\n  serial:   %s\n  parallel: %s",
				i, workers, src, ref, got)
		}
	}
}

// TestDifferentialFuzzBatch runs generated queries across a store corpus
// with several worker counts and requires byte-identical batches.
func TestDifferentialFuzzBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(fuzzSeed + 2))
	st := NewStore()
	docs := 24
	for i := 0; i < docs; i++ {
		if err := st.Add(string(rune('a'+i%26))+"-doc", WrapTree(fuzzgen.Document(rng, 30+rng.Intn(90)))); err != nil {
			t.Fatal(err)
		}
	}
	queries := fuzzPairs() / 10
	for i := 0; i < queries; i++ {
		src := fuzzgen.Query(rng, fuzzgen.Config{})
		ref, err := st.Query(src, BatchOptions{Workers: 1})
		if err != nil {
			t.Fatalf("query %d: %q: %v", i, src, err)
		}
		for _, workers := range []int{3, 8} {
			got, err := st.Query(src, BatchOptions{Workers: workers, Engine: EngineCompiled})
			if err != nil {
				t.Fatalf("query %d: %q workers=%d: %v", i, src, workers, err)
			}
			if len(got.Docs) != len(ref.Docs) {
				t.Fatalf("query %d: batch sizes differ", i)
			}
			for j := range got.Docs {
				if got.Docs[j].ID != ref.Docs[j].ID {
					t.Fatalf("query %d: order differs at %d", i, j)
				}
				if (got.Docs[j].Err == nil) != (ref.Docs[j].Err == nil) {
					t.Fatalf("query %d doc %s: error mismatch: %v vs %v",
						i, ref.Docs[j].ID, got.Docs[j].Err, ref.Docs[j].Err)
				}
				if got.Docs[j].Err == nil && !sameResult(ref.Docs[j].Result, got.Docs[j].Result) {
					t.Fatalf("query %d doc %s on %q:\n  serial: %s\n  batch:  %s",
						i, ref.Docs[j].ID, src, ref.Docs[j].Result, got.Docs[j].Result)
				}
			}
		}
	}
}

// TestSplitQueryAgreesOnWorkloads pins the split decomposition against the
// curated workload queries as well (the fuzz generator's distribution is
// not guaranteed to cover every hand-written shape).
func TestSplitQueryAgreesOnWorkloads(t *testing.T) {
	doc := WrapTree(workload.Scaled(600))
	srcs := append(append(append([]string{},
		workload.CoreQueries()...), workload.WadlerQueries()...), workload.FullXPathQueries()...)
	srcs = append(srcs, workload.PositionHeavy(), workload.MixedQuery())
	for _, src := range srcs {
		q := MustCompile(src)
		ref, err := q.Evaluate(doc)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		got, err := q.EvaluateParallel(doc, ParallelOptions{Workers: 4})
		if err != nil {
			t.Fatalf("%q parallel: %v", src, err)
		}
		if !sameResult(ref, got) {
			t.Errorf("%q: parallel %s vs serial %s", src, got, ref)
		}
	}
	// The split itself must refuse non-partitionable roots.
	if _, _, ok := store.SplitQuery(MustCompile(`count(//c)`).q); ok {
		t.Error("SplitQuery accepted a scalar root")
	}
}
