package xpath

// Differential testing (experiment E13): every engine must compute the same
// value for the same query, document and context. The engines share the
// value system but nothing of their evaluation strategy — bottom-up tables,
// vectorized top-down lists, relevant-context tables with position loops,
// inverse-axis propagation, and naive recursion disagree on the slightest
// semantic bug, so agreement over randomized workloads is a strong check.

import (
	"math"
	"testing"

	"repro/internal/naive"
	"repro/internal/workload"
)

// agree asserts that all general engines produce the same result for the
// query at the given context node.
func agree(t *testing.T, doc *Document, src string, cnID string) {
	t.Helper()
	engines := []Engine{EngineOptMinContext, EngineMinContext, EngineBottomUp, EngineNaive, EngineCompiled}
	if q, err := Compile(src); err == nil && q.Fragment() == CoreXPath {
		engines = append(engines, EngineCoreXPath)
	}
	agreeWith(t, doc, src, cnID, engines)
}

// agreeWith asserts that every listed engine produces topdown's result for
// the query at the given context node.
func agreeWith(t *testing.T, doc *Document, src string, cnID string, engines []Engine) {
	t.Helper()
	q, err := Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	opts := Options{Engine: EngineTopDown}
	if cnID != "" {
		opts.ContextNode = doc.ByID(cnID)
		if opts.ContextNode == nil {
			t.Fatalf("no node with id %q", cnID)
		}
	}
	ref, err := q.EvaluateWith(doc, opts)
	if err != nil {
		t.Fatalf("topdown on %q: %v", src, err)
	}
	for _, eng := range engines {
		o := opts
		o.Engine = eng
		got, err := q.EvaluateWith(doc, o)
		if err != nil {
			if _, limited := err.(*naive.ErrWorkLimit); limited && eng == EngineNaive {
				continue // naive blew its exponential budget; fine
			}
			t.Errorf("engine %v on %q: %v", eng, src, err)
			continue
		}
		if !sameResult(ref, got) {
			t.Errorf("disagreement on %q (cn=%s):\n  topdown: %s\n  %v: %s",
				src, cnID, ref, eng, got)
		}
	}
}

func sameResult(a, b *Result) bool {
	if a.IsNodeSet() != b.IsNodeSet() {
		return false
	}
	if a.IsNodeSet() {
		na, nb := a.Nodes(), b.Nodes()
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i].Pre() != nb[i].Pre() {
				return false
			}
		}
		return true
	}
	// Scalars: compare through the string conversion; numbers additionally
	// through NaN-aware equality.
	an, bn := a.Number(), b.Number()
	if math.IsNaN(an) && math.IsNaN(bn) {
		return true
	}
	return a.Text() == b.Text()
}

// TestDifferentialHandPicked runs a curated set of semantically tricky
// queries over the Figure 2 document from several context nodes.
func TestDifferentialHandPicked(t *testing.T) {
	doc, err := ParseDocumentString(figure2XML)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		// Axes and abbreviations.
		`//c`, `//b/c`, `/descendant-or-self::node()/child::b`,
		`//d/ancestor::*`, `//c/following::d`, `//d/preceding::c`,
		`//c/following-sibling::*`, `//d/preceding-sibling::node()`,
		`//b/..`, `//./self::c`,
		// Position and size.
		`//b/c[1]`, `//b/c[last()]`, `//b/*[position() = 2]`,
		`//*[position() mod 2 = 0]`, `//b/*[position() != last()]`,
		`/descendant::*[position() > last()*0.5]`,
		// Values, comparisons, functions.
		`//d = 100`, `//c != //d`, `count(//c) + count(//d)`,
		`sum(//d)`, `string(//c)`, `concat(string(//d), "-", string(//c))`,
		`//b[c = "21 22"]`, `//b[c > 20]`, `//*[. = 100]`,
		`boolean(//e)`, `not(//e)`, `string-length(normalize-space(string(//b)))`,
		`floor(sum(//d) div count(//d))`, `ceiling(1.5)`, `round(-0.4)`,
		`substring(string(//c), 2, 3)`, `translate(string(//c), "12", "21")`,
		`starts-with(string(//c), "21")`, `contains(string(//c), "1 2")`,
		`substring-before("a-b", "-")`, `substring-after("a-b", "-")`,
		// id() and the id-axis rewriting.
		`id("11")`, `id("11 21")/child::c`, `id(string(//b/c))`, `id(//c)`,
		`count(id("10")/descendant::*)`,
		// Unions and filter heads.
		`//c | //d`, `(//c | //d)[position() = last()]`,
		`(//b)[2]/child::*`, `//b[position() = count(//b)]`,
		// Nested predicates and mixed features.
		`//b[./c[position()=2] = "23 24"]`,
		`//*[count(ancestor::*) >= 2]`,
		`//b[descendant::d[. = 100]]/c[last()]`,
		`//*[self::c or self::d][. = 100]`,
		`//*[not(following::*)]`,
		`-(--3)`, `2 + 3 * 4`, `10 mod 3`, `1 div 0`, `-1 div 0`, `0 div 0`,
		`"a" < "b"`, `true() > false()`, `1 = true()`, `"" = false()`,
	}
	for _, src := range queries {
		agree(t, doc, src, "")
		agree(t, doc, src, "11")
		agree(t, doc, src, "23")
	}
}

// TestDifferentialRandom sweeps seeded random queries over seeded random
// documents — the E13 harness.
func TestDifferentialRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized differential sweep")
	}
	for docSeed := int64(1); docSeed <= 4; docSeed++ {
		doc := WrapTree(workload.Random(60, docSeed))
		for qSeed := int64(1); qSeed <= 150; qSeed++ {
			src := workload.RandomQuery(docSeed*1000 + qSeed)
			if _, err := Compile(src); err != nil {
				t.Fatalf("generator produced invalid query %q: %v", src, err)
			}
			agree(t, doc, src, "")
			agree(t, doc, src, "5")
		}
	}
}

// TestDifferentialPaperWorkloads runs the named benchmark query families
// through the agreement check on the scaled documents. Short mode shrinks
// the documents: the naive engine's superpolynomial growth dominates the
// full-size sweep, and the coverage (every query family × every document
// shape × every engine) is size-independent.
func TestDifferentialPaperWorkloads(t *testing.T) {
	scaled, deep, fan := 80, 40, 60
	if testing.Short() {
		scaled, deep, fan = 30, 16, 24
	}
	docs := map[string]*Document{
		"scaled":  WrapTree(workload.Scaled(scaled)),
		"deep":    WrapTree(workload.DeepChain(deep)),
		"widefan": WrapTree(workload.WideFan(fan)),
	}
	var queries []string
	queries = append(queries, workload.WadlerQueries()...)
	queries = append(queries, workload.CoreQueries()...)
	queries = append(queries, workload.FullXPathQueries()...)
	queries = append(queries, workload.MixedQuery(), workload.PositionHeavy())
	for i := 1; i <= 4; i++ {
		queries = append(queries, workload.DoublingQuery(i))
	}
	for name, doc := range docs {
		for _, src := range queries {
			t.Run(name+"/"+src, func(t *testing.T) {
				agree(t, doc, src, "")
			})
		}
	}
}
