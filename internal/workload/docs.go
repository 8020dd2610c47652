// Package workload synthesizes the documents and query families used by the
// test suite and the benchmark harness. Everything is deterministic: random
// generators take explicit seeds, so every experiment in EXPERIMENTS.md is
// reproducible bit-for-bit.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/xmltree"
)

// Figure2 returns the paper's running-example document (Figure 2).
func Figure2() *xmltree.Document {
	return xmltree.MustParseString(`<a id="10"><b id="11"><c id="12">21 22</c><c id="13">23 24</c><d id="14">100</d></b><b id="21"><c id="22">11 12</c><d id="23">13 14</d><d id="24">100</d></b></a>`)
}

// Doubling returns the two-leaf document of the [11] exponential-blowup
// experiment: a root a with two b children. Each parent::a/child::b round
// trip doubles the naive evaluator's intermediate result list.
func Doubling() *xmltree.Document {
	return xmltree.MustParseString(`<a><b/><b/></a>`)
}

// Scaled builds a document shaped like Figure 2 but with size |dom| ≈ n:
// a root <a> holding sections <b>, each containing a run of <c> and <d>
// leaves carrying numeric text ("100" sprinkled in so the paper's
// predicates select nonempty sets). It is the standard sweep document of
// the |D|-scaling experiments.
func Scaled(n int) *xmltree.Document {
	const perSection = 8 // leaves per <b> section
	b := xmltree.NewBuilder()
	b.Start("a", xmltree.Attr{Name: "id", Value: "0"})
	i := 1
	for b.Count() < n {
		b.Start("b", xmltree.Attr{Name: "id", Value: fmt.Sprint(i)})
		i++
		for j := 0; j < perSection && b.Count() < n; j++ {
			label := "c"
			text := fmt.Sprintf("%d %d", 20+j, 21+j)
			if j%3 == 2 {
				label = "d"
				text = "100"
			}
			b.Elem(label, text, xmltree.Attr{Name: "id", Value: fmt.Sprint(i)})
			i++
		}
		if err := b.End(); err != nil {
			panic(err)
		}
	}
	if err := b.End(); err != nil {
		panic(err)
	}
	doc, err := b.Done()
	if err != nil {
		panic(err)
	}
	return doc
}

// Nested builds a recursively nested document of size ≈ n: every <b>
// section holds a few <c>/<d> leaves and one nested <b>, giving depth
// Θ(n) / leaves-per-level. Ancestor/descendant relations are then Θ(n²)
// pairs, which is what separates the paper's space classes (a table
// ⊆ dom × 2^dom genuinely grows quadratically here, while shallow documents
// keep it linear).
func Nested(n int) *xmltree.Document {
	const leaves = 4
	b := xmltree.NewBuilder()
	b.Start("a", xmltree.Attr{Name: "id", Value: "0"})
	id := 1
	depth := 1
	for b.Count()+depth < n {
		b.Start("b", xmltree.Attr{Name: "id", Value: fmt.Sprint(id)})
		id++
		depth++
		for j := 0; j < leaves && b.Count()+depth < n; j++ {
			label, text := "c", fmt.Sprintf("%d %d", 20+j, 21+j)
			if j == leaves-1 {
				label, text = "d", "100"
			}
			b.Elem(label, text, xmltree.Attr{Name: "id", Value: fmt.Sprint(id)})
			id++
		}
	}
	for b.Depth() > 0 {
		if err := b.End(); err != nil {
			panic(err)
		}
	}
	doc, err := b.Done()
	if err != nil {
		panic(err)
	}
	return doc
}

// DeepChain builds a path-shaped document of depth n (one child per node),
// stressing ancestor/descendant axes and recursion depth.
func DeepChain(n int) *xmltree.Document {
	b := xmltree.NewBuilder()
	labels := [...]string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		b.Start(labels[i%len(labels)], xmltree.Attr{Name: "id", Value: fmt.Sprint(i)})
	}
	b.Text("100")
	for i := 0; i < n; i++ {
		if err := b.End(); err != nil {
			panic(err)
		}
	}
	doc, err := b.Done()
	if err != nil {
		panic(err)
	}
	return doc
}

// Pairs builds <a> holding n sections <b><c>1</c><c>2</c></b>: 3n + 1
// elements, the size ladder of the NestedCountQuery families.
func Pairs(n int) *xmltree.Document {
	b := xmltree.NewBuilder()
	b.Start("a")
	for i := 0; i < n; i++ {
		b.Start("b")
		b.Elem("c", "1")
		b.Elem("c", "2")
		if err := b.End(); err != nil {
			panic(err)
		}
	}
	if err := b.End(); err != nil {
		panic(err)
	}
	doc, err := b.Done()
	if err != nil {
		panic(err)
	}
	return doc
}

// WideFan builds a two-level document: a root with n-1 leaf children of
// alternating labels, stressing the sibling axes and position predicates.
func WideFan(n int) *xmltree.Document {
	b := xmltree.NewBuilder()
	b.Start("a", xmltree.Attr{Name: "id", Value: "0"})
	labels := [...]string{"b", "c", "d"}
	for i := 1; i < n; i++ {
		text := fmt.Sprint(i)
		if i%5 == 0 {
			text = "100"
		}
		b.Elem(labels[i%len(labels)], text, xmltree.Attr{Name: "id", Value: fmt.Sprint(i)})
	}
	if err := b.End(); err != nil {
		panic(err)
	}
	doc, err := b.Done()
	if err != nil {
		panic(err)
	}
	return doc
}

// Random builds a random tree with about n nodes, labels drawn from
// {a,b,c,d,e}, small integer text at leaves, and id attributes throughout.
// The same seed always yields the same document.
func Random(n int, seed int64) *xmltree.Document {
	rng := rand.New(rand.NewSource(seed))
	labels := [...]string{"a", "b", "c", "d", "e"}
	b := xmltree.NewBuilder()
	b.Start("a", xmltree.Attr{Name: "id", Value: "0"})
	id := 1
	for b.Count() < n {
		switch {
		case b.Depth() > 1 && (rng.Intn(3) == 0 || b.Depth() > 6):
			if err := b.End(); err != nil {
				panic(err)
			}
		case rng.Intn(4) == 0:
			// Leaf with text; "100" sometimes, to light up = 100 predicates.
			text := fmt.Sprint(rng.Intn(120))
			if rng.Intn(6) == 0 {
				text = "100"
			}
			b.Elem(labels[rng.Intn(len(labels))], text,
				xmltree.Attr{Name: "id", Value: fmt.Sprint(id)})
			id++
		default:
			b.Start(labels[rng.Intn(len(labels))],
				xmltree.Attr{Name: "id", Value: fmt.Sprint(id)})
			id++
		}
	}
	for b.Depth() > 0 {
		if err := b.End(); err != nil {
			panic(err)
		}
	}
	doc, err := b.Done()
	if err != nil {
		panic(err)
	}
	return doc
}
