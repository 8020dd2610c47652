// Package fuzzgen is a seeded random generator of XPath 1.0 queries and XML
// documents for the cross-engine differential fuzz suite. Everything is
// deterministic given the seed, so a failing (query, document) pair is
// reproducible from its seed alone.
//
// The query generator covers the surface the seven engines disagree on
// when one of them has a semantic bug: all eleven axes, the three node-test
// kinds, nested predicates mixing path existence with comparisons,
// position()/last() arithmetic, count/sum aggregation, string functions,
// boolean connectives, unions, filter-expression heads and id()
// dereferencing. The document generator produces trees over the same small
// label vocabulary with numeric-ish text content (sprinkling the value 100
// so the workload predicates select nonempty sets) and unique id
// attributes.
package fuzzgen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/xmltree"
)

// Labels is the tag vocabulary shared by generated queries and documents;
// "e" appears in queries but rarely in documents, so empty-set paths are
// exercised too.
var Labels = []string{"a", "b", "c", "d", "e"}

var axes = []string{
	"self", "child", "parent", "descendant", "ancestor",
	"descendant-or-self", "ancestor-or-self", "following", "preceding",
	"following-sibling", "preceding-sibling",
}

var nodeTests = []string{"a", "b", "c", "d", "e", "*", "node()"}

// Config bounds the shape of generated queries.
type Config struct {
	// MaxSteps bounds the location steps per path (≥ 1).
	MaxSteps int
	// MaxDepth bounds predicate/subpath nesting.
	MaxDepth int
}

// Defaults fills in unset fields: up to 4 steps, predicates nested 2 deep.
func (c Config) Defaults() Config {
	if c.MaxSteps <= 0 {
		c.MaxSteps = 4
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 2
	}
	return c
}

// Query generates one random XPath 1.0 expression. The result always
// compiles (the generator emits only grammar the parser accepts); the
// differential suite treats a compile failure as a test failure.
func Query(rng *rand.Rand, cfg Config) string {
	cfg = cfg.Defaults()
	// Mostly node-set-valued paths (they exercise the table machinery);
	// sometimes a scalar expression at the top.
	switch rng.Intn(8) {
	case 0:
		return genScalar(rng, cfg.MaxDepth, cfg)
	case 1:
		return genPath(rng, cfg.MaxDepth, cfg, true) + " | " + genPath(rng, cfg.MaxDepth-1, cfg, true)
	default:
		return genPath(rng, cfg.MaxDepth, cfg, true)
	}
}

// AxisChainQuery generates a long location path that deliberately chains
// many distinct axes with name and node-test combinations — the shape that
// drives the engines' set-at-a-time axis kernels (and the fused axis+test
// path) hardest. All twelve axes appear across the distribution: the eleven
// structural axes as steps, and the id-axis through id() filter heads and
// id() predicates. Predicates are kept in the Core XPath shape (pure
// relative paths) so the satisfaction-set and backward-propagation kernels
// are exercised too, and every generated query stays cheap enough for the
// exponential naive comparator on the small differential documents.
func AxisChainQuery(rng *rand.Rand) string {
	var b strings.Builder
	// Head: absolute, descendant-or-self expanded, or the id-axis. A
	// node-set argument to id() is what normalization rewrites into an
	// ID-axis location step (§4), so both forms appear.
	switch rng.Intn(6) {
	case 0:
		fmt.Fprintf(&b, "id(\"%d %d %d\")", rng.Intn(30), rng.Intn(30), rng.Intn(30))
	case 1:
		fmt.Fprintf(&b, "id(/descendant::%s)", Labels[rng.Intn(len(Labels))])
	case 2:
		b.WriteString("/descendant-or-self::node()")
	default:
		b.WriteString("/descendant::" + nodeTests[rng.Intn(len(nodeTests))])
	}
	// A shuffled pass over all eleven structural axes guarantees every axis
	// kernel runs; a random suffix then mixes repeats in random order.
	order := rng.Perm(len(axes))
	steps := len(axes) - rng.Intn(6) // 6..11 distinct-axis steps
	for i := 0; i < steps; i++ {
		b.WriteString("/")
		b.WriteString(axes[order[i]])
		b.WriteString("::")
		// Bias toward name tests: they are what the fused axis+test kernel
		// intersects as a per-label bitset.
		if rng.Intn(10) < 7 {
			b.WriteString(Labels[rng.Intn(len(Labels))])
		} else {
			b.WriteString(nodeTests[rng.Intn(len(nodeTests))])
		}
		switch rng.Intn(6) {
		case 0: // existence predicate: one more axis+test pair per step
			fmt.Fprintf(&b, "[%s::%s]", axes[rng.Intn(len(axes))], nodeTests[rng.Intn(len(nodeTests))])
		case 1: // id(path) predicate: the twelfth axis inside the chain
			fmt.Fprintf(&b, "[id(%s::%s)]", axes[rng.Intn(len(axes))], Labels[rng.Intn(len(Labels))])
		}
	}
	return b.String()
}

// NestedAggregateQuery generates /descendant::t[P] where P nests depth
// aggregates (depth ≥ 1): each level applies count, sum, string-length or
// boolean to a relative step whose predicate is the next level, and the
// innermost step's predicate is a path existence test, a value comparison or
// position() != last(). The count, sum and string-length levels compare
// against a constant or, in the positional variant, against position() or
// last(). No satisfaction set replaces these predicates, so an evaluator
// that re-runs an inner predicate for every outer candidate grows as
// |D|^(depth+1); the compiled VM's per-node memo tables are what keeps it
// polynomial, and this generator is their differential diet.
func NestedAggregateQuery(rng *rand.Rand, depth int) string {
	return "/descendant::" + nodeTests[rng.Intn(len(nodeTests))] + "[" + genAggregate(rng, depth) + "]"
}

// genAggregate emits one level of NestedAggregateQuery's predicate.
func genAggregate(rng *rand.Rand, depth int) string {
	step := axes[rng.Intn(len(axes))] + "::" + nodeTests[rng.Intn(len(nodeTests))]
	if depth > 1 {
		step += "[" + genAggregate(rng, depth-1) + "]"
	} else {
		step += []string{"[child::*]", "[. = 100]", "[position() != last()]", ""}[rng.Intn(4)]
	}
	var agg string
	switch rng.Intn(4) {
	case 0:
		agg = "count(" + step + ")"
	case 1:
		agg = "sum(" + step + ")"
	case 2:
		agg = "string-length(string(" + step + "))"
	default:
		return "boolean(" + step + ")"
	}
	rhs := fmt.Sprint(rng.Intn(4))
	switch rng.Intn(4) {
	case 0:
		rhs = "position()"
	case 1:
		rhs = "last()"
	}
	return agg + " " + relOp(rng) + " " + rhs
}

// genPath emits a location path; absolute paths may carry filter heads.
func genPath(rng *rand.Rand, depth int, cfg Config, absolute bool) string {
	var b strings.Builder
	switch {
	case absolute && depth > 0 && rng.Intn(6) == 0:
		// Filter-expression head: id(...) or a parenthesized path with a
		// positional predicate (the shapes EvaluateParallel must refuse).
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, "id(\"%d %d\")/", rng.Intn(30), rng.Intn(30))
		} else {
			fmt.Fprintf(&b, "(%s)[%d]/", genPath(rng, depth-1, cfg, true), 1+rng.Intn(3))
		}
	case absolute:
		b.WriteString("/")
		if rng.Intn(2) == 0 {
			b.WriteString("descendant-or-self::node()/")
		}
	}
	steps := 1 + rng.Intn(cfg.MaxSteps)
	for i := 0; i < steps; i++ {
		if i > 0 {
			b.WriteString("/")
		}
		b.WriteString(axes[rng.Intn(len(axes))])
		b.WriteString("::")
		b.WriteString(nodeTests[rng.Intn(len(nodeTests))])
		for depth > 0 && rng.Intn(3) == 0 {
			b.WriteString("[")
			b.WriteString(genPredicate(rng, depth-1, cfg))
			b.WriteString("]")
			if rng.Intn(4) != 0 {
				break // usually at most one predicate per step
			}
		}
	}
	return b.String()
}

// genPredicate emits one predicate expression.
func genPredicate(rng *rand.Rand, depth int, cfg Config) string {
	switch rng.Intn(12) {
	case 0: // path existence
		return genPath(rng, depth, cfg, false)
	case 1: // positional arithmetic
		return fmt.Sprintf("position() %s %s", relOp(rng), genArith(rng, depth, cfg))
	case 2:
		return fmt.Sprintf("position() %s last() %s %d", relOp(rng), []string{"-", "+"}[rng.Intn(2)], rng.Intn(3))
	case 3: // value comparison against a path
		return fmt.Sprintf("%s %s %s", genPath(rng, depth, cfg, false), relOp(rng), genArith(rng, depth, cfg))
	case 4: // aggregation
		fn := []string{"count", "sum"}[rng.Intn(2)]
		return fmt.Sprintf("%s(%s) %s %d", fn, genPath(rng, depth, cfg, false), relOp(rng), rng.Intn(4))
	case 5: // boolean connectives
		if depth > 0 {
			op := []string{"and", "or"}[rng.Intn(2)]
			return fmt.Sprintf("(%s) %s (%s)", genPredicate(rng, depth-1, cfg), op, genPredicate(rng, depth-1, cfg))
		}
		return genPath(rng, depth, cfg, false)
	case 6:
		if depth > 0 {
			return fmt.Sprintf("not(%s)", genPredicate(rng, depth-1, cfg))
		}
		return "true()"
	case 7: // lexical disambiguation after a wildcard ('* and', '* = …')
		if depth > 0 {
			return fmt.Sprintf("self::* and %s", genPredicate(rng, depth-1, cfg))
		}
		return "self::* or false()"
	case 8: // string functions on the context node
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf("contains(string(), %q)", fmt.Sprint(rng.Intn(10)))
		case 1:
			return fmt.Sprintf("starts-with(string(), %q)", fmt.Sprint(rng.Intn(10)))
		case 2:
			return fmt.Sprintf("string-length(normalize-space(string())) %s %d", relOp(rng), rng.Intn(8))
		default:
			return fmt.Sprintf("substring(string(), %d, %d) = %q", 1+rng.Intn(3), 1+rng.Intn(3), fmt.Sprint(rng.Intn(10)))
		}
	case 9: // union inside boolean()
		return fmt.Sprintf("boolean(%s | %s)", genPath(rng, depth, cfg, false), genPath(rng, depth, cfg, false))
	case 10: // id() round trip through a string value
		return fmt.Sprintf("id(string(%s)) %s %d", genPath(rng, depth, cfg, false), relOp(rng), rng.Intn(40))
	default: // node-set vs node-set comparison (existential semantics)
		return fmt.Sprintf("%s %s %s", genPath(rng, depth, cfg, false), relOp(rng), genPath(rng, depth, cfg, false))
	}
}

// genArith emits a numeric expression mixing literals, position()/last(),
// count() and the five arithmetic operators.
func genArith(rng *rand.Rand, depth int, cfg Config) string {
	atom := func() string {
		switch rng.Intn(5) {
		case 0:
			return "position()"
		case 1:
			return "last()"
		case 2:
			return fmt.Sprintf("count(%s)", genPath(rng, 0, cfg, false))
		case 3:
			return fmt.Sprintf("%d.%d", rng.Intn(120), rng.Intn(10))
		default:
			return fmt.Sprint(rng.Intn(120))
		}
	}
	if depth <= 0 || rng.Intn(2) == 0 {
		return atom()
	}
	op := []string{"+", "-", "*", "div", "mod"}[rng.Intn(5)]
	return fmt.Sprintf("(%s %s %s)", atom(), op, atom())
}

// genScalar emits a scalar-valued top-level expression.
func genScalar(rng *rand.Rand, depth int, cfg Config) string {
	switch rng.Intn(6) {
	case 0:
		return fmt.Sprintf("count(%s)", genPath(rng, depth, cfg, true))
	case 1:
		return fmt.Sprintf("sum(%s)", genPath(rng, depth, cfg, true))
	case 2:
		return fmt.Sprintf("string(%s)", genPath(rng, depth, cfg, true))
	case 3:
		return fmt.Sprintf("boolean(%s)", genPath(rng, depth, cfg, true))
	case 4:
		return fmt.Sprintf("%s %s %s", genPath(rng, depth, cfg, true), relOp(rng), genArith(rng, depth, cfg))
	default:
		return fmt.Sprintf("floor(sum(%s) div (count(%s) + 1))",
			genPath(rng, depth, cfg, true), genPath(rng, depth, cfg, true))
	}
}

func relOp(rng *rand.Rand) string {
	return []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)]
}

// Document generates a random tree of approximately n element nodes:
// random labels over the vocabulary, depth-biased shape, numeric-ish text
// (with 100 sprinkled in), and unique id attributes on every third node.
func Document(rng *rand.Rand, n int) *xmltree.Document {
	b := xmltree.NewBuilder()
	b.Start("a", xmltree.Attr{Name: "id", Value: "0"})
	id := 1
	depth := 1
	for b.Count() < n {
		switch {
		case depth > 1 && rng.Intn(4) == 0:
			// Close one level.
			if err := b.End(); err != nil {
				panic(err)
			}
			depth--
		case depth < 6 && rng.Intn(3) == 0:
			// Open a nested element.
			b.Start(Labels[rng.Intn(len(Labels)-1)], idAttr(rng, &id)...)
			depth++
			if rng.Intn(2) == 0 {
				b.Text(genText(rng))
			}
		default:
			// Leaf element.
			b.Elem(Labels[rng.Intn(len(Labels))], genText(rng), idAttr(rng, &id)...)
		}
	}
	for depth > 0 {
		if err := b.End(); err != nil {
			panic(err)
		}
		depth--
	}
	doc, err := b.Done()
	if err != nil {
		panic(err)
	}
	return doc
}

func idAttr(rng *rand.Rand, id *int) []xmltree.Attr {
	if rng.Intn(3) != 0 {
		return nil
	}
	a := []xmltree.Attr{{Name: "id", Value: fmt.Sprint(*id)}}
	*id++
	return a
}

func genText(rng *rand.Rand) string {
	switch rng.Intn(4) {
	case 0:
		return "100"
	case 1:
		return fmt.Sprintf("%d %d", rng.Intn(40), rng.Intn(40))
	case 2:
		return fmt.Sprint(rng.Intn(120))
	default:
		return ""
	}
}

// Pair derives a (query, document) pair from one seed — the reproduction
// handle printed by the differential suite on failure.
func Pair(seed int64, cfg Config, docSize int) (string, *xmltree.Document) {
	rng := rand.New(rand.NewSource(seed))
	q := Query(rng, cfg)
	return q, Document(rng, docSize)
}

// VersionedDocument derives version v of a mutating document from one
// seed: the same (seed, n, v) always yields an identical tree, and every
// call returns a fresh instance. The interleaved mutate/query fuzz mode
// needs both properties — a store takes over a document's label storage on
// insert, so the mutator must feed it fresh instances, while the checker
// must be able to regenerate each version privately to precompute the
// admissible results.
func VersionedDocument(seed int64, n, v int) *xmltree.Document {
	const mix = int64(-0x61c8864680b583eb) // golden-ratio odd constant, splitmix-style
	return Document(rand.New(rand.NewSource(seed^(int64(v+1)*mix))), n)
}
