package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// DoublingQuery returns the i-th query of the [11] exponential-blowup
// family: //b followed by i rounds of /parent::a/child::b. On the Doubling
// document, a naive context-at-a-time evaluator touches 2^(i+1) nodes,
// while every polynomial engine stays linear in i.
func DoublingQuery(i int) string {
	var b strings.Builder
	b.WriteString("//b")
	for k := 0; k < i; k++ {
		b.WriteString("/parent::a/child::b")
	}
	return b.String()
}

// NestedCountQuery returns /descendant::*[P_k] with k nested predicates
// that no satisfaction set can replace, so an evaluator that re-runs inner
// predicates per outer candidate pays |D|^(k+1). The plain family has
// P_0 = count(child::*) < 5 and P_(i+1) = count(following::*[P_i]) > 1,
// position-independent throughout (Relev = {cn} at every level, the easy
// case of §3.1); the positional family has P_0 = position() != last() and
// P_(i+1) = count(following::*[P_i]) > position().
func NestedCountQuery(k int, positional bool) string {
	pred, outer := "count(child::*) < 5", "1"
	if positional {
		pred, outer = "position() != last()", "position()"
	}
	for i := 0; i < k; i++ {
		pred = fmt.Sprintf("count(following::*[%s]) > %s", pred, outer)
	}
	return "/descendant::*[" + pred + "]"
}

// PositionHeavy is the paper's running query (§2.4): two descendant steps
// with a position()/last() predicate. It keeps MINCONTEXT in its positional
// loop, which is where the Theorem 7 time bound is exercised.
func PositionHeavy() string {
	return `/descendant::*/descendant::*[position() > last()*0.5 or self::* = 100]`
}

// WadlerQueries is the Extended Wadler family of experiment E8: location
// paths with boolean(π) and π RelOp constant predicates plus position
// arithmetic, but none of the Restriction 1/2 features.
func WadlerQueries() []string {
	return []string{
		`/descendant::b[boolean(child::d)]/child::c`,
		`/descendant::*[preceding-sibling::*/preceding::* = 100]`,
		`/descendant::c[position() != last()][following::d = 100]`,
		`/child::a/descendant::*[boolean(following::d[position() != last()]/following::d)]`,
	}
}

// CoreQueries is the Core XPath family of experiment E9 (Definition 12):
// no position(), last(), or comparisons — just path existence predicates.
func CoreQueries() []string {
	return []string{
		`/descendant::b[child::d]/child::c`,
		`/descendant::*[following-sibling::d and not(child::node())]`,
		`/child::a/child::b[descendant::d[preceding-sibling::c]]/child::c`,
		`//b[.//d]//c`,
	}
}

// FullXPathQueries exercises the features the Extended Wadler fragment
// forbids — count/sum, nset-vs-nset comparison, data-selecting functions —
// so only the Theorem 7 engines handle them at their general bounds.
func FullXPathQueries() []string {
	return []string{
		`/descendant::b[count(child::c) > 1]/child::d`,
		`/descendant::*[sum(child::d) >= 100]`,
		`/descendant::c[string-length(string()) > 3]`,
		`/descendant::b[child::c = following::d]`,
	}
}

// MixedQuery is the Corollary 11 workload of experiment E10: a query that
// is not in the Extended Wadler Fragment overall (count violates
// Restriction 2) but whose boolean(π) subexpression is, so OPTMINCONTEXT
// evaluates that part bottom-up at the better bound.
func MixedQuery() string {
	return `/descendant::b[boolean(descendant::d[preceding-sibling::c])][count(child::node()) > 1]`
}

// RandomQuery generates a random full-XPath query for differential
// testing: random axes, node tests over the Random document's label set,
// and bounded-depth predicates mixing path existence, comparisons,
// position()/last() arithmetic, count() and string functions. The same
// seed always yields the same query.
func RandomQuery(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	return genPath(rng, 2, true)
}

var genAxes = []string{
	"self", "child", "parent", "descendant", "ancestor",
	"descendant-or-self", "ancestor-or-self", "following", "preceding",
	"following-sibling", "preceding-sibling",
}

var genTests = []string{"a", "b", "c", "d", "e", "*", "node()"}

func genPath(rng *rand.Rand, depth int, absolute bool) string {
	var b strings.Builder
	switch {
	case absolute && rng.Intn(4) == 0 && depth > 0:
		// A filter-expression head: id(...) or a parenthesized path with a
		// positional predicate.
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, "id(\"%d %d\")/", rng.Intn(40), rng.Intn(40))
		} else {
			fmt.Fprintf(&b, "(%s)[%d]/", genPath(rng, depth-1, true), 1+rng.Intn(3))
		}
	case absolute && rng.Intn(2) == 0:
		b.WriteString("/")
		if rng.Intn(2) == 0 {
			b.WriteString("descendant::*/")
		}
	}
	steps := 1 + rng.Intn(3)
	for i := 0; i < steps; i++ {
		if i > 0 {
			b.WriteString("/")
		}
		b.WriteString(genAxes[rng.Intn(len(genAxes))])
		b.WriteString("::")
		b.WriteString(genTests[rng.Intn(len(genTests))])
		if depth > 0 && rng.Intn(3) == 0 {
			b.WriteString("[")
			b.WriteString(genPred(rng, depth-1))
			b.WriteString("]")
		}
	}
	if absolute && depth > 0 && rng.Intn(8) == 0 {
		// Top-level union.
		return b.String() + " | " + genPath(rng, depth-1, absolute)
	}
	return b.String()
}

func genPred(rng *rand.Rand, depth int) string {
	switch rng.Intn(11) {
	case 0:
		return genPath(rng, depth, false)
	case 1:
		return fmt.Sprintf("position() %s %d", genRelOp(rng), 1+rng.Intn(4))
	case 2:
		return "position() != last()"
	case 3:
		return fmt.Sprintf("%s %s %d", genPath(rng, depth, false), genRelOp(rng), rng.Intn(120))
	case 4:
		return fmt.Sprintf("count(%s) %s %d", genPath(rng, depth, false), genRelOp(rng), rng.Intn(3))
	case 5:
		if depth > 0 {
			return fmt.Sprintf("(%s) and (%s)", genPred(rng, depth-1), genPred(rng, depth-1))
		}
		return genPath(rng, depth, false)
	case 6:
		if depth > 0 {
			return fmt.Sprintf("not(%s)", genPred(rng, depth-1))
		}
		return "true()"
	case 7:
		// Unparenthesized operator after a wildcard step — the lexical
		// disambiguation pattern ('* and', '* or', '* = …').
		if depth > 0 {
			return fmt.Sprintf("self::* and %s", genPred(rng, depth-1))
		}
		return "self::* or true()"
	case 8:
		return fmt.Sprintf("boolean(%s | %s)", genPath(rng, depth, false), genPath(rng, depth, false))
	case 9:
		return fmt.Sprintf("id(string(%s)) %s %d", genPath(rng, depth, false), genRelOp(rng), rng.Intn(50))
	default:
		return fmt.Sprintf("contains(string(), %q)", fmt.Sprint(rng.Intn(10)))
	}
}

func genRelOp(rng *rand.Rand) string {
	return []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)]
}
