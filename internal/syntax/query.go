package syntax

import "sync"

// Ctx is the relevant-context bitset Relev(N) ⊆ {'cn','cp','cs'} of
// Section 3.1.
type Ctx uint8

// The three context components of XPath 1.0 (§2.2).
const (
	CN Ctx = 1 << iota // context node
	CP                 // context position
	CS                 // context size
)

// Has reports whether the given components are all in the set.
func (c Ctx) Has(part Ctx) bool { return c&part == part }

// NeedsPosition reports whether the set intersects {'cp','cs'} — the test
// the Section 6 pseudo-code writes as {‘cp’,‘cs’} ∩ Relev(N) ≠ ∅.
func (c Ctx) NeedsPosition() bool { return c&(CP|CS) != 0 }

// String renders the set the way the paper writes it.
func (c Ctx) String() string {
	if c == 0 {
		return "∅"
	}
	out := "{"
	first := true
	add := func(s string) {
		if !first {
			out += ","
		}
		out += s
		first = false
	}
	if c.Has(CN) {
		add("cn")
	}
	if c.Has(CP) {
		add("cp")
	}
	if c.Has(CS) {
		add("cs")
	}
	return out + "}"
}

// Query is a compiled, normalized XPath 1.0 expression: the parse tree T of
// the paper, with dense node IDs, the relevant-context analysis of §3.1,
// and the fragment classification of §4 / Definition 12.
type Query struct {
	// Source is the original expression text.
	Source string
	// Root is the root node of the normalized parse tree.
	Root Expr
	// Nodes lists every parse-tree node, indexed by Expr.ID (preorder).
	Nodes []Expr
	// Relev maps node IDs to Relev(N).
	Relev []Ctx
	// Fragment is the query's fragment classification.
	Fragment Fragment
	// BottomUp lists the IDs of subexpressions eligible for the bottom-up
	// location-path evaluation of OPTMINCONTEXT (Algorithm 8), innermost
	// first.
	BottomUp []int

	// compiled is the query's compiled evaluation program (internal/plan's
	// *Program, held as any because syntax cannot import plan), filled once
	// by Compiled.
	compiled struct {
		once sync.Once
		v    any
		err  error
	}
}

// Compiled returns what compile produced the first time it was called on q.
// Later calls, from any goroutine, return the same value and error without
// calling compile again, so the compiled program lives exactly as long as
// its query.
func (q *Query) Compiled(compile func(*Query) (any, error)) (any, error) {
	q.compiled.once.Do(func() { q.compiled.v, q.compiled.err = compile(q) })
	return q.compiled.v, q.compiled.err
}

// Compile parses, normalizes and analyzes an XPath 1.0 expression with no
// variable bindings.
func Compile(src string) (*Query, error) { return CompileWithVars(src, nil) }

// CompileWithVars is Compile with an input variable binding (§2.2).
func CompileWithVars(src string, vars map[string]VarBinding) (*Query, error) {
	raw, err := ParseWithVars(src, vars)
	if err != nil {
		return nil, err
	}
	root := normalize(raw)
	q := &Query{Source: src, Root: root}
	q.assignIDs(root)
	q.computeRelev()
	q.Fragment = classify(q)
	q.BottomUp = findBottomUpPaths(q)
	return q, nil
}

// Subquery builds a fully analyzed Query from an already-normalized
// expression subtree. The subtree is cloned first, so the derived query's
// dense IDs, Relev analysis and fragment classification do not disturb the
// query the subtree was taken from. It is the splitting primitive of the
// data-partitioned parallel evaluator (internal/store), which decomposes an
// absolute location path into a serially-evaluated head and a per-context
// tail fanned out across goroutines.
func Subquery(src string, root Expr) *Query {
	clone := cloneExpr(root)
	q := &Query{Source: src, Root: clone}
	q.assignIDs(clone)
	q.computeRelev()
	q.Fragment = classify(q)
	q.BottomUp = findBottomUpPaths(q)
	return q
}

// Size returns |Q|, the number of parse-tree nodes.
func (q *Query) Size() int { return len(q.Nodes) }

// Node returns the parse-tree node with the given ID.
func (q *Query) Node(id int) Expr { return q.Nodes[id] }

// RelevOf returns Relev(N) for a parse-tree node.
func (q *Query) RelevOf(e Expr) Ctx { return q.Relev[e.ID()] }

// assignIDs numbers the parse tree in preorder.
func (q *Query) assignIDs(e Expr) {
	e.setID(len(q.Nodes))
	q.Nodes = append(q.Nodes, e)
	for _, c := range e.children() {
		q.assignIDs(c)
	}
}

// computeRelev implements the bottom-up Relev computation of Section 3.1.
// It runs in O(|Q|).
func (q *Query) computeRelev() {
	q.Relev = make([]Ctx, len(q.Nodes))
	var walk func(e Expr) Ctx
	walk = func(e Expr) Ctx {
		var r Ctx
		switch e := e.(type) {
		case *NumberLit, *StringLit:
			r = 0
		case *Negate:
			r = walk(e.E)
		case *Binary:
			r = walk(e.L) | walk(e.R)
		case *Union:
			// Location paths carry Relev = {'cn'} (§3.1); a union of paths
			// does too, but we still must traverse the children to fill in
			// their own entries.
			for _, p := range e.Paths {
				r |= walk(p)
			}
			r |= CN
		case *Call:
			for _, a := range e.Args {
				r |= walk(a)
			}
			switch e.Fn {
			case FnPosition:
				r |= CP
			case FnLast:
				r |= CS
			case FnTrue, FnFalse:
				// constants: ∅
			case FnString, FnNumber, FnStringLength, FnNormalizeSpace,
				FnLocalName, FnName:
				// Zero-argument forms operate on the context node (§3.1:
				// "parameterless XPath core library function that refers
				// to the context-node").
				if len(e.Args) == 0 {
					r |= CN
				}
			case FnLang:
				// lang() tests the context node's language.
				r |= CN
			}
		case *Path:
			// Location paths have Relev = {'cn'} (§3.1, cf. Example 3:
			// even the absolute path N1 carries {'cn'}). A filter head is
			// evaluated in the outer context, so any cp/cs dependency of
			// the head escapes to the path itself; predicate dependencies
			// do not (their positions are step-local).
			if e.Filter != nil {
				r |= walk(e.Filter) & (CP | CS)
			}
			for _, p := range e.FPreds {
				walk(p)
			}
			for _, s := range e.Steps {
				walk(s)
			}
			r |= CN
		case *Step:
			for _, p := range e.Preds {
				walk(p)
			}
			r = CN
		default:
			panic("syntax: computeRelev: unhandled expression")
		}
		q.Relev[e.ID()] = r
		return r
	}
	walk(q.Root)
}
