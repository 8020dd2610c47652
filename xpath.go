// Package xpath is a complete, stdlib-only XPath 1.0 query engine
// implementing the evaluation algorithms of Gottlob, Koch and Pichler,
// "XPath Query Evaluation: Improving Time and Space Efficiency" (ICDE
// 2003), together with the baselines they improve on.
//
// Seven interchangeable evaluation engines are provided:
//
//	OptMinContext  — Algorithm 8 (the paper's recommended processor)
//	MinContext     — Algorithm 6, Theorem 7 bounds
//	TopDown        — the E↓ semantics of Definition 2 ([11])
//	BottomUp       — the strict context-value-table E↑ ([11])
//	CoreXPath      — linear-time engine for the Core XPath fragment
//	Naive          — the exponential-time strategy of pre-2002 processors
//	Compiled       — whole-query compilation to a register VM (internal/plan;
//	                 default)
//
// All engines implement the same semantics (XPath 1.0, minus the attribute
// and namespace axes the paper's data model excludes) and can be compared
// on any query; see EXPERIMENTS.md for the reproduced complexity behavior.
//
// # Quick start
//
//	doc, _ := xpath.ParseDocument(strings.NewReader(`<a><b/><b/></a>`))
//	q, _ := xpath.Compile(`/child::a/child::b[position() = last()]`)
//	res, _ := q.Evaluate(doc)
//	for _, n := range res.Nodes() {
//	    fmt.Println(n.Label())
//	}
package xpath

import (
	"context"
	"fmt"
	"io"

	"repro/internal/bottomup"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/corexpath"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/syntax"
	"repro/internal/topdown"
	"repro/internal/trace"
	"repro/internal/values"
	"repro/internal/xmltree"
)

// Engine selects one of the evaluation algorithms.
type Engine int

// The available engines. EngineAuto uses EngineCompiled, the register VM:
// it runs set-at-a-time steps and backward propagation as compiled set
// algebra, and it keeps a per-node table for every repeated subexpression
// with Relev = {cn} (§3.1), so nested predicates stay polynomial.
const (
	EngineAuto Engine = iota
	EngineOptMinContext
	EngineMinContext
	EngineTopDown
	EngineBottomUp
	EngineCoreXPath
	EngineNaive
	// EngineCompiled compiles the query to a flat register-VM program
	// (internal/plan): fused set-at-a-time step opcodes, satisfaction-set
	// predicate filters, static position() = k specialization and per-node
	// memo tables for nested predicates. The program is compiled once per
	// Query and kept on it.
	EngineCompiled
)

// engineList is the single source of truth for engine naming: an ordered
// slice, so String, EngineByName and Engines are deterministic (a map here
// made EngineByName's answer depend on iteration order whenever two entries
// shared a name).
var engineList = []struct {
	e    Engine
	name string
}{
	{EngineAuto, "auto"},
	{EngineOptMinContext, "optmincontext"},
	{EngineMinContext, "mincontext"},
	{EngineTopDown, "topdown"},
	{EngineBottomUp, "bottomup"},
	{EngineCoreXPath, "corexpath"},
	{EngineNaive, "naive"},
	{EngineCompiled, "compiled"},
}

// String returns the engine's CLI name.
func (e Engine) String() string {
	for _, ent := range engineList {
		if ent.e == e {
			return ent.name
		}
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// EngineByName resolves a CLI engine name; ok is false for unknown names.
// Resolution scans the declaration order of engineList, so the answer is
// deterministic even if a name were ever duplicated.
func EngineByName(name string) (Engine, bool) {
	for _, ent := range engineList {
		if ent.name == name {
			return ent.e, true
		}
	}
	return 0, false
}

// Engines lists every selectable engine (excluding the Auto alias), for
// differential tests and benchmarks, in engineList order.
func Engines() []Engine {
	out := make([]Engine, 0, len(engineList)-1)
	for _, ent := range engineList {
		if ent.e != EngineAuto {
			out = append(out, ent.e)
		}
	}
	return out
}

// compiledEngine is the process-wide compiled engine: shared so its VM pool
// survives across evaluations (plan.Engine is safe for concurrent use).
var compiledEngine = plan.New()

// Resolved returns the engine that evaluates for e: EngineAuto resolves to
// EngineCompiled, the register VM, and every other engine to itself. It is
// the one place that decides what "auto" means.
func (e Engine) Resolved() Engine {
	if e == EngineAuto {
		return EngineCompiled
	}
	return e
}

func (e Engine) impl() engine.Engine {
	switch e.Resolved() {
	case EngineOptMinContext:
		return core.NewOptMinContext()
	case EngineMinContext:
		return core.NewMinContext()
	case EngineTopDown:
		return topdown.New()
	case EngineBottomUp:
		return bottomup.New()
	case EngineCoreXPath:
		return corexpath.New()
	case EngineNaive:
		return naive.New()
	case EngineCompiled:
		return compiledEngine
	}
	panic("xpath: unknown engine")
}

// Fragment mirrors the paper's query classification.
type Fragment int

// Fragment values, from most to least restrictive.
const (
	// CoreXPath is the fragment of Definition 12: evaluable in O(|D|·|Q|).
	CoreXPath Fragment = iota
	// ExtendedWadler is the fragment of Section 4 (Restrictions 1–3):
	// evaluable in O(|D|²·|Q|²) time and O(|D|·|Q|²) space.
	ExtendedWadler
	// FullXPath is everything else: Theorem 7 bounds apply.
	FullXPath
)

// String names the fragment.
func (f Fragment) String() string {
	return [...]string{"core-xpath", "extended-wadler", "full-xpath"}[f]
}

// Document is a parsed, immutable XML document.
type Document struct {
	tree *xmltree.Document
}

// ParseDocument reads an XML document. Comments and processing
// instructions are skipped; attributes are kept as data (the paper's data
// model has no attribute axis), with the "id" attribute feeding id().
// DefaultParseLimits applies; ParseDocumentLimits chooses other bounds.
func ParseDocument(r io.Reader) (*Document, error) {
	t, err := xmltree.Parse(r)
	if err != nil {
		return nil, err
	}
	return &Document{tree: t}, nil
}

// ParseLimits bounds document ingest against adversarial XML: a nesting
// depth cap (deep documents would otherwise overflow the stack of the
// recursive index builder — a fatal crash, not a recoverable panic) and a
// node count cap bounding ingest memory. Zero or negative fields impose no
// corresponding limit.
type ParseLimits = xmltree.Limits

// DefaultParseLimits returns the bounds ParseDocument, ParseDocumentString
// and the snapshot loaders apply on their own.
func DefaultParseLimits() ParseLimits { return xmltree.DefaultLimits() }

// Ingest-limit errors, comparable with errors.Is against a parse failure.
var (
	// ErrDepthLimit reports XML nested deeper than ParseLimits.MaxDepth.
	ErrDepthLimit = xmltree.ErrDepthLimit
	// ErrNodeLimit reports a document larger than ParseLimits.MaxNodes.
	ErrNodeLimit = xmltree.ErrNodeLimit
)

// ParseDocumentLimits is ParseDocument under caller-chosen ingest bounds;
// exceeding one returns an error wrapping ErrDepthLimit or ErrNodeLimit.
func ParseDocumentLimits(r io.Reader, l ParseLimits) (*Document, error) {
	t, err := xmltree.ParseWithLimits(r, l)
	if err != nil {
		return nil, err
	}
	return &Document{tree: t}, nil
}

// ParseDocumentString parses an XML document held in a string.
func ParseDocumentString(s string) (*Document, error) {
	t, err := xmltree.ParseString(s)
	if err != nil {
		return nil, err
	}
	return &Document{tree: t}, nil
}

// Size returns |dom|: the number of element nodes.
func (d *Document) Size() int { return d.tree.Size() }

// Root returns the document root node (the node addressed by "/").
func (d *Document) Root() *Node { return wrapNode(d.tree.Root()) }

// ByID returns the element whose id attribute equals the key, or nil.
func (d *Document) ByID(id string) *Node { return wrapNode(d.tree.ByID(id)) }

// XML serializes the document back to XML.
func (d *Document) XML() string { return d.tree.XMLString() }

// Tree exposes the underlying tree to sibling packages of this module (the
// benchmark harness); external users should not need it.
func (d *Document) Tree() *xmltree.Document { return d.tree }

// WrapTree wraps an internally built document (used by the workload
// generators and the benchmark harness).
func WrapTree(t *xmltree.Document) *Document { return &Document{tree: t} }

// Node is one node of a document.
type Node struct {
	n *xmltree.Node
}

func wrapNode(n *xmltree.Node) *Node {
	if n == nil {
		return nil
	}
	return &Node{n: n}
}

// Label returns the node's tag name ("" for the document root).
func (n *Node) Label() string { return n.n.Label() }

// StringValue returns strval(n): the concatenated character data of the
// node's subtree.
func (n *Node) StringValue() string { return n.n.StringValue() }

// Parent returns the parent node, or nil for the document root.
func (n *Node) Parent() *Node { return wrapNode(n.n.Parent()) }

// Children returns the element children in document order.
func (n *Node) Children() []*Node {
	kids := n.n.Children()
	out := make([]*Node, len(kids))
	for i, k := range kids {
		out[i] = wrapNode(k)
	}
	return out
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) { return n.n.Attr(name) }

// IsRoot reports whether this is the document root.
func (n *Node) IsRoot() bool { return n.n.IsRoot() }

// Pre returns the node's document-order index (root = 0).
func (n *Node) Pre() int { return n.n.Pre() }

// String renders the node as label plus id attribute when present.
func (n *Node) String() string {
	if n.IsRoot() {
		return "/"
	}
	if id, ok := n.Attr("id"); ok {
		return n.Label() + "#" + id
	}
	return n.Label()
}

// Query is a compiled XPath 1.0 expression.
type Query struct {
	q *syntax.Query
}

// Compile parses, normalizes and analyzes an XPath 1.0 expression.
func Compile(src string) (*Query, error) {
	q, err := syntax.Compile(src)
	if err != nil {
		return nil, err
	}
	return &Query{q: q}, nil
}

// MustCompile is Compile for known-good expressions; it panics on error.
func MustCompile(src string) *Query {
	q, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return q
}

// queryCache backs CompileCached: the process-wide source-keyed cache of
// analyzed queries, each carrying its compiled program.
var queryCache = plan.NewSourceCache(1024)

// CompileCached is Compile backed by a process-wide cache keyed by the
// query source: repeated traffic for the same expression skips lexing,
// parsing, normalization, analysis and plan compilation entirely, and
// EngineCompiled evaluations of the returned query run the instruction
// program compiled on its first miss. Sources that fail to compile enter a bounded
// negative cache, so repeated traffic for an invalid expression is rejected
// without re-parsing. Queries needing variable bindings must use
// CompileWithVars (bindings are substituted into the tree, so source text
// alone would not identify them).
func CompileCached(src string) (*Query, error) {
	q, _, err := CompileCachedTraced(src, nil)
	return q, err
}

// CompileCachedTraced is CompileCached with two server-grade extras: an
// optional tracer (a miss that compiles emits one KindCompile span carrying
// the compile time; tr may be nil) and a cache-hit report — hit is true
// when the call was served from the cache without compiling, including
// rejections served from the negative cache. The HTTP front-end uses it to
// attribute per-request cache behavior without racing on counter deltas.
func CompileCachedTraced(src string, tr Tracer) (q *Query, hit bool, err error) {
	sq, hit, err := queryCache.Get(src, tr)
	if err != nil {
		return nil, hit, err
	}
	return &Query{q: sq}, hit, nil
}

// QueryCacheStats is a point-in-time view of the CompileCached source
// cache's counters: served hits, compiling misses, negative-cache hits
// (known-bad sources rejected without re-parsing), capacity evictions,
// successful compiles, and the current entry count.
type QueryCacheStats struct {
	Hits, Misses, ErrorHits, Evictions, Compiles int64
	Len                                          int
}

// CompileCachedStats reports the process-wide CompileCached cache counters
// — the hit-rate source of truth for the HTTP front-end's /stats endpoint.
func CompileCachedStats() QueryCacheStats {
	return QueryCacheStats{
		Hits:      queryCache.Hits(),
		Misses:    queryCache.Misses(),
		ErrorHits: queryCache.ErrorHits(),
		Evictions: queryCache.Evictions(),
		Compiles:  queryCache.Compiles(),
		Len:       queryCache.Len(),
	}
}

// CompileWithVars compiles with an input variable binding (§2.2 replaces
// each variable by the constant value of its binding).
func CompileWithVars(src string, vars map[string]Var) (*Query, error) {
	m := make(map[string]syntax.VarBinding, len(vars))
	for k, v := range vars {
		m[k] = v.b
	}
	q, err := syntax.CompileWithVars(src, m)
	if err != nil {
		return nil, err
	}
	return &Query{q: q}, nil
}

// Var is a scalar variable binding.
type Var struct{ b syntax.VarBinding }

// NumberVar binds a number.
func NumberVar(v float64) Var { return Var{b: syntax.NumberVar(v)} }

// StringVar binds a string.
func StringVar(s string) Var { return Var{b: syntax.StringVar(s)} }

// BoolVar binds a boolean.
func BoolVar(v bool) Var { return Var{b: syntax.BoolVar(v)} }

// String returns the normalized (unabbreviated, explicitly converted) form
// of the query.
func (q *Query) String() string { return q.q.Root.String() }

// Source returns the original expression text.
func (q *Query) Source() string { return q.q.Source }

// Size returns |Q|: the number of parse-tree nodes after normalization.
func (q *Query) Size() int { return q.q.Size() }

// Fragment returns the query's fragment classification.
func (q *Query) Fragment() Fragment {
	switch q.q.Fragment {
	case syntax.FragmentCoreXPath:
		return CoreXPath
	case syntax.FragmentExtendedWadler:
		return ExtendedWadler
	}
	return FullXPath
}

// Internal exposes the compiled query to sibling packages of this module.
func (q *Query) Internal() *syntax.Query { return q.q }

// Options configures one evaluation.
type Options struct {
	// Engine selects the evaluation algorithm (default: EngineCompiled).
	Engine Engine
	// ContextNode evaluates relative to this node (default: document root).
	ContextNode *Node
	// Position and Size set the context position/size (default 1, 1).
	Position, Size int
	// Tracer, when non-nil, receives per-step (interpreters) or per-opcode
	// (EngineCompiled) spans plus one KindEval root span for the whole
	// evaluation. Leaving it nil is the strictly zero-cost default — the
	// instrumented hot paths pay one nil check and nothing else. A
	// TraceRecorder may be reused across evaluations (Reset clears it) and,
	// unlike evaluation scratch, may be shared between goroutines.
	Tracer Tracer
	// Budget, when non-nil, bounds the evaluation cooperatively: every
	// engine's main loop checks it, so cancellation (Budget.Cancel, from any
	// goroutine), deadlines and step limits interrupt the evaluation
	// mid-flight with ErrCanceled / ErrDeadlineExceeded / ErrBudgetExceeded.
	// Like Tracer, nil costs one predicted nil check per site and a live
	// Budget stays within the pinned warm-path allocation counts. A Budget
	// is single-evaluation state: create a fresh one per evaluation (it trips
	// at most once and stays tripped).
	Budget *Budget
	// Context, when non-nil, bridges standard context cancellation into the
	// evaluation: when the context is done the evaluation's budget is
	// canceled (an internal pure-cancellation Budget is created when Budget
	// is nil). Unlike Budget alone, this path allocates (the stdlib
	// registration), so latency-critical callers who poll their own signal
	// should prefer Budget.
	Context context.Context
}

// Stats reports the instrumentation counters of one evaluation; see
// EXPERIMENTS.md for how they back the paper's space theorems.
type Stats struct {
	// TableCells counts context-value table cells written.
	TableCells int64
	// ContextsEvaluated counts single-context expression evaluations.
	ContextsEvaluated int64
	// AxisCalls counts set-at-a-time axis function applications.
	AxisCalls int64
}

// Result is the outcome of one evaluation.
type Result struct {
	v     values.Value
	stats Stats
}

// Evaluate runs the query against a document with default options.
func (q *Query) Evaluate(doc *Document) (*Result, error) {
	return q.EvaluateWith(doc, Options{})
}

// errContextForeignNode rejects context nodes from another document.
var errContextForeignNode = fmt.Errorf("xpath: context node belongs to a different document")

// rootContextFor returns the default outermost context 〈root, 1, 1〉.
func rootContextFor(doc *Document) engine.Context {
	return engine.Context{Node: doc.tree.Root(), Pos: 1, Size: 1}
}

// Evaluation instruments: every EvaluateWith increments the counter and
// feeds the wall-clock histogram; node-set results feed the cardinality
// histogram. All three are plain atomic updates — no allocation, no lock.
var (
	mEvals      = metrics.Default().Counter("xpath.evals")
	mEvalErrors = metrics.Default().Counter("xpath.eval_errors")
	mEvalNs     = metrics.Default().Histogram("xpath.eval_ns")
	mResultCard = metrics.Default().Histogram("xpath.result_card")
)

// EvaluateWith runs the query with explicit options.
func (q *Query) EvaluateWith(doc *Document, opts Options) (*Result, error) {
	ctx := rootContextFor(doc)
	if opts.ContextNode != nil {
		if opts.ContextNode.n.Document() != doc.tree {
			return nil, errContextForeignNode
		}
		ctx.Node = opts.ContextNode.n
	}
	if opts.Position > 0 {
		ctx.Pos = opts.Position
	}
	if opts.Size > 0 {
		ctx.Size = opts.Size
	}
	if ctx.Pos > ctx.Size {
		return nil, fmt.Errorf("xpath: context position %d exceeds context size %d", ctx.Pos, ctx.Size)
	}
	ctx.Tracer = opts.Tracer
	bud := opts.Budget
	if opts.Context != nil {
		// Bridge standard context cancellation into the budget: an internal
		// pure-cancellation budget is created when the caller supplied none,
		// and the AfterFunc registration is torn down before returning.
		if err := budgetErrFromContext(opts.Context); err != nil {
			mEvals.Add(1)
			mEvalErrors.Add(1)
			return nil, err
		}
		if bud == nil {
			bud = budget.New(budget.Limits{})
		}
		stop := context.AfterFunc(opts.Context, bud.Cancel)
		defer stop()
	}
	ctx.Budget = bud
	t0 := trace.Now()
	v, st, err := evalGuarded(opts.Engine.impl(), q.q, doc.tree, ctx)
	evalNs := trace.Now() - t0
	mEvals.Add(1)
	mEvalNs.Observe(evalNs)
	if err != nil {
		mEvalErrors.Add(1)
		return nil, err
	}
	out := trace.CardUnknown
	if v.T == values.KindNodeSet && v.Set != nil {
		out = v.Set.Len()
		mResultCard.Observe(int64(out))
		if bud != nil {
			if err := bud.Card(out); err != nil {
				mEvalErrors.Add(1)
				return nil, err
			}
		}
	}
	if opts.Tracer != nil {
		opts.Tracer.Emit(TraceEvent{
			Kind: trace.KindEval, Name: opts.Engine.String(),
			In: trace.CardUnknown, Out: out, Ns: evalNs,
		})
	}
	return &Result{v: v, stats: toStats(st)}, nil
}

// budgetErrFromContext maps a context's termination cause onto the
// evaluation error taxonomy.
func budgetErrFromContext(ctx context.Context) error {
	switch ctx.Err() {
	case nil:
		return nil
	case context.DeadlineExceeded:
		return ErrDeadlineExceeded
	default:
		return ErrCanceled
	}
}

// evalGuarded is the panic-isolation boundary of every public evaluation: a
// panicking engine surfaces as an *EvalPanicError (stack captured,
// engine.panics incremented) instead of crashing the caller. The
// faultinject site lets chaos tests drive this path on demand.
func evalGuarded(eng engine.Engine, q *syntax.Query, doc *xmltree.Document, ctx engine.Context) (v values.Value, st engine.Stats, err error) {
	defer engine.RecoverPanic(&err)
	faultinject.Hit("xpath.evaluate")
	return eng.Evaluate(q, doc, ctx)
}

// EvaluateTraced runs the query with default options plus a tracer: sugar
// for EvaluateWith(doc, Options{Tracer: tr}). A typical session:
//
//	rec := xpath.NewTraceRecorder()
//	res, err := q.EvaluateTraced(doc, rec)
//	fmt.Print(xpath.RenderTrace(rec.Rows()))
func (q *Query) EvaluateTraced(doc *Document, tr Tracer) (*Result, error) {
	return q.EvaluateWith(doc, Options{Tracer: tr})
}

// toStats converts the engines' instrumentation counters to the public
// Stats — the single conversion point for every evaluation path.
func toStats(st engine.Stats) Stats {
	return Stats{
		TableCells:        st.TableCells,
		ContextsEvaluated: st.ContextsEvaluated,
		AxisCalls:         st.AxisCalls,
	}
}

// IsNodeSet reports whether the result is a node set.
func (r *Result) IsNodeSet() bool { return r.v.T == values.KindNodeSet }

// Nodes returns the resulting node set in document order (nil for scalar
// results).
func (r *Result) Nodes() []*Node {
	if r.v.T != values.KindNodeSet {
		return nil
	}
	raw := r.v.Set.Nodes()
	out := make([]*Node, len(raw))
	for i, n := range raw {
		out[i] = wrapNode(n)
	}
	return out
}

// Number returns the result converted to a number (F[[number]]).
func (r *Result) Number() float64 { return values.ToNumber(r.v) }

// Text returns the result converted to a string (F[[string]]).
func (r *Result) Text() string { return values.ToString(r.v) }

// Bool returns the result converted to a boolean (F[[boolean]]).
func (r *Result) Bool() bool { return values.ToBool(r.v) }

// Stats returns the evaluation's instrumentation counters.
func (r *Result) Stats() Stats { return r.stats }

// String renders the result: node sets in the paper's {x11, x12} notation,
// scalars via their XPath string conversion.
func (r *Result) String() string { return values.Render(r.v) }

// WriteSnapshot serializes the document into the compact binary snapshot
// format of internal/xmltree: labels interned, tree as a preorder event
// stream. LoadSnapshot restores it — including all evaluation indexes —
// without re-parsing XML, which is the preparation step for the
// database-resident usage the paper's conclusion anticipates.
func (d *Document) WriteSnapshot(w io.Writer) error { return d.tree.WriteSnapshot(w) }

// LoadSnapshot reads a document snapshot written by WriteSnapshot.
func LoadSnapshot(r io.Reader) (*Document, error) {
	t, err := xmltree.LoadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return &Document{tree: t}, nil
}
