package store

import (
	"runtime"
	"sync"

	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/syntax"
	"repro/internal/trace"
	"repro/internal/values"
	"repro/internal/xmltree"
)

// Intra-query parallelism instruments: how often the last-step split is
// taken versus the serial fallback, and the cost of the document-order
// merge of the per-worker sets.
var (
	mParSplit  = metrics.Default().Counter("store.parallel.split")
	mParSerial = metrics.Default().Counter("store.parallel.serial")
	mMergeNs   = metrics.Default().Histogram("store.parallel.merge_ns")
)

// minParallelContexts gates the parallel path: below this many context
// nodes per worker the goroutine and per-call evaluator overhead outweighs
// any speedup, so EvaluateParallel falls back to one serial evaluation.
const minParallelContexts = 4

// EvaluateParallel evaluates q against doc by data-partitioning the last
// location step of the query across a bounded pool of goroutines.
//
// The decomposition is the classical one for location paths: for a pure
// step path π = s1/…/sk, S[[sk]](X) = ⋃ₓ∈X S[[sk]]({x}) — predicates
// inside a step are evaluated against per-context-node candidate lists
// (position() and last() included), so splitting the context set at a step
// boundary preserves XPath semantics exactly. The head s1/…/sk-1 is
// evaluated once, serially and set-at-a-time, in the given context — no
// work is duplicated across workers; its result set is cut into contiguous
// document-order chunks, each worker evaluates the final step per context
// node with the provided engine, and the per-worker sets are merged by set
// union — a deterministic document-order merge, since node sets order by
// preorder rank.
//
// Queries where context-value tables must span the whole context set fall
// back to one serial evaluation: non-path roots (scalar expressions, whose
// single result is not partitionable), filter-headed paths such as
// (//a)[2] (their predicates are positional over the entire node set),
// unions, paths with fewer than two steps, and paths whose final step
// carries a predicate with an absolute or filter-headed subpath (legal to
// partition, but each worker would recompute a whole-document table per
// context node — the shared-table case, served better serially). The
// returned bool reports whether the parallel path was taken; the result
// value is identical either way.
func EvaluateParallel(eng engine.Engine, q *syntax.Query, doc *xmltree.Document,
	ctx engine.Context, workers int) (values.Value, engine.Stats, bool, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	head, tail, ok := splitCached(q)
	if !ok || workers == 1 {
		mParSerial.Add(1)
		v, st, err := evalParallelPart(eng, q, doc, ctx)
		return v, st, false, err
	}

	hv, hst, err := evalParallelPart(eng, head, doc, ctx)
	if err != nil {
		return values.Value{}, hst, false, err
	}
	contexts := hv.Set.Nodes()
	if len(contexts) < minParallelContexts*workers {
		mParSerial.Add(1)
		// Not enough contexts to pay for the fan-out: finish the final step
		// on this goroutine, reusing the head result already computed. The
		// shared-tracer contract of ParallelOptions.Tracer holds here too —
		// the tail steps must reach the caller's tracer exactly as they
		// would on the parallel path.
		acc := xmltree.NewSet(doc)
		agg := hst
		for _, x := range contexts {
			v, st, err := evalParallelPart(eng, tail, doc,
				engine.Context{Node: x, Pos: 1, Size: 1, Tracer: ctx.Tracer, Budget: ctx.Budget})
			agg.Add(st)
			if err != nil {
				return values.Value{}, agg, false, err
			}
			acc.UnionWith(v.Set)
		}
		return values.NodeSet(acc), agg, false, nil
	}
	if workers > len(contexts) {
		workers = len(contexts)
	}
	mParSplit.Add(1)
	if ctx.Tracer != nil {
		ctx.Tracer.Emit(trace.Event{
			Kind: trace.KindSplit, Name: q.Source,
			In: len(contexts), Out: workers, Ns: 0,
		})
	}

	// The workers share one budget so termination coordinates: the caller's
	// budget when given, otherwise a local pure-cancellation token. The first
	// worker failure cancels it, and every sibling stops at its next
	// per-context poll (or mid-evaluation, at its engine's next check).
	bud := ctx.Budget
	if bud == nil {
		bud = budget.New(budget.Limits{})
	}
	var (
		failOnce sync.Once
		firstErr error
	)
	fail := func(err error) {
		failOnce.Do(func() { firstErr = err })
		bud.Cancel()
	}

	sets := make([]*xmltree.Set, workers)
	stats := make([]engine.Stats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(contexts) / workers
		hi := (w + 1) * len(contexts) / workers
		wg.Add(1)
		go func(w int, part []*xmltree.Node) {
			defer wg.Done()
			acc := xmltree.NewSet(doc)
			for _, x := range part {
				if err := bud.Err(); err != nil {
					errs[w] = err
					return
				}
				// The shared-tracer contract of QueryOptions.Tracer applies
				// here too: the tracer reaches every worker at once.
				v, st, err := evalParallelPart(eng, tail, doc,
					engine.Context{Node: x, Pos: 1, Size: 1, Tracer: ctx.Tracer, Budget: bud})
				stats[w].Add(st)
				if err != nil {
					errs[w] = err
					fail(err)
					return
				}
				acc.UnionWith(v.Set)
			}
			sets[w] = acc
		}(w, contexts[lo:hi])
	}
	wg.Wait()

	tMerge := trace.Now()
	merged := xmltree.NewSet(doc)
	agg := hst
	for w := 0; w < workers; w++ {
		agg.Add(stats[w])
	}
	// Report the root cause: the failure that tripped the shared budget, not
	// the ErrCanceled echoes the siblings observed after it.
	if firstErr != nil {
		return values.Value{}, agg, true, firstErr
	}
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return values.Value{}, agg, true, errs[w]
		}
		merged.UnionWith(sets[w])
	}
	mergeNs := trace.Now() - tMerge
	mMergeNs.Observe(mergeNs)
	if ctx.Tracer != nil {
		ctx.Tracer.Emit(trace.Event{
			Kind: trace.KindMerge, Name: q.Source,
			In: workers, Out: merged.Len(), Ns: mergeNs,
		})
	}
	return values.NodeSet(merged), agg, true, nil
}

// evalParallelPart runs one evaluation (head, tail chunk, or the serial
// fallback) behind the fan-out's panic guard, so a panicking engine surfaces
// as an *engine.EvalPanicError on one part instead of killing the process
// from an unsupervised goroutine.
func evalParallelPart(eng engine.Engine, q *syntax.Query, doc *xmltree.Document, ctx engine.Context) (v values.Value, st engine.Stats, err error) {
	defer engine.RecoverPanic(&err)
	faultinject.Hit("store.parallel")
	return eng.Evaluate(q, doc, ctx)
}

// splitEntry is one memoized SplitQuery outcome.
type splitEntry struct {
	head, tail *syntax.Query
	ok         bool
}

// splitCache memoizes SplitQuery per analyzed query. Queries are immutable
// after syntax.Compile, so pointer identity is a sound key; without the
// cache, every EvaluateParallel call would clone and re-analyze two
// subtrees and — worse — hand the compiled engine two fresh queries per
// call, each compiling its VM program anew (the program lives on its
// query). Beyond the cap an arbitrary entry is evicted (splits are cheap
// to redo; the bound only prevents unbounded growth under churning ad-hoc
// queries).
var splitCache = struct {
	sync.RWMutex
	m map[*syntax.Query]splitEntry
}{m: make(map[*syntax.Query]splitEntry)}

const maxCachedSplits = 1024

func splitCached(q *syntax.Query) (head, tail *syntax.Query, ok bool) {
	splitCache.RLock()
	e, hit := splitCache.m[q]
	splitCache.RUnlock()
	if hit {
		return e.head, e.tail, e.ok
	}
	head, tail, ok = SplitQuery(q)
	splitCache.Lock()
	defer splitCache.Unlock()
	if e, hit := splitCache.m[q]; hit {
		return e.head, e.tail, e.ok // converge on the racing winner
	}
	if len(splitCache.m) >= maxCachedSplits {
		for k := range splitCache.m {
			delete(splitCache.m, k)
			break
		}
	}
	splitCache.m[q] = splitEntry{head, tail, ok}
	return head, tail, ok
}

// SplitQuery decomposes a partitionable query into a head query (all steps
// but the last, evaluated serially and set-at-a-time to produce the context
// set) and a tail query (the final step, evaluated per context node). ok is
// false when the query's shape requires shared context tables and must be
// evaluated serially.
func SplitQuery(q *syntax.Query) (head, tail *syntax.Query, ok bool) {
	p, isPath := q.Root.(*syntax.Path)
	if !isPath || p.Filter != nil || !p.Abs || len(p.Steps) < 2 {
		return nil, nil, false
	}
	last := p.Steps[len(p.Steps)-1]
	for _, pred := range last.Preds {
		if hasGlobalPath(pred) {
			return nil, nil, false
		}
	}
	head = syntax.Subquery(q.Source+" <head>", &syntax.Path{Abs: true, Steps: p.Steps[:len(p.Steps)-1]})
	tail = syntax.Subquery(q.Source+" <tail>", &syntax.Path{Steps: p.Steps[len(p.Steps)-1:]})
	return head, tail, true
}

// hasGlobalPath reports whether the expression contains an absolute or
// filter-headed location path — a subexpression whose evaluation builds a
// whole-document table that per-context-node fan-out would rebuild for
// every context.
func hasGlobalPath(e syntax.Expr) bool {
	if p, ok := e.(*syntax.Path); ok && (p.Abs || p.Filter != nil) {
		return true
	}
	for _, c := range syntax.Children(e) {
		if hasGlobalPath(c) {
			return true
		}
	}
	return false
}
