package xpath

import (
	"io"

	"repro/internal/store"
)

// Store is a sharded, concurrency-safe corpus of documents with batch
// evaluation: one compiled query fanned out across many documents on a
// bounded worker pool. Whole corpora round-trip through binary snapshots
// (WriteSnapshot / LoadStore) without re-parsing XML. The store never
// modifies a document: equal labels already share one string across all
// live documents from the moment each is parsed.
//
// All methods are safe for concurrent use from any number of goroutines.
type Store struct {
	s *store.Store
}

// NewStore returns an empty document store.
func NewStore() *Store { return &Store{s: store.New()} }

// Add inserts (or replaces) a document under the given ID. Documents are
// immutable, so the same document may be evaluated, or added to other
// stores, while Add runs.
func (st *Store) Add(id string, doc *Document) error {
	if doc == nil {
		return st.s.Add(id, nil) // the store's nil-document error
	}
	return st.s.Add(id, doc.tree)
}

// Get returns the document stored under the ID.
func (st *Store) Get(id string) (*Document, bool) {
	t, ok := st.s.Get(id)
	if !ok {
		return nil, false
	}
	return &Document{tree: t}, true
}

// Replace atomically swaps the document under the ID (inserting if absent)
// and reports whether a previous document was displaced. Readers that
// obtained the old document keep a fully valid tree; in-flight evaluations
// see either the old or the new document, never a mixture.
func (st *Store) Replace(id string, doc *Document) (bool, error) {
	if doc == nil {
		return st.s.Replace(id, nil) // the store's nil-document error
	}
	return st.s.Replace(id, doc.tree)
}

// Remove deletes the document stored under the ID, reporting whether it was
// present.
func (st *Store) Remove(id string) bool { return st.s.Remove(id) }

// Len returns the number of stored documents.
func (st *Store) Len() int { return st.s.Len() }

// IDs returns the IDs of all stored documents, sorted.
func (st *Store) IDs() []string { return st.s.IDs() }

// WriteSnapshot serializes the whole corpus (sorted-ID order) in the binary
// corpus snapshot format; LoadStore restores it, evaluation indexes
// included, without re-parsing XML.
func (st *Store) WriteSnapshot(w io.Writer) error { return st.s.WriteSnapshot(w) }

// LoadStore reads a corpus snapshot written by Store.WriteSnapshot.
func LoadStore(r io.Reader) (*Store, error) {
	s, err := store.LoadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return &Store{s: s}, nil
}

// SaveSnapshotFile writes the corpus snapshot to path crash-safely: the
// bytes go to a temp file in the same directory, are fsynced, and are
// atomically renamed over path — a crash at any moment leaves either the
// old file or the new one, never a torn mixture.
func (st *Store) SaveSnapshotFile(path string) error { return st.s.SaveSnapshotFile(path) }

// LoadStoreFile reads a corpus snapshot file written by SaveSnapshotFile.
func LoadStoreFile(path string) (*Store, error) {
	s, err := store.LoadSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	return &Store{s: s}, nil
}

// BatchOptions configures one Store.Query batch.
type BatchOptions struct {
	// Engine selects the evaluation algorithm (default: EngineCompiled).
	Engine Engine
	// Workers bounds the worker pool (≤ 0 means GOMAXPROCS). One worker is
	// serial evaluation in ID order; any worker count produces the
	// identical BatchResult.
	Workers int
	// IDs restricts the batch to the given documents in the given order
	// (unknown IDs produce per-document errors); nil means every stored
	// document in sorted ID order.
	IDs []string
	// Tracer, when non-nil, receives the spans of every per-document
	// evaluation plus one KindBatchDoc span per document. One tracer serves
	// all workers at once, so it must be safe for concurrent use
	// (TraceRecorder is); nil costs nothing.
	Tracer Tracer
	// Budget, when non-nil, bounds the whole batch: every worker shares it,
	// each claimed document polls it before evaluating (a tripped budget
	// marks the remaining documents with the budget error), and a
	// budget-classed per-document failure cancels the siblings. Generic
	// per-document failures (unknown IDs, engine limits) stay isolated to
	// their document.
	Budget *Budget
}

// DocResult is the outcome of a batch query on one document.
type DocResult struct {
	// ID names the document within the store.
	ID string
	// Result is the evaluation result (nil when Err is set).
	Result *Result
	// Err is the per-document failure, if any; other documents of the
	// batch are unaffected.
	Err error
}

// BatchResult is the outcome of one Store.Query: per-document results in
// deterministic order plus aggregated statistics.
type BatchResult struct {
	// Docs holds one entry per selected document, in sorted ID order (or
	// the order of BatchOptions.IDs).
	Docs  []DocResult
	stats Stats
	errs  int
}

// Stats returns the instrumentation counters summed over the whole batch.
func (b *BatchResult) Stats() Stats { return b.stats }

// Errs returns the number of documents whose evaluation failed.
func (b *BatchResult) Errs() int { return b.errs }

// Query compiles src (through the process-wide plan cache) and fans it out
// across the selected documents on a bounded worker pool. The per-document
// results and their order are byte-identical for every worker count.
func (st *Store) Query(src string, opts BatchOptions) (*BatchResult, error) {
	q, err := CompileCached(src)
	if err != nil {
		return nil, err
	}
	raw, agg := st.s.Query(q.q, store.QueryOptions{
		Engine:  opts.Engine.impl(),
		Workers: opts.Workers,
		IDs:     opts.IDs,
		Tracer:  opts.Tracer,
		Budget:  opts.Budget,
	})
	out := &BatchResult{Docs: make([]DocResult, len(raw))}
	for i, r := range raw {
		dr := DocResult{ID: r.ID, Err: r.Err}
		if r.Err == nil {
			dr.Result = &Result{v: r.Value, stats: toStats(r.Stats)}
		} else {
			out.errs++
		}
		out.Docs[i] = dr
	}
	out.stats = toStats(agg)
	return out, nil
}

// ParallelOptions configures one EvaluateParallel call.
type ParallelOptions struct {
	// Engine selects the per-partition evaluation algorithm (default:
	// EngineCompiled).
	Engine Engine
	// Workers bounds the goroutine pool (≤ 0 means GOMAXPROCS).
	Workers int
	// ContextNode evaluates relative to this node (default: document root).
	ContextNode *Node
	// Tracer, when non-nil, receives the head evaluation's spans, one
	// KindSplit/KindMerge span when the parallel path is taken, and the
	// per-partition spans from every worker. The shared-tracer contract of
	// BatchOptions.Tracer applies.
	Tracer Tracer
	// Budget, when non-nil, bounds the whole call: the head evaluation and
	// every worker share it, and the first worker failure cancels it so the
	// siblings stop at their next check. Without one, a failure still cancels
	// the siblings through an internal cancellation token.
	Budget *Budget
}

// EvaluateParallel evaluates the query against one document by
// data-partitioning the outermost location step's result set across a
// bounded pool of goroutines, merging the per-partition node sets in
// document order. The result is identical to serial evaluation for every
// worker count: location-path semantics decompose per context node
// (predicates — position() and last() included — apply to per-node
// candidate lists, never across the partition boundary).
//
// Queries whose shape requires context tables spanning the whole context
// set — scalar expressions, filter-headed paths such as (//a)[2], unions,
// single-step paths — are detected and evaluated serially instead, so
// EvaluateParallel is safe to call on arbitrary queries.
func (q *Query) EvaluateParallel(doc *Document, opts ParallelOptions) (*Result, error) {
	ctx := rootContextFor(doc)
	if opts.ContextNode != nil {
		if opts.ContextNode.n.Document() != doc.tree {
			return nil, errContextForeignNode
		}
		ctx.Node = opts.ContextNode.n
	}
	ctx.Tracer = opts.Tracer
	ctx.Budget = opts.Budget
	v, st, _, err := store.EvaluateParallel(opts.Engine.impl(), q.q, doc.tree, ctx, opts.Workers)
	if err != nil {
		return nil, err
	}
	return &Result{v: v, stats: toStats(st)}, nil
}
