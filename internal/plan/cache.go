package plan

import (
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/syntax"
	"repro/internal/trace"
)

// Process-wide plan-cache instruments (summed over every SourceCache of the
// process; per-cache views come from the Hits/Misses/Evictions accessors).
var (
	mSrcHits    = metrics.Default().Counter("plan.source_cache.hits")
	mSrcMisses  = metrics.Default().Counter("plan.source_cache.misses")
	mSrcErrHits = metrics.Default().Counter("plan.source_cache.error_hits")
	mSrcEvicts  = metrics.Default().Counter("plan.source_cache.evictions")
	mSrcLen     = metrics.Default().Gauge("plan.source_cache.len")
	mCompileNs  = metrics.Default().Histogram("plan.compile_ns")
)

// ProgramOf returns q's compiled program. The program is compiled on the
// first call and stored on q itself, so every later call — from any
// goroutine, any Engine, any cache — returns the same *Program, and the
// program lives exactly as long as its query. Compile itself always
// compiles afresh.
func ProgramOf(q *syntax.Query) (*Program, error) {
	v, err := q.Compiled(compileAny)
	p, _ := v.(*Program)
	return p, err
}

func compileAny(q *syntax.Query) (any, error) { return Compile(q) }

// cacheEntry is one SourceCache slot: the analyzed query, which carries its
// compiled program (ProgramOf).
type cacheEntry struct {
	q *syntax.Query

	// lastUsed is the cache's logical clock value at this entry's most
	// recent hit (or its insertion). It is updated under the cache's read
	// lock, so it must be atomic; eviction scans it under the write lock.
	lastUsed atomic.Int64
}

// SourceCache is a concurrency-safe compiled-plan cache keyed by query
// source text: repeated traffic for the same query string skips lexing,
// parsing, normalization, the Relev/fragment analyses and plan compilation
// entirely. Entries are immutable and shared; concurrent lookups of the
// same source converge on one entry. Sources that fail to compile enter a
// bounded negative cache, so a hot invalid query is rejected from memory
// instead of re-parsing on every request. It is the only plan cache: the
// compiled program itself lives on the cached query (ProgramOf).
//
// Sources compiled with variable bindings must not go through a
// SourceCache (the bindings are substituted into the tree, so source text
// alone does not identify the query).
type SourceCache struct {
	mu       sync.RWMutex
	cap      int
	m        map[string]*cacheEntry
	compiles atomic.Int64

	// errs is the negative cache: sources whose compilation failed, mapped
	// to the error the first compile produced. Without it a hot *invalid*
	// query re-lexes and re-parses on every request — a trivial degradation
	// vector for a server whose clients control the source text. Bounded by
	// the same capacity as the entry map; beyond it an arbitrary error is
	// dropped (errors are cheap to rediscover, the bound only prevents
	// unbounded growth under churning garbage sources).
	errs map[string]error

	// tick is the cache's logical clock: every hit and insert advances it
	// and stamps the entry, giving eviction a least-recently-used order
	// without promoting entries under the write lock.
	tick      atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	errorHits atomic.Int64
	evictions atomic.Int64
}

// NewSourceCache returns a cache bounded to roughly capacity entries
// (capacity <= 0 means a default of 1024).
func NewSourceCache(capacity int) *SourceCache {
	if capacity <= 0 {
		capacity = 1024
	}
	return &SourceCache{
		cap:  capacity,
		m:    make(map[string]*cacheEntry),
		errs: make(map[string]error),
	}
}

// Get returns the analyzed query for src, compiling it — syntax tree and
// program — and caching it on a miss. hit is true when the call was served
// from the cache without compiling anything: from the entry map (err nil)
// or from the negative cache (err non-nil). A miss that compiles emits one
// KindCompile span (named by the source) carrying the compile time; tr may
// be nil. Hits refresh the entry's recency stamp; when the cache is full,
// the least recently used entry is evicted to make room.
func (c *SourceCache) Get(src string, tr trace.Tracer) (q *syntax.Query, hit bool, err error) {
	c.mu.RLock()
	e := c.m[src]
	if e != nil {
		e.lastUsed.Store(c.tick.Add(1))
	}
	var cachedErr error
	if e == nil {
		cachedErr = c.errs[src]
	}
	c.mu.RUnlock()
	if e != nil {
		c.hits.Add(1)
		mSrcHits.Add(1)
		return e.q, true, nil
	}
	if cachedErr != nil {
		// Negative hit: the source is known-bad; hand back the original
		// error without re-lexing. Counted separately from hits and misses
		// (it is neither a served compilation nor compile work).
		c.errorHits.Add(1)
		mSrcErrHits.Add(1)
		return nil, true, cachedErr
	}
	c.misses.Add(1)
	mSrcMisses.Add(1)
	t0 := trace.Now()
	q, err = syntax.Compile(src)
	if err == nil {
		// Compile the program now, not on first evaluation: a plan error
		// enters the negative cache, and the compile time below covers it.
		_, err = ProgramOf(q)
	}
	if err != nil {
		c.storeError(src, err)
		return nil, false, err
	}
	// Count the compile only now: a parse/compile error above produced no
	// plan, so it must not inflate the compile counter.
	c.compiles.Add(1)
	compileNs := trace.Now() - t0
	mCompileNs.Observe(compileNs)
	if tr != nil {
		tr.Emit(trace.Event{
			Kind: trace.KindCompile, Name: src,
			In: trace.CardUnknown, Out: trace.CardUnknown, Ns: compileNs,
		})
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.m[src]; e != nil {
		e.lastUsed.Store(c.tick.Add(1))
		return e.q, false, nil // a concurrent miss won the race; converge on it
	}
	if len(c.m) >= c.cap {
		c.evictLRULocked()
	}
	fresh := &cacheEntry{q: q}
	fresh.lastUsed.Store(c.tick.Add(1))
	c.m[src] = fresh
	mSrcLen.Add(1)
	return q, false, nil
}

// storeError stores a compile failure in the bounded negative cache.
// Concurrent failures for one source race benignly — both errors carry the
// same message, either may win (first store kept).
func (c *SourceCache) storeError(src string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.errs[src]; ok {
		return
	}
	if len(c.errs) >= c.cap {
		for k := range c.errs {
			delete(c.errs, k)
			break
		}
	}
	c.errs[src] = err
}

// evictLRULocked removes the entry with the oldest recency stamp. The O(cap)
// scan runs only on insertion into a full cache — by then a compile (orders
// of magnitude more work) has already happened, so the scan is noise.
func (c *SourceCache) evictLRULocked() {
	var victim string
	found := false
	oldest := int64(1<<63 - 1)
	for k, e := range c.m {
		if lu := e.lastUsed.Load(); lu < oldest {
			oldest, victim, found = lu, k, true
		}
	}
	if found {
		delete(c.m, victim)
		c.evictions.Add(1)
		mSrcEvicts.Add(1)
		mSrcLen.Add(-1)
	}
}

// Contains reports whether src is cached, without refreshing its recency or
// touching the hit/miss counters (a pure peek, for tests and diagnostics).
func (c *SourceCache) Contains(src string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m[src] != nil
}

// Hits returns how many Gets were served from the cache.
func (c *SourceCache) Hits() int64 { return c.hits.Load() }

// Misses returns how many Gets had to compile.
func (c *SourceCache) Misses() int64 { return c.misses.Load() }

// ErrorHits returns how many Gets were answered from the negative cache —
// a known-bad source rejected without re-parsing. Counted separately from
// Hits and Misses.
func (c *SourceCache) ErrorHits() int64 { return c.errorHits.Load() }

// Evictions returns how many entries were displaced by capacity pressure.
func (c *SourceCache) Evictions() int64 { return c.evictions.Load() }

// Len returns the number of cached entries.
func (c *SourceCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Compiles returns how many cache misses compiled successfully (a source
// that fails to parse or plan counts zero — see ErrorHits). Concurrent
// first requests for one source may each compile (the losers' results are
// discarded at the store), so the count can exceed the number of distinct
// sources while they race — but once a source is cached, further Gets add
// nothing. The race tests pin exactly that: a warm cache serves any number
// of goroutines with zero new compilations.
func (c *SourceCache) Compiles() int64 { return c.compiles.Load() }
