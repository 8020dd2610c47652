package plan

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/syntax"
	"repro/internal/trace"
	"repro/internal/values"
	"repro/internal/workload"
)

// TestSourceCacheProperty: for every query in the workload matrix, a
// SourceCache hit must return the same query as the first miss, and
// evaluating the cached query must produce exactly the result of a cold
// compile — the plan-cache correctness property of EXPERIMENTS.md §E14.
func TestSourceCacheProperty(t *testing.T) {
	cache := NewSourceCache(0)
	doc := workload.Scaled(80)
	eng := New()
	for _, src := range workloadQueries() {
		cold, hit, err := cache.Get(src, nil)
		if err != nil || hit {
			t.Fatalf("cold Get(%q): hit=%v err=%v", src, hit, err)
		}
		warm, hit, err := cache.Get(src, nil)
		if err != nil || !hit {
			t.Fatalf("warm Get(%q): hit=%v err=%v", src, hit, err)
		}
		if warm != cold {
			t.Errorf("%q: cache hit returned a different query", src)
		}
		got, _, err := eng.Evaluate(cold, doc, engine.RootContext(doc))
		if err != nil {
			t.Fatalf("cached eval %q: %v", src, err)
		}
		freshQ := mustCompileQuery(t, src)
		want, _, err := New().Evaluate(freshQ, doc, engine.RootContext(doc))
		if err != nil {
			t.Fatalf("cold eval %q: %v", src, err)
		}
		if !values.Equal(got, want) {
			t.Errorf("%q: cached result %s != cold result %s",
				src, values.Render(got), values.Render(want))
		}
	}
}

// TestSourceCacheConcurrent: concurrent misses for the same source converge
// on one query; the cache never returns an error or a divergent plan under
// contention.
func TestSourceCacheConcurrent(t *testing.T) {
	cache := NewSourceCache(64)
	const goroutines = 16
	srcs := workloadQueries()
	var wg sync.WaitGroup
	entries := make([][]*syntax.Query, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			entries[g] = make([]*syntax.Query, len(srcs))
			for i, src := range srcs {
				e, _, err := cache.Get(src, nil)
				if err != nil {
					t.Errorf("Get(%q): %v", src, err)
					return
				}
				entries[g][i] = e
			}
		}(g)
	}
	wg.Wait()
	for i := range srcs {
		for g := 1; g < goroutines; g++ {
			if entries[g][i] != entries[0][i] {
				t.Errorf("%q: goroutines saw different cached queries", srcs[i])
			}
		}
	}
}

// TestSourceCacheBound: the cache stays within its capacity under churn.
func TestSourceCacheBound(t *testing.T) {
	cache := NewSourceCache(8)
	for i := 0; i < 50; i++ {
		if _, _, err := cache.Get(fmt.Sprintf(`/child::a[%d]`, i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := cache.Len(); n > 8 {
		t.Errorf("cache grew to %d entries, cap 8", n)
	}
}

// TestSourceCacheLRU pins the eviction policy: a full cache displaces its
// least recently used entry, never the hottest one. (The first version of
// this cache evicted an arbitrary map entry at capacity, so a full cache
// serving a hot working set could silently drop its hottest plan on any
// insert; the recency stamps make eviction deterministic.)
func TestSourceCacheLRU(t *testing.T) {
	cache := NewSourceCache(3)
	srcs := []string{`/child::a`, `/child::b`, `/child::c`}
	for _, src := range srcs {
		if _, _, err := cache.Get(src, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a and c so b is the least recently used entry.
	for _, src := range []string{srcs[0], srcs[2]} {
		if _, _, err := cache.Get(src, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := cache.Get(`/child::d`, nil); err != nil { // displaces exactly one entry
		t.Fatal(err)
	}
	if cache.Len() != 3 {
		t.Fatalf("cache has %d entries after eviction, want 3", cache.Len())
	}
	for _, want := range []string{srcs[0], srcs[2], `/child::d`} {
		if !cache.Contains(want) {
			t.Errorf("recently used %q was evicted", want)
		}
	}
	if cache.Contains(srcs[1]) {
		t.Errorf("LRU entry %q survived eviction", srcs[1])
	}
	if got := cache.Evictions(); got != 1 {
		t.Errorf("Evictions() = %d, want 1", got)
	}
}

// TestSourceCacheCounters checks the hit/miss accessors: misses equal the
// distinct sources compiled, hits the repeat traffic, and Contains is a
// pure peek (no counter movement, no recency refresh).
func TestSourceCacheCounters(t *testing.T) {
	cache := NewSourceCache(8)
	for i := 0; i < 3; i++ {
		if _, _, err := cache.Get(`/child::a`, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := cache.Get(`/child::b`, nil); err != nil {
		t.Fatal(err)
	}
	cache.Contains(`/child::a`)
	cache.Contains(`/child::zzz`)
	if h, m := cache.Hits(), cache.Misses(); h != 2 || m != 2 {
		t.Errorf("hits=%d misses=%d, want 2 and 2", h, m)
	}
	if cache.Evictions() != 0 {
		t.Errorf("Evictions() = %d, want 0", cache.Evictions())
	}
	if cache.Compiles() != 2 {
		t.Errorf("Compiles() = %d, want 2", cache.Compiles())
	}
}

// TestSourceCacheError: invalid queries never enter the entry map and keep
// failing, and — the regression this pins — a failed compile contributes
// nothing to the Compiles counter. The first version of the cache counted
// the compile before syntax.Compile ran, so a stream of parse errors
// inflated the counter without ever producing a plan.
func TestSourceCacheError(t *testing.T) {
	cache := NewSourceCache(8)
	if _, _, err := cache.Get(`//a[`, nil); err == nil {
		t.Fatal("invalid query must fail")
	}
	if cache.Len() != 0 {
		t.Error("failed compile entered the entry map")
	}
	if got := cache.Compiles(); got != 0 {
		t.Errorf("Compiles() = %d after a parse error, want 0 (no plan was produced)", got)
	}
	if got := cache.Misses(); got != 1 {
		t.Errorf("Misses() = %d, want 1", got)
	}
}

// TestSourceCacheNegative: a known-bad source is answered from the negative
// cache — the identical error value comes back (proof no re-parse happened)
// and the ErrorHits counter moves. A hot invalid query must not cost a lex
// and parse per request once it has failed once.
func TestSourceCacheNegative(t *testing.T) {
	cache := NewSourceCache(8)
	_, hit1, err1 := cache.Get(`//a[`, nil)
	if err1 == nil || hit1 {
		t.Fatalf("first Get(bad source) = hit=%v err=%v, want a compiling miss that fails", hit1, err1)
	}
	_, hit2, err2 := cache.Get(`//a[`, nil)
	if err2 == nil || !hit2 {
		t.Fatalf("second Get(bad source) = hit=%v err=%v, want a negative-cache hit", hit2, err2)
	}
	if err1 != err2 {
		t.Errorf("second Get re-parsed: got a fresh error %q, want the cached %q", err2, err1)
	}
	if got := cache.ErrorHits(); got != 1 {
		t.Errorf("ErrorHits() = %d, want 1", got)
	}
	if got := cache.Misses(); got != 1 {
		t.Errorf("Misses() = %d, want 1 (negative hits are not misses)", got)
	}
	if got := cache.Compiles(); got != 0 {
		t.Errorf("Compiles() = %d, want 0", got)
	}
	// A valid source afterwards compiles exactly once.
	if _, _, err := cache.Get(`/child::a`, nil); err != nil {
		t.Fatal(err)
	}
	if got := cache.Compiles(); got != 1 {
		t.Errorf("Compiles() = %d after one valid compile, want 1", got)
	}
	if _, hit, err := cache.Get(`/child::a`, nil); err != nil || !hit {
		t.Errorf("Get(warm source) = hit=%v err=%v, want hit", hit, err)
	}
}

// TestSourceCacheCompileSpan: a compiling miss emits exactly one
// KindCompile span named by the source; hits emit nothing.
func TestSourceCacheCompileSpan(t *testing.T) {
	cache := NewSourceCache(8)
	rec := trace.NewRecorder()
	for i := 0; i < 3; i++ {
		if _, _, err := cache.Get(`/child::a`, rec); err != nil {
			t.Fatal(err)
		}
	}
	rows := rec.Rows()
	if len(rows) != 1 || rows[0].Kind != trace.KindCompile || rows[0].Name != `/child::a` || rows[0].Calls != 1 {
		t.Errorf("spans = %+v, want one KindCompile call named /child::a", rows)
	}
}

// TestProgramOfConcurrent: goroutines racing to compile one fresh query all
// get the same program (run under -race, this also checks the slot on
// syntax.Query publishes it safely).
func TestProgramOfConcurrent(t *testing.T) {
	q := mustCompileQuery(t, `/descendant::b[child::d]/child::c[position() = last()]`)
	const goroutines = 16
	progs := make([]*Program, goroutines)
	var wg sync.WaitGroup
	for g := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := ProgramOf(q)
			if err != nil {
				t.Error(err)
			}
			progs[g] = p
		}()
	}
	wg.Wait()
	for g, p := range progs {
		if p == nil || p != progs[0] {
			t.Fatalf("goroutine %d got program %p, goroutine 0 got %p", g, p, progs[0])
		}
	}
}

// TestProgramOfSurvivesChurn: a query keeps its program however many other
// queries compile in between — more than any bounded cache would hold.
func TestProgramOfSurvivesChurn(t *testing.T) {
	q := mustCompileQuery(t, `/descendant::b[child::d]/child::c`)
	first, err := ProgramOf(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2048; i++ {
		if _, err := ProgramOf(mustCompileQuery(t, fmt.Sprintf(`/child::a[%d]`, i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if again, err := ProgramOf(q); err != nil || again != first {
		t.Errorf("ProgramOf after churn = %p, %v; want the first program %p", again, err, first)
	}
}

// TestSourceCacheNegativeBound: the negative cache honors the capacity
// bound under a churn of distinct garbage sources.
func TestSourceCacheNegativeBound(t *testing.T) {
	cache := NewSourceCache(8)
	for i := 0; i < 50; i++ {
		if _, _, err := cache.Get(fmt.Sprintf(`//a[%d`, i), nil); err == nil {
			t.Fatal("invalid query must fail")
		}
	}
	cache.mu.RLock()
	n := len(cache.errs)
	cache.mu.RUnlock()
	if n > 8 {
		t.Errorf("negative cache grew to %d entries, cap 8", n)
	}
}

// TestConcurrentEvaluation: one engine, one plan, many goroutines — the VM
// pool must hand out independent machines.
func TestConcurrentEvaluation(t *testing.T) {
	e := New()
	doc := workload.Scaled(120)
	q := mustCompileQuery(t, `/descendant::b[child::d]/child::c[position() = last()]`)
	want, _, err := e.Evaluate(q, doc, engine.RootContext(doc))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				got, _, err := e.Evaluate(q, doc, engine.RootContext(doc))
				if err != nil {
					t.Error(err)
					return
				}
				if !values.Equal(got, want) {
					t.Errorf("concurrent run diverged: %s", values.Render(got))
					return
				}
			}
		}()
	}
	wg.Wait()
}
