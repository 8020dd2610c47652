package store

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
	"weak"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/syntax"
	"repro/internal/trace"
	"repro/internal/values"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

func mustQuery(t *testing.T, src string) *syntax.Query {
	t.Helper()
	q, err := syntax.Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return q
}

func corpus(t *testing.T, n int) *Store {
	t.Helper()
	s := New()
	for i := 0; i < n; i++ {
		if err := s.Add(fmt.Sprintf("doc-%03d", i), workload.Scaled(60+i*7)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestAddGetRemove(t *testing.T) {
	s := New()
	if err := s.Add("", workload.Figure2()); err == nil {
		t.Error("Add with empty ID: want error")
	}
	if err := s.Add("x", nil); err == nil {
		t.Error("Add with nil document: want error")
	}
	if err := s.Add(strings.Repeat("x", maxIDLen+1), workload.Figure2()); err == nil {
		t.Error("Add with oversized ID: want error (snapshot would be unloadable)")
	}
	doc := workload.Figure2()
	if err := s.Add("fig2", doc); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("fig2")
	if !ok || got != doc {
		t.Fatalf("Get: %v %v", got, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("Get(missing): want !ok")
	}
	// Replacement keeps Len stable.
	if err := s.Add("fig2", workload.Doubling()); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len after replace: %d", s.Len())
	}
	if !s.Remove("fig2") || s.Remove("fig2") {
		t.Error("Remove: want true then false")
	}
	if s.Len() != 0 {
		t.Fatalf("Len after remove: %d", s.Len())
	}
}

func TestIDsSorted(t *testing.T) {
	s := corpus(t, 12)
	ids := s.IDs()
	if len(ids) != 12 {
		t.Fatalf("IDs: %d", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not sorted: %q >= %q", ids[i-1], ids[i])
		}
	}
}

// TestRemovedNamesCollectable: the canonical bytes of a label or attribute
// name are freed once every document carrying it has left the store and
// been dropped. A build that pins names, such as one global intern map,
// fails it. The names are 64 bytes or longer, so each canonical copy is an
// allocation of its own.
func TestRemovedNamesCollectable(t *testing.T) {
	s := New()
	label, attr := "churn"+strings.Repeat("l", 64), "churn"+strings.Repeat("n", 64)
	var names []weak.Pointer[byte]
	for i := 0; i < 8; i++ {
		doc := xmltree.MustParseString(fmt.Sprintf(`<%s %s="%d"><%s/></%s>`, label, attr, i, label, label))
		if err := s.Add(fmt.Sprintf("d%d", i), doc); err != nil {
			t.Fatal(err)
		}
		el := doc.Root().Children()[0]
		names = append(names,
			weak.Make(unsafe.StringData(el.Label())),
			weak.Make(unsafe.StringData(el.Attrs()[0].Name)))
	}
	for i := 0; i < 8; i++ {
		if !s.Remove(fmt.Sprintf("d%d", i)) {
			t.Fatalf("Remove(d%d): not present", i)
		}
	}
	// The runtime drops a canonical string in two steps (its handle, then
	// the table entry holding the bytes), so poll across several cycles.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		live := 0
		for _, w := range names {
			if w.Value() != nil {
				live++
			}
		}
		if live == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d name strings of removed documents are still reachable", live, len(names))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchQueryDeterministic: any worker count produces the identical
// per-document result sequence.
func TestBatchQueryDeterministic(t *testing.T) {
	s := corpus(t, 30)
	q := mustQuery(t, `//b[c = 100]/child::c`)
	eng := core.NewOptMinContext()
	ref, refStats := s.Query(q, QueryOptions{Engine: eng, Workers: 1})
	if len(ref) != 30 {
		t.Fatalf("batch size: %d", len(ref))
	}
	for _, workers := range []int{2, 4, 8, 33} {
		got, gotStats := s.Query(q, QueryOptions{Engine: eng, Workers: workers})
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: batch size %d", workers, len(got))
		}
		for i := range got {
			if got[i].ID != ref[i].ID || got[i].Err != nil ||
				values.Render(got[i].Value) != values.Render(ref[i].Value) {
				t.Errorf("workers=%d doc %s: %s vs %s", workers, ref[i].ID,
					values.Render(got[i].Value), values.Render(ref[i].Value))
			}
		}
		if gotStats != refStats {
			t.Errorf("workers=%d: stats %v vs %v", workers, gotStats, refStats)
		}
	}
}

// TestBatchQueryEngines: the batch layer agrees across evaluation engines.
func TestBatchQueryEngines(t *testing.T) {
	s := corpus(t, 10)
	q := mustQuery(t, `/child::a/child::b/child::d`)
	ref, _ := s.Query(q, QueryOptions{Engine: core.NewOptMinContext(), Workers: 4})
	got, _ := s.Query(q, QueryOptions{Engine: plan.New(), Workers: 4})
	for i := range ref {
		if values.Render(ref[i].Value) != values.Render(got[i].Value) {
			t.Errorf("doc %s: optmincontext %s vs compiled %s", ref[i].ID,
				values.Render(ref[i].Value), values.Render(got[i].Value))
		}
	}
}

// TestBatchQuerySubset: explicit ID selections keep their order and report
// unknown IDs as per-document errors in the right slots.
func TestBatchQuerySubset(t *testing.T) {
	s := corpus(t, 6)
	q := mustQuery(t, `count(//c)`)
	ids := []string{"doc-004", "doc-000", "nope", "doc-002"}
	res, _ := s.Query(q, QueryOptions{Engine: core.NewOptMinContext(), Workers: 3, IDs: ids})
	if len(res) != 4 {
		t.Fatalf("len: %d", len(res))
	}
	for i, id := range ids {
		if res[i].ID != id {
			t.Errorf("slot %d: %q want %q", i, res[i].ID, id)
		}
	}
	if res[2].Err == nil {
		t.Error("unknown ID: want error")
	}
	if res[0].Err != nil || res[1].Err != nil || res[3].Err != nil {
		t.Error("known IDs: want no error")
	}
}

// TestBatchUnknownIDSpans pins the tracing contract for erroring batches: a
// shared recorder must see exactly one KindBatchDoc span per selected
// document — unknown IDs included — so span count always equals len(Docs).
// It also pins the metrics side: unknown IDs evaluate nothing, so they must
// not feed the store.batch.queue_wait_ns histogram. (The first version
// skipped the span and observed the queue wait for nil-document entries, so
// a traced batch with erroring IDs undercounted documents versus Errs()
// while polluting the wait distribution.)
func TestBatchUnknownIDSpans(t *testing.T) {
	s := corpus(t, 4)
	q := mustQuery(t, `//c`)
	ids := []string{"doc-000", "ghost-a", "doc-002", "ghost-b", "doc-003"}
	rec := trace.NewRecorder()
	before := metrics.Default().Snapshot()
	res, _ := s.Query(q, QueryOptions{
		Engine: core.NewOptMinContext(), Workers: 2, IDs: ids, Tracer: rec,
	})
	delta := metrics.Default().Snapshot().Sub(before)
	if len(res) != len(ids) {
		t.Fatalf("len: %d want %d", len(res), len(ids))
	}
	var spans int64
	for _, row := range rec.Rows() {
		if row.Kind == trace.KindBatchDoc {
			spans += row.Calls
		}
	}
	if spans != int64(len(ids)) {
		t.Errorf("recorder saw %d batch-doc spans, want %d (one per selected document)", spans, len(ids))
	}
	for _, ghost := range []string{"ghost-a", "ghost-b"} {
		found := false
		for _, row := range rec.Rows() {
			if row.Kind == trace.KindBatchDoc && row.Name == ghost {
				found = true
			}
		}
		if !found {
			t.Errorf("no batch-doc span for unknown ID %q", ghost)
		}
	}
	if got := delta.Histograms["store.batch.queue_wait_ns"].Count; got != 3 {
		t.Errorf("queue_wait_ns observed %d items, want 3 (unknown IDs must not pollute the wait histogram)", got)
	}
}

// TestBatchQueryEmpty: an empty store yields an empty batch.
func TestBatchQueryEmpty(t *testing.T) {
	s := New()
	res, agg := s.Query(mustQuery(t, `//c`), QueryOptions{Engine: core.NewOptMinContext(), Workers: 8})
	if len(res) != 0 || (agg != engine.Stats{}) {
		t.Fatalf("empty store: %v %v", res, agg)
	}
}

// TestCorpusSnapshotRoundTrip: WriteSnapshot → LoadSnapshot preserves IDs,
// document content and query results.
func TestCorpusSnapshotRoundTrip(t *testing.T) {
	s := corpus(t, 9)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != s.Len() {
		t.Fatalf("Len: %d want %d", loaded.Len(), s.Len())
	}
	q := mustQuery(t, `//b[c = 100]/child::c`)
	eng := core.NewOptMinContext()
	want, _ := s.Query(q, QueryOptions{Engine: eng, Workers: 2})
	got, _ := loaded.Query(q, QueryOptions{Engine: eng, Workers: 2})
	for i := range want {
		if want[i].ID != got[i].ID ||
			values.Render(want[i].Value) != values.Render(got[i].Value) {
			t.Errorf("doc %s: %s vs %s", want[i].ID,
				values.Render(want[i].Value), values.Render(got[i].Value))
		}
	}
	// XML serialization survives too.
	d0, _ := s.Get("doc-000")
	l0, _ := loaded.Get("doc-000")
	if d0.XMLString() != l0.XMLString() {
		t.Error("XML round trip mismatch")
	}
}

func TestCorpusSnapshotBadInput(t *testing.T) {
	if _, err := LoadSnapshot(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("bad magic: want error")
	}
	if _, err := LoadSnapshot(bytes.NewReader(nil)); err == nil {
		t.Error("empty input: want error")
	}
}

// TestConcurrentStoreMutation: concurrent Add/Remove/Get/Query across
// goroutines — run under -race in CI.
func TestConcurrentStoreMutation(t *testing.T) {
	s := corpus(t, 20)
	q := mustQuery(t, `count(//d)`)
	eng := core.NewOptMinContext()
	stable := s.IDs() // batch over a fixed subset while other IDs churn
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := fmt.Sprintf("churn-%d-%d", g, i)
				if err := s.Add(id, workload.Doubling()); err != nil {
					t.Error(err)
					return
				}
				if _, ok := s.Get(id); !ok {
					t.Errorf("Get(%s) after Add: missing", id)
					return
				}
				res, _ := s.Query(q, QueryOptions{Engine: eng, Workers: 2, IDs: stable})
				if len(res) != len(stable) {
					t.Errorf("batch size %d want %d", len(res), len(stable))
					return
				}
				s.Remove(id)
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 20 {
		t.Fatalf("Len after churn: %d", s.Len())
	}
}

// TestUnknownLabelConcurrent: LabelSet on labels absent from the document
// must be read-only (the lazily-cached empty set used to be a data race
// under concurrent evaluation).
func TestUnknownLabelConcurrent(t *testing.T) {
	doc := workload.Figure2()
	q := mustQuery(t, `/descendant::zzz/child::yyy`)
	eng := core.NewOptMinContext()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := eng.Evaluate(q, doc, engine.RootContext(doc))
			if err != nil || v.Set.Len() != 0 {
				t.Errorf("unknown label: %v %v", v, err)
			}
		}()
	}
	wg.Wait()
}
