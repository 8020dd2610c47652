package store

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/values"
	"repro/internal/xmltree"
)

// These tests pin the mutation layer's concurrency promise under -race:
// Replace and Remove may run against live query traffic — batch Query,
// EvaluateParallel, WriteSnapshot — and every reader observes some
// complete document version (old or new), never a torn state. Documents
// are immutable from the moment they are built and the store never writes
// to one, so the same instance may be added to any number of stores, or
// added again, while it is being evaluated.

// TestSharedDocumentAddedConcurrently: one parsed document is added to two
// stores while a third goroutine evaluates and serializes it.
func TestSharedDocumentAddedConcurrently(t *testing.T) {
	doc := xmltree.MustParseString(`<a id="r">` + bigChildren(50) + `</a>`)
	q := mustQuery(t, `count(/descendant::b[child::c])`)
	eng := core.NewOptMinContext()
	stores := []*Store{New(), New()}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := s.Add("shared", doc); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 10; i++ {
			v, _, err := eng.Evaluate(q, doc, engine.RootContext(doc))
			if err != nil || v.Num != 50 {
				t.Errorf("evaluate: %v, %v", values.Render(v), err)
				return
			}
			if err := doc.WriteSnapshot(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	for i, s := range stores {
		if d, ok := s.Get("shared"); !ok || d != doc {
			t.Errorf("store %d: shared document not stored", i)
		}
	}
}

func TestReplaceConcurrentWithQuery(t *testing.T) {
	s := corpus(t, 8)
	q := mustQuery(t, `count(//b)`)
	eng := core.NewOptMinContext()
	ids := s.IDs()
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 30; i++ {
				id := ids[(g*7+i)%len(ids)]
				doc := xmltree.MustParseString(fmt.Sprintf(`<a><b>%d</b><b>%d</b></a>`, g, i))
				if _, err := s.Replace(id, doc); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	go func() { writers.Wait(); close(stop) }()
	for {
		select {
		case <-stop:
			return
		default:
		}
		res, _ := s.Query(q, QueryOptions{Engine: eng, Workers: 2, IDs: ids})
		for _, r := range res {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
}

func TestRemoveConcurrentWithEvaluateParallel(t *testing.T) {
	s := New()
	// One big shared document under parallel evaluation while unrelated IDs
	// churn through Replace/Remove.
	shared := xmltree.MustParseString(`<a>` + bigChildren(200) + `</a>`)
	if err := s.Add("shared", shared); err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, `/descendant::b/child::c`)
	eng := core.NewOptMinContext()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := fmt.Sprintf("churn-%d", g)
				doc := xmltree.MustParseString(fmt.Sprintf(`<a><b><c>%d</c></b></a>`, i))
				if _, err := s.Replace(id, doc); err != nil {
					t.Error(err)
					return
				}
				s.Remove(id)
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				d, _ := s.Get("shared")
				ctx := engine.RootContext(d)
				v, _, _, err := EvaluateParallel(eng, q, d, ctx, 4)
				if err != nil {
					t.Error(err)
					return
				}
				if v.Set.Len() != 200 {
					t.Errorf("cardinality %d want 200", v.Set.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
}

func bigChildren(n int) string {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<b><c>%d</c></b>", i)
	}
	return b.String()
}

// TestWriteSnapshotConcurrentWithReplace: a snapshot taken under write
// traffic must be a clean linearization — it loads without error and every
// document it holds is some complete version a writer produced.
func TestWriteSnapshotConcurrentWithReplace(t *testing.T) {
	s := New()
	const docs = 6
	for i := 0; i < docs; i++ {
		if err := s.Add(fmt.Sprintf("d%d", i), xmltree.MustParseString(`<r><v>init</v></r>`)); err != nil {
			t.Fatal(err)
		}
	}
	valid := regexp.MustCompile(`^<r><v>(init|g\d+-\d+)</v></r>$`)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("d%d", (g+i)%docs)
				doc := xmltree.MustParseString(fmt.Sprintf(`<r><v>g%d-%d</v></r>`, g, i))
				if _, err := s.Replace(id, doc); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for snap := 0; snap < 5; snap++ {
		var buf bytes.Buffer
		if err := s.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("snapshot under write traffic does not load: %v", err)
		}
		if loaded.Len() != docs {
			t.Fatalf("snapshot Len %d want %d", loaded.Len(), docs)
		}
		for _, id := range loaded.IDs() {
			d, _ := loaded.Get(id)
			if !valid.MatchString(d.XMLString()) {
				t.Fatalf("torn document %q: %s", id, d.XMLString())
			}
		}
	}
	close(stop)
	wg.Wait()
}
