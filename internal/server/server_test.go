package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	xpath "repro"
	"repro/internal/workload"
)

// testStore builds a small corpus: fig2 (the paper's Figure 2 document)
// and two scaled documents.
func testStore(t *testing.T) *xpath.Store {
	t.Helper()
	st := xpath.NewStore()
	add := func(id string, doc *xpath.Document) {
		if err := st.Add(id, doc); err != nil {
			t.Fatalf("Add(%s): %v", id, err)
		}
	}
	add("fig2", xpath.WrapTree(workload.Figure2()))
	add("s10", xpath.WrapTree(workload.Scaled(10)))
	add("s20", xpath.WrapTree(workload.Scaled(20)))
	return st
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = testStore(t)
	}
	return New(cfg)
}

// do runs one request through the server and decodes a JSON response body.
func do(t *testing.T, s *Server, method, target string, body any, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, target, rd)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if out != nil && strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON response %q: %v", method, target, w.Body.String(), err)
		}
	}
	return w
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	var h HealthResponse
	w := do(t, s, http.MethodGet, "/healthz", nil, &h)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", w.Code)
	}
	if h.Status != "ok" || h.Documents != 3 {
		t.Fatalf("health = %+v, want ok/3", h)
	}
}

func TestQueryOK(t *testing.T) {
	s := newTestServer(t, Config{})
	var resp QueryResponse
	w := do(t, s, http.MethodPost, "/query",
		QueryRequest{ID: "fig2", Query: "/child::a/child::b"}, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if resp.Kind != "node-set" || resp.Count != 2 || len(resp.Nodes) != 2 {
		t.Fatalf("resp = %+v, want 2-node node-set", resp)
	}
	for _, n := range resp.Nodes {
		if n.Label != "b" {
			t.Fatalf("node label = %q, want b", n.Label)
		}
	}
	if resp.Engine != "compiled" {
		t.Fatalf("engine = %q, want the resolved default compiled", resp.Engine)
	}

	// The same source a second time must hit the process-wide source cache.
	var again QueryResponse
	do(t, s, http.MethodPost, "/query",
		QueryRequest{ID: "fig2", Query: "/child::a/child::b"}, &again)
	if !again.CacheHit {
		t.Fatalf("second request CacheHit = false, want true")
	}
}

func TestQueryScalarAndEngines(t *testing.T) {
	s := newTestServer(t, Config{})
	// corexpath is absent: count() is outside the Core XPath fragment (its
	// node-set path is covered by TestQueryTrace).
	for _, eng := range []string{"", "topdown", "bottomup", "compiled", "mincontext"} {
		var resp QueryResponse
		w := do(t, s, http.MethodPost, "/query",
			QueryRequest{ID: "fig2", Query: "count(/descendant-or-self::*)", Engine: eng}, &resp)
		if w.Code != http.StatusOK {
			t.Fatalf("engine %q: status = %d, body %s", eng, w.Code, w.Body.String())
		}
		if resp.Kind != "scalar" || resp.Value == "" {
			t.Fatalf("engine %q: resp = %+v, want scalar with value", eng, resp)
		}
	}
}

func TestQueryTrace(t *testing.T) {
	s := newTestServer(t, Config{DefaultEngine: xpath.EngineCoreXPath})
	var resp QueryResponse
	w := do(t, s, http.MethodPost, "/query",
		QueryRequest{ID: "fig2", Query: "/child::a/child::b", Trace: true}, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if !strings.Contains(resp.Trace, "child::b") {
		t.Fatalf("trace missing step span:\n%s", resp.Trace)
	}
}

func TestQueryLimit(t *testing.T) {
	s := newTestServer(t, Config{})
	var resp QueryResponse
	do(t, s, http.MethodPost, "/query",
		QueryRequest{ID: "s20", Query: "/descendant-or-self::*", Limit: 3}, &resp)
	if len(resp.Nodes) != 3 {
		t.Fatalf("len(nodes) = %d, want 3 (limited)", len(resp.Nodes))
	}
	if resp.Count <= 3 {
		t.Fatalf("count = %d, want full cardinality > limit", resp.Count)
	}
}

func TestQueryBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name string
		body any
		raw  string
		want int
	}{
		{name: "bad json", raw: "{", want: http.StatusBadRequest},
		{name: "unknown field", raw: `{"quarry": "/a"}`, want: http.StatusBadRequest},
		{name: "missing query", body: QueryRequest{ID: "fig2"}, want: http.StatusBadRequest},
		{name: "bad xpath", body: QueryRequest{ID: "fig2", Query: "/child::"}, want: http.StatusBadRequest},
		{name: "unknown engine", body: QueryRequest{ID: "fig2", Query: "/child::a", Engine: "warp"}, want: http.StatusBadRequest},
		{name: "unknown doc", body: QueryRequest{ID: "ghost", Query: "/child::a"}, want: http.StatusNotFound},
	}
	for _, tc := range cases {
		var w *httptest.ResponseRecorder
		if tc.raw != "" {
			req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(tc.raw))
			w = httptest.NewRecorder()
			s.ServeHTTP(w, req)
		} else {
			var e errorBody
			w = do(t, s, http.MethodPost, "/query", tc.body, &e)
			if e.Error == "" {
				t.Errorf("%s: error body missing", tc.name)
			}
		}
		if w.Code != tc.want {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, w.Code, tc.want, w.Body.String())
		}
	}
}

func TestRouterNotFoundAndMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, http.MethodGet, "/nope", nil, nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown path status = %d, want 404", w.Code)
	}
	w = do(t, s, http.MethodGet, "/query", nil, nil)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query status = %d, want 405", w.Code)
	}
	if allow := w.Header().Get("Allow"); allow != "POST" {
		t.Fatalf("Allow = %q, want POST", allow)
	}
}

// TestQueueFull pins the 429 behavior: with one worker and a depth-1
// queue, a parked worker plus one queued job makes the next admission
// bounce immediately.
func TestQueueFull(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	running := make(chan struct{})
	release := make(chan struct{})
	// Occupy the single worker...
	if err := s.pool.submit(func() {
		close(running)
		<-release
	}); err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-running
	// ...and fill the queue behind it.
	if err := s.pool.submit(func() {}); err != nil {
		t.Fatalf("submit filler: %v", err)
	}

	var e errorBody
	w := do(t, s, http.MethodPost, "/query",
		QueryRequest{ID: "fig2", Query: "/child::a"}, &e)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", w.Code, w.Body.String())
	}
	if e.Error == "" {
		t.Fatalf("429 body missing error field")
	}

	close(release)
	// After the drain the same request is admitted again.
	deadline := time.After(5 * time.Second)
	for {
		w = do(t, s, http.MethodPost, "/query",
			QueryRequest{ID: "fig2", Query: "/child::a"}, nil)
		if w.Code == http.StatusOK {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("server never recovered from queue-full, last status %d", w.Code)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestDraining pins the 503 behavior of a shutdown in progress.
func TestDraining(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	w := do(t, s, http.MethodPost, "/query",
		QueryRequest{ID: "fig2", Query: "/child::a"}, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/query while draining: status = %d, want 503", w.Code)
	}
	var h HealthResponse
	w = do(t, s, http.MethodGet, "/healthz", nil, &h)
	if w.Code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("/healthz while draining: status = %d body %+v, want 503/draining", w.Code, h)
	}
}

// TestTimeout pins the 504 behavior: the single worker is parked, so an
// admitted request outlives its budget in the queue.
func TestTimeout(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2, Timeout: 20 * time.Millisecond})
	running := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if err := s.pool.submit(func() {
		close(running)
		<-release
	}); err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-running
	w := do(t, s, http.MethodPost, "/query",
		QueryRequest{ID: "fig2", Query: "/child::a"}, nil)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", w.Code, w.Body.String())
	}
}

func TestBatch(t *testing.T) {
	s := newTestServer(t, Config{})
	var resp BatchResponse
	w := do(t, s, http.MethodPost, "/batch",
		BatchRequest{Query: "/descendant-or-self::b", IDs: []string{"fig2", "ghost", "s10"}}, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if len(resp.Docs) != 3 || resp.Errors != 1 {
		t.Fatalf("resp = %+v, want 3 docs with 1 error", resp)
	}
	if resp.Docs[0].ID != "fig2" || resp.Docs[0].Count != 2 {
		t.Fatalf("docs[0] = %+v, want fig2 count=2", resp.Docs[0])
	}
	if resp.Docs[1].ID != "ghost" || resp.Docs[1].Error == "" {
		t.Fatalf("docs[1] = %+v, want ghost error", resp.Docs[1])
	}

	// nil IDs means the whole corpus in sorted order.
	var all BatchResponse
	do(t, s, http.MethodPost, "/batch", BatchRequest{Query: "/child::a"}, &all)
	if len(all.Docs) != 3 || all.Errors != 0 {
		t.Fatalf("all-docs batch = %+v, want 3 docs no errors", all)
	}

	w = do(t, s, http.MethodPost, "/batch", BatchRequest{IDs: []string{"fig2"}}, nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("missing query: status = %d, want 400", w.Code)
	}
	w = do(t, s, http.MethodPost, "/batch", BatchRequest{Query: "/child::", IDs: []string{"fig2"}}, nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad query: status = %d, want 400", w.Code)
	}
}

func TestExplain(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, http.MethodGet, "/explain?q="+url.QueryEscape("/child::a/child::b"), nil, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	body := w.Body.String()
	if !strings.Contains(body, "child::a") || !strings.Contains(body, "plan") {
		t.Fatalf("explain output missing plan:\n%s", body)
	}

	w = do(t, s, http.MethodGet, "/explain?id=fig2&q="+url.QueryEscape("/child::a/child::b"), nil, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("analyze status = %d, body %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "calls=") {
		t.Fatalf("analyze output missing per-instruction annotations:\n%s", w.Body.String())
	}

	if w = do(t, s, http.MethodGet, "/explain", nil, nil); w.Code != http.StatusBadRequest {
		t.Fatalf("missing q: status = %d, want 400", w.Code)
	}
	if w = do(t, s, http.MethodGet, "/explain?q=%2Fchild%3A%3A", nil, nil); w.Code != http.StatusBadRequest {
		t.Fatalf("bad q: status = %d, want 400", w.Code)
	}
	if w = do(t, s, http.MethodGet, "/explain?id=ghost&q=%2Fchild%3A%3Aa", nil, nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown id: status = %d, want 404", w.Code)
	}
}

func TestStats(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	// Generate some traffic first so the counters are non-trivial.
	do(t, s, http.MethodPost, "/query", QueryRequest{ID: "fig2", Query: "/child::a"}, nil)

	var resp StatsResponse
	w := do(t, s, http.MethodGet, "/stats", nil, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if resp.Server.Documents != 3 || resp.Server.Workers != 2 || resp.Server.QueueCap != 8 {
		t.Fatalf("server stats = %+v", resp.Server)
	}
	var reg map[string]any
	if err := json.Unmarshal(resp.Metrics, &reg); err != nil {
		t.Fatalf("metrics block not JSON: %v", err)
	}

	w = do(t, s, http.MethodGet, "/stats?format=prometheus", nil, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("prometheus status = %d", w.Code)
	}
	if body := w.Body.String(); !strings.Contains(body, "# TYPE") || !strings.Contains(body, "server_requests") {
		t.Fatalf("prometheus body missing exposition lines:\n%.400s", body)
	}

	if w = do(t, s, http.MethodGet, "/stats?format=xml", nil, nil); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown format: status = %d, want 400", w.Code)
	}
}

// TestConcurrentQueryAndAdd drives /query while documents are added to the
// same store — the -race job's main target for this package.
func TestConcurrentQueryAndAdd(t *testing.T) {
	st := testStore(t)
	s := newTestServer(t, Config{Store: st, Workers: 4, QueueDepth: 64})
	const writers, readers, iters = 2, 4, 40

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if err := st.Add(id, xpath.WrapTree(workload.Scaled(5))); err != nil {
					t.Errorf("Add(%s): %v", id, err)
					return
				}
			}
		}(w)
	}
	for rr := 0; rr < readers; rr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				w := do(t, s, http.MethodPost, "/query",
					QueryRequest{ID: "fig2", Query: "/child::a/child::b"}, nil)
				// 429 is legitimate under pressure; anything else must be 200.
				if w.Code != http.StatusOK && w.Code != http.StatusTooManyRequests {
					t.Errorf("status = %d, body %s", w.Code, w.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
}
