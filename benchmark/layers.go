package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	xpath "repro"
	"repro/internal/axes"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/syntax"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// The traced phase measures the layers from outside: it replays the first
// requests of the timed stream serially — over the socket, through the
// handler, and through a ladder of the public calls the handler makes, with
// a span round each — and then times single calls into each package. The
// served program has no spans of its own yet; when it has, they replace the
// ladder.

// span is one timed call. Spans of one request share req; parent names the
// span that caused this one.
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans in memory until the phase ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// call times f as a child span of the request's root span.
func (t *tracer) call(req int, name string, f func()) {
	start := time.Since(t.t0)
	f()
	t.spans = append(t.spans, span{req, name, "request", int64(start), int64(time.Since(t.t0))})
}

// The handler's own limits, which server.New fills in for a zero Config and
// does not export. The ladder has to use the same ones; replay compares the
// nodes it materializes with the handler's, so a changed limit is an error
// and not a ladder that silently measures something else.
const (
	defaultTimeout  = 10 * time.Second
	defaultMaxNodes = 1000
	maxNodeValueLen = 120
)

// ladder does what handleQuery does for one request, with public calls
// only, and returns the response it would have sent.
func (t *tracer) ladder(s *served, req int, body []byte) (server.QueryResponse, xpath.Stats, error) {
	var (
		qr    server.QueryRequest
		doc   *xpath.Document
		q     *xpath.Query
		hit   bool
		res   *xpath.Result
		resp  server.QueryResponse
		found bool
		err   error
	)
	start := time.Since(t.t0)
	t.call(req, "server.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&qr)
	})
	if err != nil {
		return resp, xpath.Stats{}, err
	}
	t.call(req, "store.get", func() { doc, found = s.store.Get(qr.ID) })
	if !found {
		return resp, xpath.Stats{}, fmt.Errorf("no document %q", qr.ID)
	}
	t.call(req, "plan.cache", func() { q, hit, err = xpath.CompileCachedTraced(qr.Query, nil) })
	if err != nil {
		return resp, xpath.Stats{}, err
	}
	t.call(req, "core.eval", func() {
		bud := xpath.NewBudget(xpath.BudgetLimits{Deadline: defaultTimeout})
		res, err = q.EvaluateWith(doc, xpath.Options{Engine: s.engine, Budget: bud})
	})
	if err != nil {
		return resp, xpath.Stats{}, err
	}
	t.call(req, "server.materialize", func() {
		st := res.Stats()
		resp = server.QueryResponse{
			ID: qr.ID, Engine: s.engine.String(), Kind: "scalar", CacheHit: hit,
			Stats: server.StatsJSON{TableCells: st.TableCells, ContextsEvaluated: st.ContextsEvaluated, AxisCalls: st.AxisCalls},
		}
		if !res.IsNodeSet() {
			resp.Value = res.Text()
			return
		}
		nodes := res.Nodes()
		resp.Kind, resp.Count = "node-set", len(nodes)
		nodes = nodes[:min(len(nodes), defaultMaxNodes)]
		resp.Nodes = make([]server.NodeJSON, len(nodes))
		for i, n := range nodes {
			v := n.StringValue()
			if len(v) > maxNodeValueLen {
				v = v[:maxNodeValueLen-3] + "..."
			}
			resp.Nodes[i] = server.NodeJSON{Pre: n.Pre(), Label: n.Label(), Value: v}
		}
	})
	t.call(req, "server.encode", func() {
		var buf bytes.Buffer
		err = json.NewEncoder(&buf).Encode(resp)
	})
	t.spans = append(t.spans, span{Req: req, Name: "request", Start: int64(start), End: int64(time.Since(t.t0))})
	return resp, res.Stats(), err
}

// perCall returns the time of one call of f in ns: the median over batches
// of calls that fill the budget. The batch is sized so that reading the
// clock is a small part of it.
func perCall(budget time.Duration, f func(i int)) float64 {
	t0 := time.Now()
	f(0)
	batch := int(max(1, 50*time.Microsecond/max(time.Since(t0), 1)))
	var per []float64
	i := 1
	for end := time.Now().Add(budget); len(per) < 3 || time.Now().Before(end); {
		b0 := time.Now()
		for k := 0; k < batch; k++ {
			f(i)
			i++
		}
		per = append(per, float64(time.Since(b0))/float64(batch))
	}
	return median(per)
}

// perItem runs whole passes over n items until the budget has passed and
// returns the time of every call in ns. Whole passes keep the mix of cheap
// and dear items the same whatever the budget allows.
func perItem(budget time.Duration, n int, f func(i int)) []float64 {
	var ns []float64
	for end := time.Now().Add(budget); len(ns) == 0 || time.Now().Before(end); {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			f(i)
			ns = append(ns, float64(time.Since(t0)))
		}
	}
	return ns
}

// firstErr keeps the first error of many timed calls.
type firstErr struct{ err error }

func (f *firstErr) note(err error) {
	if f.err == nil {
		f.err = err
	}
}

// probe is the state the parts of the traced phase share: the replayed
// requests and the map the metrics go into.
type probe struct {
	l      *load
	ops    []op     // the first /query requests of the reader's stream
	bodies [][]byte // their request bodies
	srcs   []string // their distinct query texts, in stream order
	budget time.Duration
	m      map[string]float64
}

// traced returns the per-layer metrics that come from replaying k requests
// and from single calls, plus how many replayed answers it checked and how
// many were wrong.
func traced(l *load, k int, layerBudget time.Duration, outDir string) (m map[string]float64, checked, wrong int, err error) {
	p := &probe{l: l, budget: layerBudget, m: map[string]float64{}}
	for i := 0; len(p.ops) < k; i++ {
		if o := l.in.stream(l.in.reader, i); o.kind == opQuery {
			p.ops = append(p.ops, o)
			p.bodies = append(p.bodies, queryBody(l.in.ids[o.doc], o.src))
		}
	}
	p.srcs = distinct(p.ops)
	if checked, wrong, err = p.replay(outDir); err != nil {
		return nil, 0, 0, err
	}
	// The rest are single calls into one package each, on this workload's
	// own documents and query texts.
	if err := p.compileCalls(); err != nil {
		return nil, 0, 0, err
	}
	if err := p.evalCalls(); err != nil {
		return nil, 0, 0, fmt.Errorf("evaluation in the traced phase: %w", err)
	}
	if err := p.documentCalls(); err != nil {
		return nil, 0, 0, err
	}
	if err := ingest(p.m, l.in, filepath.Join(outDir, fmt.Sprintf("%s-%d-layers", l.in.name, os.Getpid()))); err != nil {
		return nil, 0, 0, err
	}
	return p.m, checked, wrong, nil
}

// replay sends the requests one at a time three ways, checks every answer,
// and derives the handler's ladder from the spans of the third.
func (p *probe) replay(outDir string) (checked, wrong int, err error) {
	s, m, k := p.l.s, p.m, len(p.ops)
	check := func(i int, got answer, ok bool) {
		checked++
		if !ok || !p.l.verify(p.ops[i], got) {
			wrong++
		}
	}

	// (a) Over the socket, as the timed clients did.
	c := newClient(s.url)
	defer c.close()
	socket := make([]float64, k)
	evictions := metrics.Default().Counter("plan.source_cache.evictions")
	ev0 := evictions.Value()
	for i := range p.ops {
		t0 := time.Now()
		status, body, err := c.do(http.MethodPost, "/query", p.bodies[i])
		socket[i] = float64(time.Since(t0))
		got, ok := parseAnswer(status, body, err)
		check(i, got, ok)
	}
	// Exact for a given seed: the replay is serial and the cache was primed.
	m["plan.cache_evictions_per_kreq"] = float64(evictions.Value()-ev0) * 1000 / float64(k)

	// (b) Through the handler without the socket.
	handler := make([]float64, k)
	sent := make([]int, k) // nodes in the handler's response
	serve := func(i int) (*httptest.ResponseRecorder, time.Duration) {
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(p.bodies[i]))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		s.srv.ServeHTTP(rec, req)
		return rec, time.Since(t0)
	}
	for i := range p.ops {
		rec, took := serve(i)
		handler[i] = float64(took)
		got, ok := parseAnswer(rec.Code, rec.Body.Bytes(), nil)
		check(i, got, ok)
		var full server.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
			return 0, 0, fmt.Errorf("replay %d: %w", i, err)
		}
		if full.Engine != s.engine.String() {
			return 0, 0, fmt.Errorf("replay %d: answered by engine %q, the first request by %q", i, full.Engine, s.engine)
		}
		sent[i] = len(full.Nodes)
	}

	// (c) Through the ladder, a span round every call.
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, 7*k)}
	var stats xpath.Stats
	for i := range p.ops {
		resp, st, err := tr.ladder(s, i, p.bodies[i])
		check(i, response{resp.Kind, resp.Count, resp.Value}.answer(), err == nil)
		if err == nil && len(resp.Nodes) != sent[i] {
			return 0, 0, fmt.Errorf("replay %d: the ladder materializes %d nodes, the handler sent %d: the ladder no longer does what handleQuery does",
				i, len(resp.Nodes), sent[i])
		}
		stats.TableCells += st.TableCells
		stats.ContextsEvaluated += st.ContextsEvaluated
		stats.AxisCalls += st.AxisCalls
	}
	if err := writeSpans(traceFile(outDir, p.l.in.name), tr.spans); err != nil {
		return 0, 0, err
	}
	byName := map[string][]float64{}
	ladder := make([]float64, k)    // sum of the request's child spans
	ladderAll := make([]float64, k) // the request's root span, span keeping included
	for _, sp := range tr.spans {
		d := float64(sp.End - sp.Start)
		if sp.Parent == "" {
			ladderAll[sp.Req] = d
			continue
		}
		byName[sp.Name] = append(byName[sp.Name], d)
		ladder[sp.Req] += d
	}
	// Per request, because the three passes see the same request i: a
	// median over requests ignores the ones a busy machine stretched.
	self, wire := make([]float64, k), make([]float64, k)
	explained, overhead := make([]float64, k), make([]float64, k)
	for i := range p.ops {
		self[i] = handler[i] - ladder[i]
		wire[i] = socket[i] - handler[i]
		explained[i] = ladder[i] / handler[i]
		overhead[i] = ladderAll[i] / handler[i]
	}
	m["server.decode_us"] = median(byName["server.decode"]) / 1e3
	m["server.materialize_us"] = median(byName["server.materialize"]) / 1e3
	m["server.encode_us"] = median(byName["server.encode"]) / 1e3
	m["core.eval_us"] = median(byName["core.eval"]) / 1e3
	m["server.handler_us"] = median(handler) / 1e3
	m["server.handler_self_us"] = median(self) / 1e3
	m["server.socket_us"] = median(wire) / 1e3
	m["ladder.sum_over_handler"] = median(explained)
	m["server.unattributed_share"] = 1 - m["ladder.sum_over_handler"]
	m["trace.overhead_ratio"] = median(overhead)
	m["core.table_cells"] = float64(stats.TableCells)
	m["core.contexts"] = float64(stats.ContextsEvaluated)
	m["core.axis_calls"] = float64(stats.AxisCalls)
	m["server.allocs_per_query"] = testing.AllocsPerRun(min(k, 256), cycle(k, func(i int) { serve(i) }))
	return checked, wrong, nil
}

// compileCalls times parsing, plan compilation and the plan cache on the
// replay's query texts.
func (p *probe) compileCalls() error {
	srcs, m := p.srcs, p.m
	var failed firstErr
	m["syntax.compile_us"] = perCall(p.budget, func(i int) {
		_, err := syntax.Compile(srcs[i%len(srcs)])
		failed.note(err)
	}) / 1e3
	parsed := make([]*syntax.Query, min(len(srcs), 256))
	for i := range parsed {
		var err error
		parsed[i], err = syntax.Compile(srcs[i])
		failed.note(err)
	}
	if failed.err != nil {
		return failed.err
	}
	m["plan.compile_us"] = perCall(p.budget, func(i int) {
		_, err := plan.Compile(parsed[i%len(parsed)])
		failed.note(err)
	}) / 1e3
	if failed.err != nil {
		return failed.err
	}

	// The replay left its last texts in the cache, at most planCacheCap.
	cached := srcs[max(0, len(srcs)-128):]
	hits := true
	m["plan.cache_hit_us"] = perCall(p.budget, func(i int) {
		_, hit, _ := xpath.CompileCachedTraced(cached[i%len(cached)], nil)
		hits = hits && hit
	}) / 1e3
	// A text followed by spaces compiles to the same plan under a new cache
	// key. 256 of them stay below the cache's capacity, so on a workload of
	// repeated texts nothing that is needed gets evicted.
	misses := true
	m["plan.cache_miss_us"] = median(perItem(0, 256, func(i int) {
		_, hit, _ := xpath.CompileCachedTraced(srcs[i%len(srcs)]+strings.Repeat(" ", int(missProbes.Add(1))), nil)
		misses = misses && !hit
	})) / 1e3
	if !hits || !misses {
		return fmt.Errorf("plan cache probes: hits as expected %v, misses as expected %v", hits, misses)
	}
	return p.l.in.prime()
}

// evalCalls times the engines on the replay's (document, query) pairs.
func (p *probe) evalCalls() error {
	s, m := p.l.s, p.m
	var failed firstErr
	pairs := make([]pair, min(len(p.ops), 512))
	for i := range pairs {
		o := p.ops[i]
		pairs[i].doc, _ = s.store.Get(p.l.in.ids[o.doc])
		pairs[i].id = o.doc
		var err error
		if pairs[i].q, err = xpath.CompileCached(o.src); err != nil {
			return err
		}
	}
	eval := func(ps []pair, opts func() xpath.Options) func(i int) {
		return func(i int) {
			_, err := ps[i].q.EvaluateWith(ps[i].doc, opts())
			failed.note(err)
		}
	}

	// The same pairs in stream order, where every call meets another
	// document, and grouped by document.
	grouped := append([]pair(nil), pairs...)
	sort.SliceStable(grouped, func(a, b int) bool { return grouped[a].id < grouped[b].id })
	compiled := func() xpath.Options { return xpath.Options{Engine: xpath.EngineCompiled} }
	m["plan.eval_compiled_us"] = median(perItem(p.budget, len(pairs), eval(pairs, compiled))) / 1e3
	m["plan.eval_compiled_same_doc_us"] = median(perItem(p.budget, len(grouped), eval(grouped, compiled))) / 1e3
	m["plan.allocs_compiled_rotating"] = testing.AllocsPerRun(len(pairs), cycle(len(pairs), eval(pairs, compiled)))
	m["plan.allocs_compiled_same_doc"] = testing.AllocsPerRun(len(grouped), cycle(len(grouped), eval(grouped, compiled)))

	few := pairs[:min(len(pairs), 128)]
	served := eval(few, func() xpath.Options {
		return xpath.Options{Engine: s.engine, Budget: xpath.NewBudget(xpath.BudgetLimits{Deadline: defaultTimeout})}
	})
	m["core.allocs_per_eval"] = testing.AllocsPerRun(len(few), cycle(len(few), served))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range few {
		served(i)
	}
	runtime.ReadMemStats(&ms1)
	m["core.bytes_per_eval"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(few))

	var corePairs []pair
	for _, pr := range pairs {
		if pr.q.Fragment() == xpath.CoreXPath {
			corePairs = append(corePairs, pr)
		}
	}
	m["corexpath.eval_us"] = 0 // no Core XPath query in this stream
	if len(corePairs) > 0 {
		linear := func() xpath.Options { return xpath.Options{Engine: xpath.EngineCoreXPath} }
		m["corexpath.eval_us"] = median(perItem(p.budget, len(corePairs), eval(corePairs, linear))) / 1e3
	}
	return failed.err
}

// documentCalls times what works on one document or on the store: string
// values, axis kernels, parallel evaluation, lookups and batches.
func (p *probe) documentCalls() error {
	in, s, m := p.l.in, p.l.s, p.m
	var biggest *xpath.Document
	nodesTotal, topology := 0, int64(0)
	for _, id := range in.ids {
		doc, _ := s.store.Get(id)
		if biggest == nil || doc.Size() > biggest.Size() {
			biggest = doc
		}
		nodesTotal += doc.Size()
		topology += doc.Tree().Topology().Bytes()
	}
	m["xmltree.topology_bytes_per_node"] = float64(topology) / float64(nodesTotal)
	axisKernels(m, biggest.Tree(), p.budget/4)

	// Materialization reads the string value of up to 1000 nodes a response.
	all, err := xpath.MustCompile(`/descendant::*`).Evaluate(biggest)
	if err != nil {
		return err
	}
	nodes := all.Nodes()
	m["xmltree.strval_ns"] = perCall(p.budget/4, func(i int) { _ = nodes[i%len(nodes)].StringValue() })

	var failed firstErr
	core0 := xpath.MustCompile(workload.CoreQueries()[0])
	serial := perCall(p.budget, func(int) {
		_, err := core0.Evaluate(biggest)
		failed.note(err)
	})
	parallel := perCall(p.budget, func(int) {
		_, err := core0.EvaluateParallel(biggest, xpath.ParallelOptions{Workers: runtime.NumCPU()})
		failed.note(err)
	})
	m["store.parallel_speedup"] = serial / parallel

	m["store.get_ns"] = perCall(p.budget/4, func(i int) { s.store.Get(in.ids[i%len(in.ids)]) })
	window := in.ids[:min(batchWindow, in.queried())]
	reg0 := metrics.Default().Snapshot()
	m["store.batch_us_per_doc"] = perCall(p.budget, func(i int) {
		_, err := s.store.Query(p.srcs[i%min(len(p.srcs), 16)], xpath.BatchOptions{IDs: window})
		failed.note(err)
	}) / 1e3 / float64(len(window))
	m["store.batch_queue_wait_us"] = metrics.Default().Snapshot().Sub(reg0).Histograms["store.batch.queue_wait_ns"].Mean() / 1e3
	return failed.err
}

// missProbes numbers the texts of the cache-miss probe, so that no two in
// one process are alike: the plan cache is global to the process.
var missProbes atomic.Int32

// pair is one evaluation of the replay: a cached query on a stored document.
type pair struct {
	doc *xpath.Document
	id  int
	q   *xpath.Query
}

// cycle adapts f(i) for testing.AllocsPerRun: call j runs f(j mod n).
func cycle(n int, f func(i int)) func() {
	j := 0
	return func() { f(j % n); j++ }
}

// distinct returns the query texts of ops, each once, in stream order.
func distinct(ops []op) []string {
	seen := map[string]bool{}
	var out []string
	for _, o := range ops {
		if !seen[o.src] {
			seen[o.src] = true
			out = append(out, o.src)
		}
	}
	return out
}

func traceFile(outDir, workload string) string {
	return filepath.Join(outDir, workload+".trace.json")
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// axisKernels times the set-at-a-time kernels on one document, from the set
// of its b elements (every corpus document has them).
func axisKernels(m map[string]float64, tree *xmltree.Document, budget time.Duration) {
	set := func(label string) *xmltree.Set {
		if id, ok := tree.LabelIDOf(label); ok {
			return tree.LabelSetByID(id)
		}
		return xmltree.NewSet(tree)
	}
	x, test := set("b"), set("c")
	dst, sc := xmltree.NewSet(tree), axes.NewScratch()
	defer sc.Release()
	kernels := []axes.Axis{axes.Descendant, axes.Following, axes.Ancestor, axes.FollowingSibling}
	for _, a := range kernels {
		m["axes."+a.String()+"_us"] = perCall(budget, func(int) { axes.ApplyInto(dst, a, x, sc) }) / 1e3
	}
	m["axes.step_test_us"] = perCall(budget, func(int) { axes.ApplyTest(dst, axes.Descendant, x, test, sc) }) / 1e3
	m["axes.allocs"] = testing.AllocsPerRun(10, func() {
		for _, a := range kernels {
			axes.ApplyInto(dst, a, x, sc)
		}
		axes.ApplyTest(dst, axes.Descendant, x, test, sc)
	})
}

// ingestDocs bounds how many documents the write-side measurements use.
const ingestDocs = 64

// ingest measures the write side on this workload's own documents: parsing,
// document snapshots, the in-memory swap, and a durable store of its own in
// dir — WAL append and fsync, compaction, and reopening from a WAL and from
// a snapshot.
func ingest(m map[string]float64, in *inputs, dir string) error {
	n := min(len(in.ids), ingestDocs)
	xmlBytes := 0
	// parse returns fresh instances: a store takes over a document's labels.
	parse := func() ([]*xpath.Document, error) {
		docs := make([]*xpath.Document, n)
		for i := range docs {
			var err error
			if docs[i], err = xpath.ParseDocument(bytes.NewReader(in.xml[i][0])); err != nil {
				return nil, err
			}
		}
		return docs, nil
	}
	for i := 0; i < n; i++ {
		xmlBytes += len(in.xml[i][0])
	}

	base := heapAlloc()
	t0 := time.Now()
	docs, err := parse()
	if err != nil {
		return err
	}
	m["xmltree.parse_mb_s"] = float64(xmlBytes) / 1e6 / time.Since(t0).Seconds()
	nodes := 0
	for _, d := range docs {
		nodes += d.Size()
	}
	m["xmltree.heap_bytes_per_node"] = float64(heapAlloc()-base) / float64(nodes)

	var buf bytes.Buffer
	var snapBytes int
	var write, load time.Duration
	for _, d := range docs {
		buf.Reset()
		t0 := time.Now()
		if err := d.WriteSnapshot(&buf); err != nil {
			return err
		}
		write += time.Since(t0)
		snapBytes += buf.Len()
		t0 = time.Now()
		if _, err := xpath.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			return err
		}
		load += time.Since(t0)
	}
	m["xmltree.snapshot_write_mb_s"] = float64(snapBytes) / 1e6 / write.Seconds()
	m["xmltree.snapshot_load_mb_s"] = float64(snapBytes) / 1e6 / load.Seconds()

	mem := xpath.NewStore()
	for i, d := range docs {
		if err := mem.Add(in.ids[i], d); err != nil {
			return err
		}
	}
	if docs, err = parse(); err != nil {
		return err
	}
	var failed firstErr
	m["store.replace_us"] = median(perItem(0, n, func(i int) {
		_, err := mem.Replace(in.ids[i], docs[i])
		failed.note(err)
	})) / 1e3
	if failed.err != nil {
		return failed.err
	}

	defer os.RemoveAll(dir)
	open := func() (*xpath.DurableStore, float64, error) {
		t0 := time.Now()
		ds, err := xpath.OpenStore(dir, xpath.DurableOptions{Sync: xpath.SyncAlways})
		return ds, float64(time.Since(t0)) / 1e6, err
	}
	ds, _, err := open()
	if err != nil {
		return err
	}
	defer func() { _ = ds.Close() }() // for the error paths; closing twice is harmless
	if docs, err = parse(); err != nil {
		return err
	}
	for i, d := range docs {
		if _, err := ds.Put(in.ids[i], d); err != nil {
			return err
		}
	}
	if docs, err = parse(); err != nil {
		return err
	}
	reg0 := metrics.Default().Snapshot()
	m["store.put_us"] = median(perItem(0, n, func(i int) {
		_, err := ds.Put(in.ids[i], docs[i])
		failed.note(err)
	})) / 1e3
	if failed.err != nil {
		return failed.err
	}
	reg := metrics.Default().Snapshot().Sub(reg0)
	m["store.wal_append_us"] = reg.Histograms["store.wal.append_ns"].Mean() / 1e3
	m["store.wal_fsync_us"] = reg.Histograms["store.wal.fsync_ns"].Mean() / 1e3
	m["store.wal_bytes_per_doc_byte"] = float64(reg.Counters["store.wal.bytes"]) / float64(xmlBytes)

	if err := ds.Close(); err != nil {
		return err
	}
	if ds, m["store.open_wal_ms"], err = open(); err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := ds.Compact(); err != nil {
		return err
	}
	m["store.compact_ms"] = float64(time.Since(t0)) / 1e6
	if err := ds.Close(); err != nil {
		return err
	}
	if ds, m["store.open_snapshot_ms"], err = open(); err != nil {
		return err
	}
	return ds.Close()
}
