package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	xpath "repro"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Per-request evaluation instruments (process-wide): the structured metrics
// every /query and /batch records — compile/eval time, compile-cache
// behavior, result cardinality and timeout pressure.
var (
	mTimeouts    = metrics.Default().Counter("server.timeouts")
	mCacheHits   = metrics.Default().Counter("server.cache_hits")
	mCacheMisses = metrics.Default().Counter("server.cache_misses")
	mCompileNs   = metrics.Default().Histogram("server.compile_ns")
	mEvalNs      = metrics.Default().Histogram("server.eval_ns")
	mResultCard  = metrics.Default().Histogram("server.result_card")
	mBatchSize   = metrics.Default().Histogram("server.batch_size")
)

// errorBody is the uniform error response shape.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Headers are gone; all we can do is note it in the metrics.
		mStatus[5].Add(1)
	}
}

// decodeBody decodes a bounded JSON request body into v, rejecting
// trailing garbage. A false return means the 400 is already written.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "bad request body: trailing data")
		return false
	}
	return true
}

// resolveEngine maps a request's engine field to the engine that evaluates
// it ("" means the server default), so responses name that engine, never
// "auto". A false return means the 400 is already written.
func (s *Server) resolveEngine(w http.ResponseWriter, name string) (xpath.Engine, bool) {
	if name == "" {
		return s.cfg.DefaultEngine.Resolved(), true
	}
	eng, ok := xpath.EngineByName(name)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown engine %q", name))
		return 0, false
	}
	return eng.Resolved(), true
}

// evalStatus maps an evaluation failure to its HTTP status and message:
// recovered panics are the server's fault (500), budget trips are policy
// (504 for time, 422 for fuel/cardinality — the query is well-formed but
// too expensive), and everything else is the request's fault (400).
func evalStatus(err error) (int, string) {
	var pe *xpath.EvalPanicError
	switch {
	case errors.As(err, &pe):
		return http.StatusInternalServerError, fmt.Sprintf("internal error: %v", err)
	case errors.Is(err, xpath.ErrCanceled), errors.Is(err, xpath.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout, fmt.Sprintf("evaluation timed out: %v", err)
	case errors.Is(err, xpath.ErrBudgetExceeded):
		return http.StatusUnprocessableEntity, fmt.Sprintf("evaluation exceeded its budget: %v", err)
	default:
		return http.StatusBadRequest, fmt.Sprintf("evaluation failed: %v", err)
	}
}

// NodeJSON is one result node of a /query response.
type NodeJSON struct {
	// Pre is the node's document-order (preorder) index; root = 0.
	Pre int `json:"pre"`
	// Label is the tag name.
	Label string `json:"label"`
	// Value is the node's string-value, truncated to keep responses small.
	Value string `json:"value,omitempty"`
}

// StatsJSON carries the engine instrumentation counters of an evaluation.
type StatsJSON struct {
	TableCells        int64 `json:"table_cells"`
	ContextsEvaluated int64 `json:"contexts_evaluated"`
	AxisCalls         int64 `json:"axis_calls"`
}

// TimingsJSON is the per-request timing breakdown, in nanoseconds.
type TimingsJSON struct {
	CompileNs int64 `json:"compile_ns"`
	EvalNs    int64 `json:"eval_ns"`
	TotalNs   int64 `json:"total_ns"`
}

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	// ID names the stored document to query.
	ID string `json:"id"`
	// Query is the XPath 1.0 source text.
	Query string `json:"query"`
	// Engine optionally names the evaluation engine (default: the server's).
	Engine string `json:"engine,omitempty"`
	// Trace opts into per-step/per-opcode tracing; the rendered trace tree
	// rides back on the response.
	Trace bool `json:"trace,omitempty"`
	// Limit caps the materialized node list (0 means the server default);
	// count always reports the full cardinality.
	Limit int `json:"limit,omitempty"`
}

// QueryResponse is the body of a successful POST /query.
type QueryResponse struct {
	ID       string      `json:"id"`
	Engine   string      `json:"engine"`
	Kind     string      `json:"kind"` // node-set | number | string | boolean
	Count    int         `json:"count,omitempty"`
	Nodes    []NodeJSON  `json:"nodes,omitempty"`
	Value    string      `json:"value,omitempty"`
	CacheHit bool        `json:"cache_hit"`
	Stats    StatsJSON   `json:"stats"`
	Timings  TimingsJSON `json:"timings"`
	Trace    string      `json:"trace,omitempty"`
}

const maxNodeValueLen = 120

func nodeJSON(n *xpath.Node) NodeJSON {
	v := n.StringValue()
	if len(v) > maxNodeValueLen {
		v = v[:maxNodeValueLen-3] + "..."
	}
	return NodeJSON{Pre: n.Pre(), Label: n.Label(), Value: v}
}

// resultKind names a result's XPath type for the wire.
func resultKind(res *xpath.Result) string {
	switch {
	case res.IsNodeSet():
		return "node-set"
	default:
		// Scalars render through the standard conversions; the concrete
		// type is recovered from the rendered text by the client if it
		// cares. Number/boolean/string all carry Value.
		return "scalar"
	}
}

// handleQuery serves POST /query: one document, one query, engine and
// tracer opt-in. The compile (cache hot path) runs on the handler
// goroutine — a 400 must not cost an admission slot — and the evaluation
// runs through the bounded admission queue.
//
//xpathlint:deterministic
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, "missing query")
		return
	}
	eng, ok := s.resolveEngine(w, req.Engine)
	if !ok {
		return
	}
	doc, ok := s.store.Get(req.ID)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no document with ID %q", req.ID))
		return
	}

	var rec *xpath.TraceRecorder
	var tr xpath.Tracer
	if req.Trace {
		rec = xpath.NewTraceRecorder()
		tr = rec
	}
	t0 := trace.Now()
	q, hit, err := xpath.CompileCachedTraced(req.Query, tr)
	compileNs := trace.Now() - t0
	mCompileNs.Observe(compileNs)
	if hit {
		mCacheHits.Add(1)
	} else {
		mCacheMisses.Add(1)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad query: %v", err))
		return
	}

	var (
		res     *xpath.Result
		evalErr error
		evalNs  int64
	)
	bud := s.newBudget()
	if !s.run(w, r, bud, func() {
		tEval := trace.Now()
		res, evalErr = q.EvaluateWith(doc, xpath.Options{Engine: eng, Tracer: tr, Budget: bud})
		evalNs = trace.Now() - tEval
		mEvalNs.Observe(evalNs)
	}) {
		return
	}
	if evalErr != nil {
		status, msg := evalStatus(evalErr)
		writeError(w, status, msg)
		return
	}

	limit := req.Limit
	if limit <= 0 || limit > s.cfg.MaxNodes {
		limit = s.cfg.MaxNodes
	}
	st := res.Stats()
	resp := QueryResponse{
		ID:       req.ID,
		Engine:   eng.String(),
		Kind:     resultKind(res),
		CacheHit: hit,
		Stats: StatsJSON{
			TableCells:        st.TableCells,
			ContextsEvaluated: st.ContextsEvaluated,
			AxisCalls:         st.AxisCalls,
		},
		Timings: TimingsJSON{
			CompileNs: compileNs,
			EvalNs:    evalNs,
			TotalNs:   trace.Now() - t0,
		},
	}
	if res.IsNodeSet() {
		nodes := res.Nodes()
		resp.Count = len(nodes)
		mResultCard.Observe(int64(len(nodes)))
		if len(nodes) > limit {
			nodes = nodes[:limit]
		}
		resp.Nodes = make([]NodeJSON, len(nodes))
		for i, n := range nodes {
			resp.Nodes[i] = nodeJSON(n)
		}
	} else {
		resp.Value = res.Text()
	}
	if rec != nil {
		resp.Trace = xpath.RenderTrace(rec.Rows())
	}
	writeJSON(w, resp)
}

// BatchRequest is the body of POST /batch.
type BatchRequest struct {
	// Query is the XPath 1.0 source text.
	Query string `json:"query"`
	// IDs restricts the batch (order preserved; unknown IDs yield
	// per-document errors); nil means every stored document.
	IDs []string `json:"ids,omitempty"`
	// Engine optionally names the evaluation engine.
	Engine string `json:"engine,omitempty"`
	// Workers bounds the per-batch fan-out pool (0: the server's
	// BatchWorkers setting).
	Workers int `json:"workers,omitempty"`
	// Trace opts into a shared trace recorder across the whole batch.
	Trace bool `json:"trace,omitempty"`
}

// BatchDocJSON is one document's outcome within a /batch response.
type BatchDocJSON struct {
	ID    string `json:"id"`
	Kind  string `json:"kind,omitempty"`
	Count int    `json:"count,omitempty"`
	Value string `json:"value,omitempty"`
	Error string `json:"error,omitempty"`
}

// BatchResponse is the body of a successful POST /batch.
type BatchResponse struct {
	Engine  string         `json:"engine"`
	Docs    []BatchDocJSON `json:"docs"`
	Errors  int            `json:"errors"`
	Stats   StatsJSON      `json:"stats"`
	Timings TimingsJSON    `json:"timings"`
	Trace   string         `json:"trace,omitempty"`
}

// handleBatch serves POST /batch: one query fanned out across an ID list
// through Store.Query. The whole batch occupies one admission slot; its
// internal fan-out runs on the store's own bounded pool.
//
//xpathlint:deterministic
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, "missing query")
		return
	}
	eng, ok := s.resolveEngine(w, req.Engine)
	if !ok {
		return
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.BatchWorkers
	}
	var rec *xpath.TraceRecorder
	bud := s.newBudget()
	opts := xpath.BatchOptions{Engine: eng, Workers: workers, IDs: req.IDs, Budget: bud}
	if req.Trace {
		rec = xpath.NewTraceRecorder()
		opts.Tracer = rec
	}

	var (
		batch    *xpath.BatchResult
		batchErr error
		evalNs   int64
	)
	t0 := trace.Now()
	if !s.run(w, r, bud, func() {
		tEval := trace.Now()
		batch, batchErr = s.store.Query(req.Query, opts)
		evalNs = trace.Now() - tEval
		mEvalNs.Observe(evalNs)
	}) {
		return
	}
	if batchErr != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad query: %v", batchErr))
		return
	}

	mBatchSize.Observe(int64(len(batch.Docs)))
	st := batch.Stats()
	resp := BatchResponse{
		Engine: eng.String(),
		Docs:   make([]BatchDocJSON, len(batch.Docs)),
		Errors: batch.Errs(),
		Stats: StatsJSON{
			TableCells:        st.TableCells,
			ContextsEvaluated: st.ContextsEvaluated,
			AxisCalls:         st.AxisCalls,
		},
		Timings: TimingsJSON{EvalNs: evalNs, TotalNs: trace.Now() - t0},
	}
	for i, dr := range batch.Docs {
		dj := BatchDocJSON{ID: dr.ID}
		switch {
		case dr.Err != nil:
			dj.Error = dr.Err.Error()
		case dr.Result.IsNodeSet():
			dj.Kind = "node-set"
			dj.Count = len(dr.Result.Nodes())
		default:
			dj.Kind = "scalar"
			dj.Value = dr.Result.Text()
		}
		resp.Docs[i] = dj
	}
	if rec != nil {
		resp.Trace = xpath.RenderTrace(rec.Rows())
	}
	writeJSON(w, resp)
}

// handleExplain serves GET /explain?q=<xpath>[&id=<doc>]: the static
// OPTMINCONTEXT plan and compiled-VM disassembly, or — when id names a
// stored document — EXPLAIN ANALYZE, the disassembly annotated with the
// observed per-instruction behavior of a real traced run. Output is plain
// text for humans, exactly what the CLI's -explain/-analyze flags print.
//
//xpathlint:deterministic
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	src := r.URL.Query().Get("q")
	if src == "" {
		writeError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	q, hit, err := xpath.CompileCachedTraced(src, nil)
	if hit {
		mCacheHits.Add(1)
	} else {
		mCacheMisses.Add(1)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad query: %v", err))
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, q.Explain())
		fmt.Fprint(w, q.ExplainPlan())
		return
	}
	doc, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no document with ID %q", id))
		return
	}
	var out string
	var evalErr error
	if !s.run(w, r, nil, func() {
		out, evalErr = q.ExplainAnalyze(doc)
	}) {
		return
	}
	if evalErr != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("explain analyze: %v", evalErr))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, out)
}

// ServerStatsJSON is the server block of a /stats response.
type ServerStatsJSON struct {
	Documents  int            `json:"documents"`
	QueueDepth int            `json:"queue_depth"`
	Draining   bool           `json:"draining"`
	UptimeNs   int64          `json:"uptime_ns"`
	Cache      CacheStatsJSON `json:"compile_cache"`
	Workers    int            `json:"workers"`
	QueueCap   int            `json:"queue_capacity"`
}

// CacheStatsJSON mirrors xpath.QueryCacheStats on the wire.
type CacheStatsJSON struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	ErrorHits int64 `json:"error_hits"`
	Evictions int64 `json:"evictions"`
	Compiles  int64 `json:"compiles"`
	Len       int   `json:"len"`
}

// StatsResponse is the body of GET /stats (JSON form).
type StatsResponse struct {
	Server  ServerStatsJSON `json:"server"`
	Metrics json.RawMessage `json:"metrics"`
}

// handleStats serves GET /stats: the process metrics registry plus the
// server's own state, as JSON by default or in the Prometheus text
// exposition format when ?format=prometheus (or an Accept header asking
// for text/plain) selects it.
//
//xpathlint:deterministic
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "text/plain") {
		format = "prometheus"
	}
	switch format {
	case "", "json":
		var buf strings.Builder
		if err := xpath.WriteMetricsJSON(&buf); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		cs := xpath.CompileCachedStats()
		writeJSON(w, StatsResponse{
			Server: ServerStatsJSON{
				Documents:  s.store.Len(),
				QueueDepth: s.pool.depth(),
				Draining:   s.draining.Load(),
				UptimeNs:   int64(time.Since(s.started)),
				Workers:    s.cfg.Workers,
				QueueCap:   s.cfg.QueueDepth,
				Cache: CacheStatsJSON{
					Hits:      cs.Hits,
					Misses:    cs.Misses,
					ErrorHits: cs.ErrorHits,
					Evictions: cs.Evictions,
					Compiles:  cs.Compiles,
					Len:       cs.Len,
				},
			},
			Metrics: json.RawMessage(buf.String()),
		})
	case "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := xpath.WriteMetricsPrometheus(w); err != nil {
			mStatus[5].Add(1)
		}
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (want json or prometheus)", format))
	}
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status    string `json:"status"`
	Documents int    `json:"documents"`
}

// handleHealthz serves GET /healthz: 200 while serving, 503 once draining
// (load balancers stop routing here first during a rolling restart).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(HealthResponse{Status: "draining", Documents: s.store.Len()})
		return
	}
	writeJSON(w, HealthResponse{Status: "ok", Documents: s.store.Len()})
}
