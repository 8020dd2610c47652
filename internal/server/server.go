// Package server is the HTTP front-end over the document store: the
// "millions of users" layer of the ROADMAP that makes everything built so
// far — the source-keyed plan cache (xpath.CompileCached), the sharded
// store's batch fan-out, the zero-alloc topology kernels and the metrics
// and trace substrate — servable.
//
// The endpoints ride a minimal exact-path router (plus one /doc/ prefix
// route for the mutation surface):
//
//	POST   /query     one document, one query (engine and tracer opt-in)
//	POST   /batch     one query fanned out across an ID list (Store.Query)
//	GET    /explain   plan disassembly; EXPLAIN ANALYZE when ?id= names a doc
//	GET    /stats     metrics registry as JSON or Prometheus exposition
//	GET    /healthz   liveness (503 once draining)
//	PUT    /doc/{id}  insert or replace one document (WAL-logged when durable)
//	DELETE /doc/{id}  remove one document
//	POST   /snapshot  fold the write-ahead log into a fresh snapshot
//
// Request admission sits in front of the evaluation work: a bounded job
// queue of configurable depth drained by a fixed worker pool. A full queue
// answers 429 immediately, shutdown-in-progress answers 503, and a request
// that waits longer than the per-request timeout answers 504 — the three
// overload behaviors the Gottlob/Koch/Pichler engines' polynomial-time
// guarantees need at the door so adversarial traffic degrades service
// predictably instead of unboundedly. Shutdown drains gracefully: admitted
// work always finishes.
//
// Every request flows through the source-keyed compile cache as the hot
// path and records structured per-request metrics (compile/eval
// nanoseconds, cache hit, queue wait, result cardinality, status class)
// into the process-wide metrics registry.
package server

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	xpath "repro"
	"repro/internal/engine"
	"repro/internal/faultinject"
)

// Config parameterizes one Server.
type Config struct {
	// Store is the document corpus to serve (required).
	Store *xpath.Store
	// Durable, when non-nil, is the persistence layer behind Store:
	// mutations (PUT/DELETE /doc/{id}) are write-ahead-logged through it,
	// and POST /snapshot folds the log into a fresh checksummed snapshot.
	// Without one, mutations alter the in-memory corpus only and
	// POST /snapshot answers 409. Store should be Durable.Store().
	Durable *xpath.DurableStore
	// Workers bounds the admission worker pool (≤ 0 means 1): how many
	// requests evaluate concurrently. Batch requests additionally fan out
	// on the store's own per-batch pool, bounded by BatchWorkers.
	Workers int
	// QueueDepth bounds the admission queue (≤ 0 means 2×Workers). A full
	// queue rejects with 429 instead of queuing unboundedly.
	QueueDepth int
	// Timeout bounds one request's stay in the server — queue wait plus
	// evaluation (0 means 10s). Expiry answers 504 and cancels the
	// request's evaluation budget, so the in-flight evaluation stops at its
	// next cooperative check and the worker slot frees promptly instead of
	// grinding to completion on a result nobody will read. Client
	// disconnects cancel the same way.
	Timeout time.Duration
	// MaxSteps bounds one evaluation's cooperative step fuel (0 means
	// unlimited). Exhaustion answers 422 Unprocessable Entity: the query is
	// well-formed but too expensive under this server's policy.
	MaxSteps int64
	// MaxResultCard bounds one evaluation's node-set result cardinality
	// (0 means unlimited). Exceeding it answers 422.
	MaxResultCard int
	// DefaultEngine evaluates requests that do not name an engine
	// (zero value: EngineAuto, which resolves to EngineCompiled).
	DefaultEngine xpath.Engine
	// BatchWorkers bounds the per-batch fan-out pool inside Store.Query
	// (≤ 0 means GOMAXPROCS), independent of the admission Workers.
	BatchWorkers int
	// MaxBodyBytes bounds request bodies (≤ 0 means 1 MiB).
	MaxBodyBytes int64
	// MaxNodes caps how many nodes a /query response materializes as JSON
	// (≤ 0 means 1000); the full cardinality is always reported in count.
	MaxNodes int
}

// Server serves XPath evaluation over HTTP. Create with New, mount as an
// http.Handler, stop with Shutdown.
type Server struct {
	cfg      Config
	store    *xpath.Store
	pool     *pool
	router   *router
	started  time.Time
	draining atomic.Bool
}

// New returns a Server wired to cfg.Store with all routes registered.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxNodes <= 0 {
		cfg.MaxNodes = 1000
	}
	s := &Server{
		cfg:     cfg,
		store:   cfg.Store,
		pool:    newPool(cfg.Workers, cfg.QueueDepth),
		router:  newRouter(),
		started: time.Now(),
	}
	s.router.handle(http.MethodPost, "/query", s.handleQuery)
	s.router.handle(http.MethodPost, "/batch", s.handleBatch)
	s.router.handle(http.MethodGet, "/explain", s.handleExplain)
	s.router.handle(http.MethodGet, "/stats", s.handleStats)
	s.router.handle(http.MethodGet, "/healthz", s.handleHealthz)
	s.router.handle(http.MethodPost, "/snapshot", s.handleSnapshot)
	s.router.handlePrefix(http.MethodPut, "/doc/", s.handlePutDoc)
	s.router.handlePrefix(http.MethodDelete, "/doc/", s.handleDeleteDoc)
	return s
}

// ServeHTTP implements http.Handler by dispatching through the router.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.router.ServeHTTP(w, r)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// QueueDepth returns the current admission queue length (diagnostics).
func (s *Server) QueueDepth() int { return s.pool.depth() }

// Shutdown begins the graceful drain: new work is rejected with 503
// immediately, and the call blocks until every already-admitted job has
// finished or ctx expires (in which case the jobs keep running but the
// call returns ctx's error). The process's SIGTERM handler calls this
// before closing the listener, so in-flight evaluations always complete.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.pool.drain()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// newBudget builds the per-request evaluation budget from the server's
// policy: the request timeout as a deadline plus the configured step fuel
// and result-cardinality caps.
func (s *Server) newBudget() *xpath.Budget {
	return xpath.NewBudget(xpath.BudgetLimits{
		Deadline:      s.cfg.Timeout,
		Steps:         s.cfg.MaxSteps,
		MaxResultCard: s.cfg.MaxResultCard,
	})
}

// run admits work through the bounded queue and waits for it to finish,
// mapping the three overload outcomes to their status codes. ok is false
// when the response has already been written (reject, timeout, or a panic
// that escaped the evaluation guards).
//
// bud, when non-nil, is the request's evaluation budget: a timer expiry or
// client disconnect cancels it, so the in-flight evaluation returns at its
// next cooperative check and the worker moves on to the next job — the 504
// does not burn a worker slot for the rest of the evaluation.
func (s *Server) run(w http.ResponseWriter, r *http.Request, bud *xpath.Budget, work func()) (ok bool) {
	if s.draining.Load() {
		mRejectedDrain.Add(1)
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	done := make(chan struct{})
	var panicErr error
	err := s.pool.submit(func() {
		// LIFO defers: RecoverPanic captures a job panic into panicErr
		// first, then done closes — so the waiter below always observes the
		// outcome, panic included, and the worker goroutine never dies.
		defer close(done)
		defer engine.RecoverPanic(&panicErr)
		faultinject.Hit("server.worker")
		work()
	})
	switch err {
	case nil:
	case ErrQueueFull:
		writeError(w, http.StatusTooManyRequests, "admission queue full, retry later")
		return false
	case ErrDraining:
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return false
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
		return false
	}
	timer := time.NewTimer(s.cfg.Timeout)
	defer timer.Stop()
	select {
	case <-done:
		if panicErr != nil {
			writeError(w, http.StatusInternalServerError,
				fmt.Sprintf("internal error: %v", panicErr))
			return false
		}
		return true
	case <-timer.C:
		mTimeouts.Add(1)
		if bud != nil {
			bud.Cancel()
		}
		writeError(w, http.StatusGatewayTimeout, "request timed out in the server")
		return false
	case <-r.Context().Done():
		// Client went away; cancel the evaluation so the worker slot frees
		// at the next cooperative check instead of computing a result that
		// will be discarded with the connection.
		if bud != nil {
			bud.Cancel()
		}
		return false
	}
}
