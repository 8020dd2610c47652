package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	xpath "repro"
	"repro/internal/metrics"
	"repro/internal/server"
)

// served is one set-up: the corpus in a store, behind the server, behind a
// loopback listener.
type served struct {
	store   *xpath.Store
	durable *xpath.DurableStore
	dir     string // the durable store's directory, "" for an in-memory store
	srv     *server.Server
	http    *http.Server
	url     string
	engine  xpath.Engine  // what the server says it answers with when a request names no engine
	nodes   int           // nodes of the stored corpus
	done    chan struct{} // closed when http.Serve has returned
}

// setUp does what an operator's start-up does with the corpus bytes: parse,
// store, listen, answer the first request. It returns the time that took.
// measure, when not nil, runs between storing and listening with the clock
// stopped.
func setUp(in *inputs, dir string, measure func()) (*served, time.Duration, error) {
	t0 := time.Now()
	s := &served{done: make(chan struct{})}
	if in.durable {
		var err error
		if s.durable, err = xpath.OpenStore(dir, xpath.DurableOptions{Sync: xpath.SyncAlways}); err != nil {
			return nil, 0, fmt.Errorf("open durable store: %w", err)
		}
		s.dir = dir
		s.store = s.durable.Store()
	} else {
		s.store = xpath.NewStore()
	}
	for i, versions := range in.xml {
		doc, err := xpath.ParseDocument(bytes.NewReader(versions[0]))
		if err != nil {
			return nil, 0, fmt.Errorf("parse %s: %w", in.ids[i], err)
		}
		s.nodes += doc.Size()
		if in.durable {
			_, err = s.durable.Put(in.ids[i], doc)
		} else {
			err = s.store.Add(in.ids[i], doc)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("store %s: %w", in.ids[i], err)
		}
	}
	var paused time.Duration
	if measure != nil {
		p0 := time.Now()
		measure()
		paused = time.Since(p0)
	}

	// Only Store and Durable are set: the shipped defaults — EngineAuto,
	// one worker, queue depth, limits — are what gets measured, and a later
	// change of a default shows up as a change in the numbers.
	s.srv = server.New(server.Config{Store: s.store, Durable: s.durable})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	s.url = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: s.srv}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns ErrServerClosed from close()
	}()
	c := newClient(s.url)
	defer c.close()
	status, resp, err := c.do(http.MethodPost, "/query", queryBody(in.ids[0], "/child::*"))
	took := time.Since(t0) - paused
	if err != nil || status != http.StatusOK {
		s.close()
		return nil, 0, fmt.Errorf("first request: status %d, %v", status, err)
	}
	var first server.QueryResponse
	_ = json.Unmarshal(resp, &first) // an unreadable answer fails the next check
	var known bool
	if s.engine, known = xpath.EngineByName(first.Engine); !known {
		s.close()
		return nil, 0, fmt.Errorf("first request: answered by engine %q, which xpath.EngineByName does not know", first.Engine)
	}
	return s, took, nil
}

// close stops the server, waits for its goroutines and removes the durable
// directory.
func (s *served) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	_ = s.http.Close()
	<-s.done
	if s.durable != nil {
		_ = s.durable.Close() // closing twice after a recovery step is harmless
		_ = os.RemoveAll(s.dir)
	}
}

// client is one keep-alive connection.
type client struct {
	http *http.Client
	url  string
	buf  bytes.Buffer
}

func newClient(url string) *client {
	return &client{url: url, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and returns the status and the body, which is valid
// until the next call.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// sample is one finished operation.
type sample struct {
	kind opKind
	end  int64 // ns after the start of the measured window; negative in warm-up
	lat  int64 // ns
	ok   bool
}

// spot is a cold_plans response kept for checking after the window.
type spot struct {
	o   op
	got answer
}

// docState is what the readers of mixed_write may see of one document.
// Version numbers count PUTs; the content is version number mod versions.
type docState struct {
	acked   atomic.Int64 // last acknowledged version
	pending atomic.Int64 // version of the PUT in flight, 0 for none
	present atomic.Bool
}

// load is the state one workload's clients share.
type load struct {
	in     *inputs
	s      *served
	oracle *oracle
	state  []docState
	spots  [clients][]spot
}

func newLoad(in *inputs, s *served, o *oracle) *load {
	l := &load{in: in, s: s, oracle: o, state: make([]docState, len(in.ids))}
	for i := range l.state {
		l.state[i].present.Store(true)
	}
	return l
}

func queryBody(id, src string) []byte {
	b, _ := json.Marshal(server.QueryRequest{ID: id, Query: src})
	return b
}

// response is the part of a /query or /batch document entry that is checked.
type response struct {
	Kind  string `json:"kind"`
	Count int    `json:"count"`
	Value string `json:"value"`
}

func (r response) answer() answer {
	return answer{nodeSet: r.Kind == "node-set", count: r.Count, value: r.Value}
}

// parseAnswer reads the answer out of a 200 response.
func parseAnswer(status int, body []byte, err error) (answer, bool) {
	var r response
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &r) != nil {
		return answer{}, false
	}
	return r.answer(), true
}

// right reports whether got is the answer to a repeated query on any
// version the document had between version lo and now: a PUT that overlaps
// a request makes both the old and the new answer right.
func (l *load) right(o op, lo int64, got answer) bool {
	st := &l.state[o.doc]
	hi := max(st.acked.Load(), st.pending.Load())
	for v := lo; v <= hi; v++ {
		if l.oracle.want(o.doc, int(v), o.query) == got {
			return true
		}
	}
	return false
}

// query sends request i of client cl and checks the answer. The answer to
// a generated text is only kept, every 64th time, and checked after the
// window: computing it here would cost more than the request.
func (l *load) query(c *client, cl int, o op, i int) bool {
	lo := l.state[o.doc].acked.Load()
	got, ok := parseAnswer(c.do(http.MethodPost, "/query", queryBody(l.in.ids[o.doc], o.src)))
	if !ok {
		return false
	}
	if o.query < 0 {
		if i%64 == 0 {
			l.spots[cl] = append(l.spots[cl], spot{o, got})
		}
		return true
	}
	return l.right(o, lo, got)
}

func (l *load) batch(c *client, o op) bool {
	docs := l.in.queried()
	ids := make([]string, min(batchWindow, docs))
	for k := range ids {
		ids[k] = l.in.ids[(o.doc+k)%docs]
	}
	body, _ := json.Marshal(server.BatchRequest{Query: o.src, IDs: ids})
	status, resp, err := c.do(http.MethodPost, "/batch", body)
	if err != nil || status != http.StatusOK {
		return false
	}
	var r struct {
		Docs []response `json:"docs"`
	}
	if json.Unmarshal(resp, &r) != nil || len(r.Docs) != len(ids) {
		return false
	}
	for k, d := range r.Docs {
		if l.oracle.want((o.doc+k)%docs, 0, o.query) != d.answer() {
			return false
		}
	}
	return true
}

// put installs the next version of a document and acknowledges it to the
// readers only after the server has.
func (l *load) put(c *client, doc int) bool {
	st := &l.state[doc]
	v := st.acked.Load() + 1
	st.pending.Store(v)
	versions := l.in.xml[doc]
	status, _, err := c.do(http.MethodPut, "/doc/"+l.in.ids[doc], versions[int(v)%len(versions)])
	ok := err == nil && (status == http.StatusOK || status == http.StatusCreated)
	if ok {
		st.acked.Store(v)
		st.present.Store(true)
	}
	st.pending.Store(0)
	return ok
}

func (l *load) delete(c *client, doc int) bool {
	status, _, err := c.do(http.MethodDelete, "/doc/"+l.in.ids[doc], nil)
	ok := err == nil && status == http.StatusOK
	if ok {
		l.state[doc].present.Store(false)
	}
	return ok
}

// drive runs the closed loop: every client sends its next request when the
// previous one is answered, from now until warmup+measure have passed.
// Samples that end during warm-up get a negative end time.
func (l *load) drive(warmup, measure time.Duration) [][]sample {
	start := time.Now().Add(warmup)
	deadline := start.Add(measure)
	out := make([][]sample, clients)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(l.s.url)
			defer c.close()
			timed := func(kind opKind, f func() bool) {
				t0 := time.Now()
				ok := f()
				t1 := time.Now()
				out[cl] = append(out[cl], sample{kind, int64(t1.Sub(start)), int64(t1.Sub(t0)), ok})
			}
			for i := 0; time.Now().Before(deadline); i++ {
				o := l.in.stream(cl, i)
				switch o.kind {
				case opQuery:
					timed(opQuery, func() bool { return l.query(c, cl, o, i) })
				case opBatch:
					timed(opBatch, func() bool { return l.batch(c, o) })
				case opPut:
					timed(opPut, func() bool { return l.put(c, o.doc) })
				case opDelete:
					timed(opDelete, func() bool { return l.delete(c, o.doc) })
					timed(opPut, func() bool { return l.put(c, o.doc) })
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// segments is how many equal parts the measured window is cut into. Each
// end-to-end timing is the median of its per-segment values, so one part
// disturbed by the machine does not move the result.
const segments = 6

// windowStats is what the measured window yields.
type windowStats struct {
	attempted, failed int
	queries           int
	// Per-segment values, then their medians.
	p50, p95, rps []float64
	queryP50us    float64
	queryP95us    float64
	queryP99us    float64 // over the whole window, a diagnostic
	queryRPS      float64
	batchP50us    float64
	putP50us      float64
	putP95us      float64
}

func summarize(all [][]sample, measure time.Duration) windowStats {
	var w windowStats
	seg := int64(measure) / segments
	lat := map[opKind][]float64{}
	type segment struct {
		us          []float64
		first, last int64 // end times of its first and last answered query
	}
	perSeg := make([]segment, segments)
	for _, ss := range all {
		for _, s := range ss {
			if s.end < 0 {
				continue
			}
			w.attempted++
			if !s.ok {
				w.failed++
				continue
			}
			us := float64(s.lat) / 1e3
			lat[s.kind] = append(lat[s.kind], us)
			if s.kind == opQuery {
				g := &perSeg[min(int(s.end/seg), segments-1)]
				if len(g.us) == 0 || s.end < g.first {
					g.first = s.end
				}
				g.last = max(g.last, s.end)
				g.us = append(g.us, us)
			}
		}
	}
	w.queries = len(lat[opQuery])
	for _, g := range perSeg {
		if len(g.us) < 2 {
			continue
		}
		sort.Float64s(g.us)
		w.p50 = append(w.p50, quantileSorted(g.us, 0.50))
		w.p95 = append(w.p95, quantileSorted(g.us, 0.95))
		// Answers per second between the segment's first and last answer:
		// counting per fixed 2.5 s would move in steps of 0.4/s, which is
		// 2 % of large_doc's rate.
		w.rps = append(w.rps, float64(len(g.us)-1)/(float64(g.last-g.first)/1e9))
	}
	w.queryP50us, w.queryP95us, w.queryRPS = median(w.p50), median(w.p95), median(w.rps)
	w.queryP99us = quantile(lat[opQuery], 0.99)
	w.batchP50us = quantile(lat[opBatch], 0.50)
	w.putP50us = quantile(lat[opPut], 0.50)
	w.putP95us = quantile(lat[opPut], 0.95)
	return w
}

// heapAlloc returns the live heap after two collections: the first frees
// what is unreachable, the second what the first one's finalizers released.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// countingWriter counts the bytes of a snapshot without keeping them.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// result is everything one run of one workload measured.
type result struct {
	workload  string
	seed      int64
	durable   bool
	corpusSHA string
	streamSHA string
	docs      int // corpus size: documents, nodes and XML bytes of version 0
	nodes     int
	xmlBytes  int
	phases    []phase
	setups    []float64 // seconds, one per set-up
	window    windowStats
	attempted int
	failed    int

	setupS        float64
	residentPerN  float64
	snapshotRatio float64
	recoveryS     float64
	peakHeapSysMB float64
	reg           metrics.Snapshot // registry delta over the measured window
	layers        map[string]float64
	traceFile     string // the spans of the traced phase, as JSON
}

type phase struct {
	name string
	took time.Duration
}

// options is what the command line chooses for one run.
type options struct {
	workload string
	seed     int64
	measure  time.Duration
	warmup   time.Duration
	trace    bool
	outDir   string // durable stores and trace files go here
	sz       sizes
}

// maxSetupTime is the guard against a corpus that has outgrown the run.
const maxSetupTime = 30 * time.Second

// setUps is how often a run sets up; setup_s is the median. One set-up of
// cold_plans' two small documents takes under a millisecond, which a single
// timing cannot hold still.
const setUps = 5

// runWorkload is the whole run of one workload in this process.
func runWorkload(opt options) (*result, error) {
	res := &result{workload: opt.workload, seed: opt.seed}
	mark := time.Now()
	lap := func(name string) {
		res.phases = append(res.phases, phase{name, time.Since(mark)})
		mark = time.Now()
	}

	in, err := buildInputs(opt.workload, opt.seed, opt.sz)
	if err != nil {
		return nil, err
	}
	res.durable = in.durable
	replay := opt.sz.replay[opt.workload]
	res.corpusSHA, res.streamSHA = in.corpusSHA(), in.streamSHA(replay)
	lap("generate")

	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	var s *served
	for n := 1; n <= setUps; n++ {
		var measure func()
		if n == setUps {
			// The corpus of the last set-up stays loaded, so its size on the
			// heap is taken here, before the server allocates anything.
			base := heapAlloc()
			measure = func() { res.residentPerN = float64(heapAlloc() - base) }
		}
		dir := filepath.Join(opt.outDir, fmt.Sprintf("%s-%d-%d", opt.workload, os.Getpid(), n))
		var took time.Duration
		if s, took, err = setUp(in, dir, measure); err != nil {
			return nil, err
		}
		if took > maxSetupTime {
			s.close()
			return nil, fmt.Errorf("set-up of %s took %v, more than %v", opt.workload, took, maxSetupTime)
		}
		res.setups = append(res.setups, took.Seconds())
		if n < setUps {
			s.close()
		}
	}
	defer s.close()
	res.setupS = median(res.setups)
	res.docs, res.nodes, res.xmlBytes = len(in.ids), s.nodes, in.xmlBytes()
	res.residentPerN /= float64(s.nodes)
	var cw countingWriter
	if err := s.store.WriteSnapshot(&cw); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	res.snapshotRatio = float64(cw.n) / float64(res.xmlBytes)
	lap("set-up")

	o, err := newOracle(in, s.engine)
	if err != nil {
		return nil, err
	}
	lap("oracle")

	if err := in.prime(); err != nil {
		return nil, err
	}
	l := newLoad(in, s, o)
	before := metrics.Default().Snapshot()
	samples := l.drive(opt.warmup, opt.measure)
	res.reg = metrics.Default().Snapshot().Sub(before)
	res.window = summarize(samples, opt.measure)
	res.attempted, res.failed = res.window.attempted, res.window.failed
	if opt.measure > 0 && res.window.queries < opt.sz.minQueries {
		return nil, fmt.Errorf("%s answered %d /query requests in %v; percentiles need at least %d",
			opt.workload, res.window.queries, opt.measure, opt.sz.minQueries)
	}
	res.failed += l.checkSpots()
	lap("load")

	if opt.trace {
		if in.durable {
			if err := l.resetVersions(); err != nil {
				return nil, err
			}
		}
		var checked, wrong int
		if res.layers, checked, wrong, err = traced(l, replay, opt.sz.layerBudget, opt.outDir); err != nil {
			return nil, err
		}
		res.attempted += checked
		res.failed += wrong
		res.traceFile = traceFile(opt.outDir, in.name)
		lap("traced")
	}

	if in.durable {
		n, bad, err := l.recover(res, opt.sz.tailPuts)
		if err != nil {
			return nil, err
		}
		res.attempted += n
		res.failed += bad
		lap("recovery")
	}

	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	res.peakHeapSysMB = float64(m.HeapSys) / (1 << 20)
	return res, nil
}

// verify checks an answer outside the timed loop, where the answer to a
// generated text can be computed on the spot.
func (l *load) verify(o op, got answer) bool {
	if o.query >= 0 {
		return l.right(o, l.state[o.doc].acked.Load(), got)
	}
	want, err := l.oracle.eval(l.oracle.docs[o.doc][0], o.src)
	return err == nil && want == got
}

// checkSpots checks the cold_plans answers kept during the window and
// returns how many were wrong.
func (l *load) checkSpots() int {
	bad := 0
	for _, spots := range l.spots {
		for _, sp := range spots {
			if !l.verify(sp.o, sp.got) {
				bad++
			}
		}
	}
	return bad
}

// resetVersions puts version 0 of every document back, so that the traced
// phase sees the same corpus whatever the timed writer got through.
func (l *load) resetVersions() error {
	for i := range l.in.ids {
		doc, err := xpath.ParseDocument(bytes.NewReader(l.in.xml[i][0]))
		if err != nil {
			return err
		}
		if _, err := l.s.durable.Put(l.in.ids[i], doc); err != nil {
			return fmt.Errorf("reset %s: %w", l.in.ids[i], err)
		}
		l.state[i].acked.Store(0)
		l.state[i].present.Store(true)
	}
	return nil
}

// recoveryReps is how often the directory is reopened; the median is
// reported, as one open of a small corpus takes tens of milliseconds.
const recoveryReps = 5

// recover is the end of mixed_write: snapshot, a WAL tail, close without
// compaction, reopen, and check that every acknowledged write is there.
// It returns how many checks it made and how many failed.
func (l *load) recover(res *result, tailPuts int) (checks, bad int, err error) {
	c := newClient(l.s.url)
	defer c.close()
	if status, _, err := c.do(http.MethodPost, "/snapshot", nil); err != nil || status != http.StatusOK {
		return 0, 0, fmt.Errorf("POST /snapshot: status %d, %v", status, err)
	}
	for i := 0; i < tailPuts; i++ {
		checks++
		if !l.put(c, i*writeStride%l.in.queried()) {
			bad++
		}
	}
	if err := l.s.durable.Close(); err != nil {
		return 0, 0, fmt.Errorf("close durable store: %w", err)
	}
	var took []float64
	var reopened *xpath.DurableStore
	for i := 0; i < recoveryReps; i++ {
		t0 := time.Now()
		if reopened, err = xpath.OpenStore(l.s.dir, xpath.DurableOptions{Sync: xpath.SyncAlways}); err != nil {
			return 0, 0, fmt.Errorf("reopen: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
		if err := reopened.Close(); err != nil {
			return 0, 0, fmt.Errorf("close reopened store: %w", err)
		}
	}
	res.recoveryS = median(took)
	for i, id := range l.in.ids {
		checks++
		st := &l.state[i]
		doc, ok := reopened.Store().Get(id)
		switch {
		case ok != st.present.Load():
			bad++
		case ok && sha(doc.XML()) != l.oracle.xmlSHA[i][int(st.acked.Load())%len(l.in.xml[i])]:
			bad++
		}
	}
	return checks, bad, nil
}
