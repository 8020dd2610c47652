package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	xpath "repro"
	"repro/internal/fuzzgen"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

const (
	// clients is the number of closed-loop keep-alive connections. It is
	// the capacity of the shipped admission queue (QueueDepth = 2×Workers =
	// 2): a third waiting client would be shed with 429, and overload is a
	// workload this benchmark does not have yet.
	clients = 2

	// planCacheCap is the capacity of the process-wide source cache behind
	// xpath.CompileCached. cold_plans needs more distinct query texts than
	// this in every replay pass, so that LRU order evicts each one before
	// it comes round again.
	planCacheCap = 1024

	// pairStrides are the steps with which the clients walk the (document,
	// query) pairs of a repeated-query stream. Each is co-prime to every
	// pair count used here and not a multiple of any document count, so
	// consecutive requests of a client never share a document and every
	// pair is visited. They differ because two closed-loop clients on one
	// worker take strict turns: with one stride, every request of one
	// client would queue behind the same request of the other, and the tail
	// latency would depend on the offset the seed happened to draw.
	pairStride0, pairStride1 = 601, 605

	batchEvery  = 32 // hot_rotation: every 32nd request of a client is a /batch
	batchWindow = 16 // over this many consecutive ids
	deleteEvery = 16 // mixed_write: every 16th write is DELETE + re-PUT of an extra id
	writeStride = 37 // mixed_write: the writer's walk over the queried ids
)

// sizes holds every size knob of the four workloads. The command always
// runs fullSizes; the tests run a much smaller set through the same code.
type sizes struct {
	hotDocs      int            // documents in hot_rotation and mixed_write
	hotLo, hotHi int            // their node counts, spread geometrically over this range
	largeNodes   int            // nodes in each of the two large_doc documents
	coldNodes    int            // nodes in cold_plans' second document
	extraDocs    int            // mixed_write ids the writer deletes and re-creates
	versions     int            // seeded versions of every mixed_write document
	tailPuts     int            // PUTs after POST /snapshot, so recovery replays a WAL tail
	replay       map[string]int // requests the traced phase replays, per workload
	// minQueries: fewer /query answers in a window is an error, because the
	// percentiles of a segment would mean nothing.
	minQueries  int
	layerBudget time.Duration // how long each single-call measurement runs
}

var fullSizes = sizes{
	hotDocs: 128, hotLo: 500, hotHi: 4000,
	largeNodes: 100000,
	coldNodes:  200,
	extraDocs:  16,
	versions:   3,
	tailPuts:   32,
	replay: map[string]int{
		"hot_rotation": 1000,
		"large_doc":    36,
		"cold_plans":   planCacheCap + 76,
		"mixed_write":  1000,
	},
	minQueries:  200,
	layerBudget: 100 * time.Millisecond,
}

type opKind uint8

const (
	opQuery opKind = iota
	opBatch
	opPut
	opDelete
)

// op is one request of a stream.
type op struct {
	kind  opKind
	doc   int    // index into inputs.ids (first id of the window for a batch)
	query int    // index into inputs.queries, or -1 when src is generated
	src   string // query text
}

// inputs is everything one workload derives from the seed: the corpus as
// XML bytes, the query texts and the request stream. The served program
// sees nothing else.
type inputs struct {
	name    string
	durable bool
	ids     []string
	// xml[i][v] is version v of document i. Only mixed_write has more than
	// one version; ids past len(ids)-extra are never queried.
	xml     [][][]byte
	extra   int
	queries []string
	reader  int // the client whose /query stream the traced phase replays
	// stream returns request i of a client. It is a pure function, so a
	// replay sees exactly the requests the timed run saw.
	stream func(client, i int) op
	// prime puts the plan cache into the state the workload is about:
	// every repeated text cached, or the cache full of texts that never
	// come back.
	prime func() error
}

func (in *inputs) queried() int { return len(in.ids) - in.extra }

func (in *inputs) xmlBytes() int {
	n := 0
	for _, versions := range in.xml {
		n += len(versions[0])
	}
	return n
}

// corpusSHA identifies the corpus, all versions included.
func (in *inputs) corpusSHA() string {
	h := sha256.New()
	for i, versions := range in.xml {
		fmt.Fprintf(h, "%s %d\n", in.ids[i], len(versions))
		for _, x := range versions {
			h.Write(x)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// streamSHA identifies the first n requests of every client.
func (in *inputs) streamSHA(n int) string {
	h := sha256.New()
	for c := 0; c < clients; c++ {
		for i := 0; i < n; i++ {
			o := in.stream(c, i)
			fmt.Fprintf(h, "%d %d %d %s\n", o.kind, o.doc, o.query, o.src)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

var workloadNames = []string{"hot_rotation", "large_doc", "cold_plans", "mixed_write"}

func buildInputs(name string, seed int64, sz sizes) (*inputs, error) {
	switch name {
	case "hot_rotation":
		return hotRotation(seed, sz), nil
	case "large_doc":
		return largeDoc(seed, sz), nil
	case "cold_plans":
		return coldPlans(seed, sz), nil
	case "mixed_write":
		return mixedWrite(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// hotQueries are the repeated texts of hot_rotation and mixed_write: every
// query of the workload families that the default engine answers in at most
// 2 ms on a 2000-node document. The quadratic ones (Wadler[3], Full[1],
// Full[3], Core[1]) would turn the workload into a benchmark of themselves.
func hotQueries() []string {
	core, wadler, full := workload.CoreQueries(), workload.WadlerQueries(), workload.FullXPathQueries()
	return []string{
		core[0], core[2], core[3],
		wadler[0], wadler[1], wadler[2],
		full[0], full[2],
		workload.MixedQuery(),
		`count(//c)`,
		`/descendant::d[position()=last()]`,
		`id('77')/child::*`,
	}
}

// hotDocument builds one document of the rotation corpus. The three shapes
// differ in depth and fan-out, which is what the engines' costs depend on.
func hotDocument(nodes, shape int, seed int64) *xmltree.Document {
	switch shape % 3 {
	case 0:
		return workload.Scaled(nodes)
	case 1:
		return workload.Random(nodes, seed)
	}
	return workload.Nested(nodes)
}

// hotCorpus fills ids and xml with n documents in `versions` versions. The
// node counts are a fixed geometric ladder and rung j always has shape j mod
// 3; the seed shuffles which id gets which rung and draws the random shape's
// content. So the amount of work and of memory hardly depends on the seed.
func hotCorpus(in *inputs, rng *rand.Rand, n, versions int, sz sizes) {
	growth := math.Pow(float64(sz.hotHi)/float64(sz.hotLo), 1/float64(max(n-1, 1)))
	for i, rung := range rng.Perm(n) {
		nodes := int(float64(sz.hotLo) * math.Pow(growth, float64(rung)))
		in.ids = append(in.ids, fmt.Sprintf("doc%03d", i))
		vs := make([][]byte, versions)
		for v := range vs {
			vs[v] = []byte(hotDocument(nodes, rung+v, rng.Int63()).XMLString())
		}
		in.xml = append(in.xml, vs)
	}
}

// pairStream visits the (document, query) pairs of a repeated-query
// workload, each client from its own seeded offset with its own stride.
func pairStream(in *inputs, rng *rand.Rand, batches bool) func(client, i int) op {
	docs, nq := in.queried(), len(in.queries)
	pairs := docs * nq
	strides := [clients]int{pairStride0, pairStride1}
	var offsets [clients]int
	for c, stride := range strides {
		if gcd(stride, pairs) != 1 || stride%docs == 0 {
			panic(fmt.Sprintf("benchmark: stride %d does not walk %d documents × %d queries", stride, docs, nq))
		}
		offsets[c] = rng.Intn(pairs)
	}
	return func(client, i int) op {
		// The clients' batches are half a period apart, so that a batch
		// queues behind a query and not behind the other client's batch.
		if b := i + client*batchEvery/clients; batches && b%batchEvery == batchEvery-1 {
			b /= batchEvery
			q := (b + client) % nq
			return op{kind: opBatch, doc: (b*batchWindow + client*docs/clients) % docs, query: q, src: in.queries[q]}
		}
		p := (offsets[client] + i*strides[client]) % pairs
		return op{kind: opQuery, doc: p % docs, query: p / docs, src: in.queries[p/docs]}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// primeRepeated compiles every repeated text once, so that no timed or
// replayed request is the one that misses.
func primeRepeated(queries []string) func() error {
	return func() error {
		for _, q := range queries {
			if _, err := xpath.CompileCached(q); err != nil {
				return fmt.Errorf("prime %q: %w", q, err)
			}
		}
		return nil
	}
}

func hotRotation(seed int64, sz sizes) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{name: "hot_rotation", queries: hotQueries()}
	hotCorpus(in, rng, sz.hotDocs, 1, sz)
	in.stream = pairStream(in, rng, true)
	in.prime = primeRepeated(in.queries)
	return in
}

func largeDoc(seed int64, sz sizes) *inputs {
	rng := rand.New(rand.NewSource(seed))
	core, wadler := workload.CoreQueries(), workload.WadlerQueries()
	in := &inputs{
		name: "large_doc",
		ids:  []string{"scaled", "random"},
		xml: [][][]byte{
			{[]byte(workload.Scaled(sz.largeNodes).XMLString())},
			{[]byte(workload.Random(sz.largeNodes, rng.Int63()).XMLString())},
		},
		// Linear-time queries only: the axis kernels and set operations do
		// the work, not a quadratic predicate loop.
		queries: []string{
			core[0], core[2], core[3], wadler[0],
			`count(/descendant::b[child::d]/child::c)`,
			`/descendant::d[position()=last()]`,
		},
	}
	in.stream = pairStream(in, rng, false)
	in.prime = primeRepeated(in.queries)
	return in
}

// splitmix is a rand.Source that costs nothing to seed, so that query i of
// a cold stream can be generated on demand from (seed, client, i).
type splitmix struct{ s uint64 }

func (m *splitmix) Uint64() uint64 {
	m.s += 0x9e3779b97f4a7c15
	z := m.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
func (m *splitmix) Int63() int64    { return int64(m.Uint64() >> 1) }
func (m *splitmix) Seed(seed int64) { m.s = uint64(seed) }

// coldQuery returns a query text no other (client, i) shares: an axis chain
// from the fuzz generator plus a constant-true predicate that carries a
// unique number. The text is new to the plan cache, and evaluating it costs
// what the chain costs plus one comparison a candidate.
func coldQuery(seed int64, client, i int) string {
	uniq := i*clients + client
	src := &splitmix{s: uint64(seed)*0x9e3779b97f4a7c15 + uint64(uniq)}
	return fmt.Sprintf("%s[%d > 0]", fuzzgen.AxisChainQuery(rand.New(src)), uniq+1)
}

func coldPlans(seed int64, sz sizes) *inputs {
	in := &inputs{
		name: "cold_plans",
		ids:  []string{"figure2", "scaled"},
		xml: [][][]byte{
			{[]byte(workload.Figure2().XMLString())},
			{[]byte(workload.Scaled(sz.coldNodes).XMLString())},
		},
	}
	in.stream = func(client, i int) op {
		return op{kind: opQuery, doc: (i + client) % 2, query: -1, src: coldQuery(seed, client, i)}
	}
	// Texts from a client number no stream uses fill the cache, so the very
	// first timed request already evicts.
	in.prime = func() error {
		for i := 0; i < planCacheCap; i++ {
			if _, err := xpath.CompileCached(coldQuery(seed, clients, i)); err != nil {
				return fmt.Errorf("prime: %w", err)
			}
		}
		return nil
	}
	return in
}

// mixedWrite is hot_rotation's corpus and /query stream on a durable store,
// with client 0 writing instead of reading: each PUT installs the next
// version of a document.
func mixedWrite(seed int64, sz sizes) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{name: "mixed_write", durable: true, queries: hotQueries(), extra: sz.extraDocs}
	hotCorpus(in, rng, sz.hotDocs+sz.extraDocs, sz.versions, sz)
	read := pairStream(in, rng, false)
	in.reader = 1
	in.stream = func(client, i int) op {
		switch {
		case client != 0:
			return read(client, i)
		case i%deleteEvery == deleteEvery-1:
			// The runner follows the DELETE with a PUT of the same id. The
			// readers never query these ids, so a 404 is never a right answer.
			return op{kind: opDelete, doc: in.queried() + (i/deleteEvery)%in.extra, query: -1}
		}
		return op{kind: opPut, doc: i * writeStride % in.queried(), query: -1}
	}
	in.prime = primeRepeated(in.queries)
	return in
}
