package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"

	xpath "repro"
)

// answer is what a response is compared on: the cardinality of a node set,
// or the string form of a scalar.
type answer struct {
	nodeSet bool
	count   int
	value   string
}

// oracle holds the right answer of every (document version, repeated query)
// pair, computed by an engine the server does not use for these requests.
type oracle struct {
	served  xpath.Engine // the engine the server answered the first request with
	queries []*xpath.Query
	// answers[doc][version][query]
	answers [][][]answer
	// xmlSHA[doc][version] is the hash of the version as the store will
	// serialize it, for the durability check.
	xmlSHA [][]string
	// docs[doc][version] is kept only for a workload with generated query
	// texts, whose answers are computed after the window.
	docs [][]*xpath.Document
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// engine picks the reference engine for a query: the first of the
// linear-time Core XPath engine (where the query is in its fragment), the
// compiled VM and the top-down evaluator that is not the one the server
// answers with. Today the server answers with EngineAuto, which is
// OPTMINCONTEXT and shares no evaluation code with the first two. The
// top-down evaluator comes last because it needs 13 s for the rotation
// corpus where the others need 0.2 s, and the oracle runs before every run.
func (o *oracle) engine(q *xpath.Query) xpath.Engine {
	if q.Fragment() == xpath.CoreXPath && o.served != xpath.EngineCoreXPath {
		return xpath.EngineCoreXPath
	}
	if o.served != xpath.EngineCompiled {
		return xpath.EngineCompiled
	}
	return xpath.EngineTopDown
}

func (o *oracle) answer(q *xpath.Query, doc *xpath.Document) (answer, error) {
	res, err := q.EvaluateWith(doc, xpath.Options{Engine: o.engine(q)})
	if err != nil {
		return answer{}, err
	}
	if res.IsNodeSet() {
		return answer{nodeSet: true, count: len(res.Nodes())}, nil
	}
	return answer{value: res.Text()}, nil
}

func newOracle(in *inputs, served xpath.Engine) (*oracle, error) {
	o := &oracle{
		served:  served,
		answers: make([][][]answer, len(in.ids)),
		xmlSHA:  make([][]string, len(in.ids)),
		docs:    make([][]*xpath.Document, len(in.ids)),
	}
	for _, src := range in.queries {
		q, err := xpath.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("oracle: %q: %w", src, err)
		}
		o.queries = append(o.queries, q)
	}
	keepDocs := len(in.queries) == 0
	// Documents are independent, so they are spread over the processors.
	errs := make([]error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(in.ids) && errs[w] == nil; i += len(errs) {
				errs[w] = o.fill(in, i, keepDocs)
			}
		}()
	}
	wg.Wait()
	return o, errors.Join(errs...)
}

// fill computes everything the oracle knows about document i.
func (o *oracle) fill(in *inputs, i int, keepDocs bool) error {
	versions := in.xml[i]
	o.answers[i] = make([][]answer, len(versions))
	o.xmlSHA[i] = make([]string, len(versions))
	if keepDocs {
		o.docs[i] = make([]*xpath.Document, len(versions))
	}
	for v, x := range versions {
		doc, err := xpath.ParseDocument(bytes.NewReader(x))
		if err != nil {
			return fmt.Errorf("oracle: parse %s: %w", in.ids[i], err)
		}
		if in.durable {
			o.xmlSHA[i][v] = sha(doc.XML())
		}
		if keepDocs {
			o.docs[i][v] = doc
		}
		o.answers[i][v] = make([]answer, len(o.queries))
		for k, q := range o.queries {
			if o.answers[i][v][k], err = o.answer(q, doc); err != nil {
				return fmt.Errorf("oracle: %q on %s: %w", in.queries[k], in.ids[i], err)
			}
		}
	}
	return nil
}

// want returns the right answer of a repeated query on a document version;
// version numbers wrap round the versions the corpus has.
func (o *oracle) want(doc, version, query int) answer {
	vs := o.answers[doc]
	return vs[version%len(vs)][query]
}

// eval answers a generated query text.
func (o *oracle) eval(doc *xpath.Document, src string) (answer, error) {
	q, err := xpath.Compile(src)
	if err != nil {
		return answer{}, err
	}
	return o.answer(q, doc)
}
