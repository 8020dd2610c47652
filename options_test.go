package xpath

// Table-driven edge-case tests for EvaluateWith options and the engine
// name registry: context nodes from foreign documents, Position/Size
// validation and defaults, and context-node-relative paths on every engine.

import (
	"strings"
	"testing"
)

func TestEvaluateWithOptionErrors(t *testing.T) {
	doc := MustCompileDoc(t, `<a><b id="1"><c>x</c></b><b id="2"/></a>`)
	other := MustCompileDoc(t, `<a><b id="1"/></a>`)
	q := MustCompile(`child::b`)

	cases := []struct {
		name    string
		opts    Options
		wantErr string
	}{
		{"foreign context node", Options{ContextNode: other.Root()}, "different document"},
		{"foreign non-root node", Options{ContextNode: other.ByID("1")}, "different document"},
		{"position exceeds size", Options{Position: 5, Size: 3}, "exceeds context size"},
		{"position exceeds default size", Options{Position: 2}, "exceeds context size"},
	}
	for _, eng := range Engines() {
		for _, tc := range cases {
			opts := tc.opts
			opts.Engine = eng
			_, err := q.EvaluateWith(doc, opts)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%v/%s: err = %v, want %q", eng, tc.name, err, tc.wantErr)
			}
		}
	}

	// E↑ tables are Θ(Size²): an absurd outer context size must fail with a
	// clean error, not an overflow panic.
	_, err := q.EvaluateWith(doc, Options{Engine: EngineBottomUp, Position: 1, Size: 1 << 30})
	if err == nil || !strings.Contains(err.Error(), "table range") {
		t.Errorf("bottomup huge Size: err = %v, want table-range error", err)
	}
}

// TestEvaluateWithPositionDefaults: the outermost context defaults to
// 〈root, 1, 1〉 and explicit Position/Size reach position()/last().
func TestEvaluateWithPositionDefaults(t *testing.T) {
	doc := MustCompileDoc(t, `<a><b/></a>`)
	cases := []struct {
		name string
		src  string
		opts Options
		want float64
	}{
		{"default position", `position()`, Options{}, 1},
		{"default size", `last()`, Options{}, 1},
		{"explicit position", `position()`, Options{Position: 3, Size: 7}, 3},
		{"explicit size", `last()`, Options{Position: 3, Size: 7}, 7},
		{"size without position", `position() + last()`, Options{Size: 4}, 5},
		{"position arithmetic", `last() - position()`, Options{Position: 2, Size: 9}, 7},
	}
	// CoreXPath is excluded: position()/last() are outside the Core XPath
	// fragment by Definition 12.
	engines := []Engine{EngineOptMinContext, EngineMinContext, EngineTopDown,
		EngineBottomUp, EngineNaive, EngineCompiled}
	for _, eng := range engines {
		for _, tc := range cases {
			opts := tc.opts
			opts.Engine = eng
			res, err := MustCompile(tc.src).EvaluateWith(doc, opts)
			if err != nil {
				t.Errorf("%v/%s: %v", eng, tc.name, err)
				continue
			}
			if got := res.Number(); got != tc.want {
				t.Errorf("%v/%s: %v want %v", eng, tc.name, got, tc.want)
			}
		}
	}
}

// TestEvaluateWithContextRelative: context-node-relative paths on every
// engine (CoreXPath included — the queries stay in its fragment).
func TestEvaluateWithContextRelative(t *testing.T) {
	doc := MustCompileDoc(t,
		`<a id="0"><b id="1"><c id="2">21</c><c id="3">22</c></b><b id="4"><d id="5">100</d></b></a>`)
	cases := []struct {
		name   string
		src    string
		cnID   string
		wantID []string
	}{
		{"children of b1", `child::c`, "1", []string{"2", "3"}},
		{"parent step", `parent::a`, "1", []string{"0"}},
		{"self from leaf", `self::d`, "5", []string{"5"}},
		{"sibling walk", `following-sibling::b`, "1", []string{"4"}},
		{"ancestor from leaf", `ancestor::*`, "2", []string{"0", "1"}},
		{"descendant from section", `descendant::c`, "1", []string{"2", "3"}},
		{"relative then predicate", `child::c[following-sibling::c]`, "1", []string{"2"}},
		{"absolute ignores context", `/child::a/child::b/child::d`, "2", []string{"5"}},
	}
	for _, eng := range Engines() {
		for _, tc := range cases {
			cn := doc.ByID(tc.cnID)
			if cn == nil {
				t.Fatalf("no node %q", tc.cnID)
			}
			res, err := MustCompile(tc.src).EvaluateWith(doc, Options{Engine: eng, ContextNode: cn})
			if err != nil {
				t.Errorf("%v/%s: %v", eng, tc.name, err)
				continue
			}
			var got []string
			for _, n := range res.Nodes() {
				id, _ := n.Attr("id")
				got = append(got, id)
			}
			if strings.Join(got, ",") != strings.Join(tc.wantID, ",") {
				t.Errorf("%v/%s: %v want %v", eng, tc.name, got, tc.wantID)
			}
		}
	}
}

// TestEngineNameRoundTrip: Engines() ↔ EngineByName ↔ String must
// round-trip, deterministically, with auto resolving as the alias and
// unknown names rejected. (EngineByName used to scan a map, making its
// answer iteration-order-dependent.)
func TestEngineNameRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Engines() {
		name := e.String()
		if seen[name] {
			t.Errorf("duplicate engine name %q", name)
		}
		seen[name] = true
		back, ok := EngineByName(name)
		if !ok || back != e {
			t.Errorf("EngineByName(%q) = %v, %v; want %v", name, back, ok, e)
		}
	}
	if len(seen) != 7 {
		t.Errorf("Engines() lists %d engines, want 7", len(seen))
	}
	if e, ok := EngineByName("auto"); !ok || e != EngineAuto {
		t.Errorf("EngineByName(auto) = %v, %v", e, ok)
	}
	if _, ok := EngineByName("no-such-engine"); ok {
		t.Error("EngineByName accepted an unknown name")
	}
	if got := Engine(99).String(); got != "engine(99)" {
		t.Errorf("unknown engine String() = %q", got)
	}
	// Determinism: repeated resolution always yields the same engine.
	for i := 0; i < 100; i++ {
		if e, _ := EngineByName("compiled"); e != EngineCompiled {
			t.Fatalf("EngineByName(compiled) unstable: %v", e)
		}
	}
}

// TestEngineResolved: auto resolves to the compiled VM, and every
// selectable engine to itself.
func TestEngineResolved(t *testing.T) {
	if got := EngineAuto.Resolved(); got != EngineCompiled {
		t.Errorf("EngineAuto.Resolved() = %v, want compiled", got)
	}
	for _, e := range Engines() {
		if got := e.Resolved(); got != e {
			t.Errorf("%v.Resolved() = %v", e, got)
		}
	}
}

// MustCompileDoc parses a document or fails the test.
func MustCompileDoc(t *testing.T, xml string) *Document {
	t.Helper()
	doc, err := ParseDocumentString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}
