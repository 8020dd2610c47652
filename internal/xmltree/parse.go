package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Ingest instruments. Parse times include the topology build (Done calls
// finish); programmatic Builder use reports only the build histogram and the
// topology footprint.
var (
	mParseDocs  = metrics.Default().Counter("xmltree.parse.docs")
	mParseNodes = metrics.Default().Counter("xmltree.parse.nodes")
	mParseBytes = metrics.Default().Counter("xmltree.parse.bytes")
	mParseNs    = metrics.Default().Histogram("xmltree.parse_ns")
	mBuildNs    = metrics.Default().Histogram("xmltree.build_ns")
	mTopoBytes  = metrics.Default().Counter("xmltree.topology_bytes")
)

// Ingest bounds. The derived-index builder (Document.finish) and the
// snapshot writer recurse once per nesting level, so an adversarial
// document that is deep enough overflows the goroutine stack — a fatal,
// unrecoverable crash, unlike a panic. The node cap bounds ingest memory.
// Both defaults are far above anything a real document does (XML in the
// wild nests tens of levels, not thousands) while keeping the recursion
// comfortably inside Go's default stack budget.
const (
	// DefaultMaxDepth is the element-nesting bound Parse and LoadSnapshot
	// apply when the caller does not choose its own Limits.
	DefaultMaxDepth = 4096
	// DefaultMaxNodes is the matching node-count bound (elements plus the
	// document root).
	DefaultMaxNodes = 1 << 26
)

// ErrDepthLimit and ErrNodeLimit classify ingest-limit failures; both are
// wrapped with the offending limit, comparable with errors.Is.
var (
	ErrDepthLimit = errors.New("xmltree: document exceeds the nesting depth limit")
	ErrNodeLimit  = errors.New("xmltree: document exceeds the node count limit")
)

// Limits bounds one document ingest against adversarial input. A zero or
// negative field imposes no corresponding limit; DefaultLimits returns the
// bounds Parse and LoadSnapshot use on their own.
type Limits struct {
	// MaxDepth caps element nesting depth.
	MaxDepth int
	// MaxNodes caps the total node count, document root included.
	MaxNodes int
}

// DefaultLimits returns the ingest bounds applied by Parse and LoadSnapshot.
func DefaultLimits() Limits {
	return Limits{MaxDepth: DefaultMaxDepth, MaxNodes: DefaultMaxNodes}
}

// checkDepth enforces MaxDepth against the current nesting depth.
func (l Limits) checkDepth(depth int) error {
	if l.MaxDepth > 0 && depth > l.MaxDepth {
		return fmt.Errorf("%w (%d)", ErrDepthLimit, l.MaxDepth)
	}
	return nil
}

// checkNodes enforces MaxNodes against the current node count.
func (l Limits) checkNodes(count int) error {
	if l.MaxNodes > 0 && count > l.MaxNodes {
		return fmt.Errorf("%w (%d)", ErrNodeLimit, l.MaxNodes)
	}
	return nil
}

// countingReader counts the raw bytes the decoder consumes.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Parse reads an XML document from r and returns its tree representation.
// Comments and processing instructions are skipped (the paper's data model
// has a single node kind); attributes are kept as data on their element.
// Namespace prefixes are retained verbatim in labels — the paper excludes
// namespace processing. DefaultLimits applies; ParseWithLimits chooses
// other bounds (the programmatic Builder is never limited — generators
// synthesize arbitrarily large documents through it).
func Parse(r io.Reader) (*Document, error) {
	return ParseWithLimits(r, DefaultLimits())
}

// ParseWithLimits is Parse under caller-chosen ingest bounds; exceeding one
// returns an error wrapping ErrDepthLimit or ErrNodeLimit.
func ParseWithLimits(r io.Reader, l Limits) (*Document, error) {
	t0 := trace.Now()
	cr := &countingReader{r: r}
	dec := xml.NewDecoder(cr)
	// The evaluation algorithms never dereference external entities; the
	// default strict decoder settings are what we want, but we accept
	// repeated attributes etc. as encoding/xml does.
	b := NewBuilder()
	depth := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			if err := l.checkDepth(depth); err != nil {
				return nil, err
			}
			attrs := make([]Attr, 0, len(t.Attr))
			for _, a := range t.Attr {
				attrs = append(attrs, Attr{Name: attrName(a.Name), Value: a.Value})
			}
			b.Start(attrName(t.Name), attrs...)
			if err := l.checkNodes(b.count); err != nil {
				return nil, err
			}
		case xml.EndElement:
			if err := b.End(); err != nil {
				return nil, err
			}
			depth--
		case xml.CharData:
			if depth > 0 {
				b.Text(string(t))
			}
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Not part of the data model (§2.1).
		}
	}
	d, err := b.Done()
	if err != nil {
		return nil, err
	}
	mParseDocs.Add(1)
	mParseNodes.Add(int64(d.NumNodes()))
	mParseBytes.Add(cr.n)
	mParseNs.Observe(trace.Now() - t0)
	return d, nil
}

func attrName(n xml.Name) string {
	if n.Space == "" {
		return n.Local
	}
	// encoding/xml resolves prefixes to URIs; for the paper's namespace-free
	// model we keep the local name and note the space only when it would
	// otherwise be ambiguous. xml:... attributes keep their conventional
	// prefix form (the decoder reports them under the XML namespace URI).
	if n.Space == "xml" || n.Space == "http://www.w3.org/XML/1998/namespace" {
		return "xml:" + n.Local
	}
	return n.Local
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// MustParseString is ParseString for known-good documents (tests, examples);
// it panics on error.
func MustParseString(s string) *Document {
	d, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return d
}

// Builder constructs documents programmatically, which the workload
// generators use to synthesize large documents without paying XML
// serialization costs. Calls must form a well-nested element sequence:
//
//	b := NewBuilder()
//	b.Start("a"); b.Text("hi"); b.Start("b"); b.End(); b.End()
//	doc, err := b.Done()
type Builder struct {
	root  *Node
	stack []*Node
	count int
	err   error
}

// NewBuilder returns a builder with an empty document root on the stack.
func NewBuilder() *Builder {
	root := &Node{}
	return &Builder{root: root, stack: []*Node{root}, count: 1}
}

// Start opens a new element with the given label and attributes. The
// element keeps attrs without copying it, and Done replaces each Name with
// its canonical copy, so the slice belongs to the builder from this call on.
func (b *Builder) Start(label string, attrs ...Attr) *Builder {
	if b.err != nil {
		return b
	}
	parent := b.stack[len(b.stack)-1]
	n := &Node{parent: parent, label: label, attrs: attrs}
	parent.kids = append(parent.kids, n)
	parent.segments = append(parent.segments, segment{child: n})
	b.stack = append(b.stack, n)
	b.count++
	return b
}

// Text appends character data to the currently open element. Text directly
// under the document root is rejected (XML well-formedness).
func (b *Builder) Text(s string) *Builder {
	if b.err != nil || s == "" {
		return b
	}
	cur := b.stack[len(b.stack)-1]
	if cur == b.root {
		b.err = fmt.Errorf("xmltree: character data outside the document element")
		return b
	}
	cur.segments = append(cur.segments, segment{text: s})
	return b
}

// End closes the currently open element.
func (b *Builder) End() error {
	if b.err != nil {
		return b.err
	}
	if len(b.stack) <= 1 {
		b.err = fmt.Errorf("xmltree: End without matching Start")
		return b.err
	}
	b.stack = b.stack[:len(b.stack)-1]
	return nil
}

// Elem emits a complete element with optional text content and no children;
// it is shorthand for Start+Text+End.
func (b *Builder) Elem(label, text string, attrs ...Attr) *Builder {
	b.Start(label, attrs...)
	b.Text(text)
	if err := b.End(); err != nil {
		return b
	}
	return b
}

// Count returns the number of nodes created so far, including the document
// root; generators use it to stop at a target |D|.
func (b *Builder) Count() int { return b.count }

// Depth returns the number of currently open elements (document root
// excluded).
func (b *Builder) Depth() int { return len(b.stack) - 1 }

// Done finalizes and returns the document. It fails if elements remain open,
// if no document element was produced, or if more than one top-level element
// was produced.
func (b *Builder) Done() (*Document, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.stack) != 1 {
		return nil, fmt.Errorf("xmltree: %d element(s) left open", len(b.stack)-1)
	}
	if len(b.root.kids) == 0 {
		return nil, fmt.Errorf("xmltree: document has no document element")
	}
	if len(b.root.kids) > 1 {
		return nil, fmt.Errorf("xmltree: document has %d top-level elements, want 1", len(b.root.kids))
	}
	d := &Document{root: b.root}
	t0 := trace.Now()
	d.finish()
	mBuildNs.Observe(trace.Now() - t0)
	mTopoBytes.Add(d.topo.Bytes())
	return d, nil
}

// WriteXML serializes the document back to XML. It is used by examples and
// by round-trip tests; the output has no declaration and no indentation so
// that string values survive the round trip exactly.
func (d *Document) WriteXML(w io.Writer) error {
	var write func(n *Node) error
	write = func(n *Node) error {
		if !n.IsRoot() {
			if _, err := io.WriteString(w, "<"+n.label); err != nil {
				return err
			}
			for _, a := range n.attrs {
				if _, err := io.WriteString(w, " "+a.Name+`="`+xmlEscape(a.Value)+`"`); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, ">"); err != nil {
				return err
			}
		}
		for _, s := range n.segments {
			if s.child != nil {
				if err := write(s.child); err != nil {
					return err
				}
			} else if _, err := io.WriteString(w, xmlEscape(s.text)); err != nil {
				return err
			}
		}
		if !n.IsRoot() {
			if _, err := io.WriteString(w, "</"+n.label+">"); err != nil {
				return err
			}
		}
		return nil
	}
	return write(d.root)
}

// XMLString returns the document serialized as XML.
func (d *Document) XMLString() string {
	var b strings.Builder
	// strings.Builder's Write never fails.
	_ = d.WriteXML(&b)
	return b.String()
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
