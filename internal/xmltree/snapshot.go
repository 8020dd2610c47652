package xmltree

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// Snapshot is a compact binary serialization of a Document: labels are
// interned into a string table and the tree is emitted as a preorder event
// stream. Loading a snapshot rebuilds the document — including all derived
// indexes (document order, event numbers, string values, label sets, ids) —
// without re-parsing XML. It is the persistence substrate the paper's
// conclusion points at ("using our techniques for XPath processors that
// query XML documents stored in a database"): documents can be prepared
// once and memory-mapped into evaluation processes cheaply.
//
// Format (all integers unsigned varints, strings length-prefixed):
//
//	magic "XPT1"
//	labelCount, labels…
//	events…  where each event is one of
//	    0 end-of-element
//	    1 start-of-element: labelIdx, attrCount, (name, value)…
//	    2 text: content
//	    3 end-of-document
const snapshotMagic = "XPT1"

const (
	evEnd byte = iota
	evStart
	evText
	evEOF
)

// WriteSnapshot serializes the document.
func (d *Document) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}

	// Label table, in order of first appearance.
	labelIdx := make(map[string]int)
	var labels []string
	for _, n := range d.nodes[1:] {
		if _, ok := labelIdx[n.label]; !ok {
			labelIdx[n.label] = len(labels)
			labels = append(labels, n.label)
		}
	}
	writeUvarint(bw, uint64(len(labels)))
	for _, l := range labels {
		writeSnapString(bw, l)
	}

	var walk func(n *Node) error
	walk = func(n *Node) error {
		if !n.IsRoot() {
			if err := bw.WriteByte(evStart); err != nil {
				return err
			}
			writeUvarint(bw, uint64(labelIdx[n.label]))
			writeUvarint(bw, uint64(len(n.attrs)))
			for _, a := range n.attrs {
				writeSnapString(bw, a.Name)
				writeSnapString(bw, a.Value)
			}
		}
		for _, seg := range n.segments {
			if seg.child != nil {
				if err := walk(seg.child); err != nil {
					return err
				}
			} else {
				if err := bw.WriteByte(evText); err != nil {
					return err
				}
				writeSnapString(bw, seg.text)
			}
		}
		if !n.IsRoot() {
			if err := bw.WriteByte(evEnd); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(d.root); err != nil {
		return err
	}
	if err := bw.WriteByte(evEOF); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadSnapshot reads a snapshot written by WriteSnapshot and rebuilds the
// document with all evaluation indexes. DefaultLimits applies:
// snapshot bytes come from disk or the network, so they get the same
// adversarial-input treatment as raw XML.
func LoadSnapshot(r io.Reader) (*Document, error) {
	return LoadSnapshotWithLimits(r, DefaultLimits())
}

// LoadSnapshotWithLimits is LoadSnapshot under caller-chosen ingest bounds.
//
// Every count read from the stream is treated as a claim, not a fact: the
// label table and attribute lists grow with the bytes actually present
// (capped preallocation) so a short, corrupted stream declaring huge counts
// fails with a read error after a small allocation instead of committing
// gigabytes up front.
func LoadSnapshotWithLimits(r io.Reader, l Limits) (*Document, error) {
	d, _, err := LoadSnapshotCounted(r, l)
	return d, err
}

// LoadSnapshotCounted is LoadSnapshotWithLimits reporting additionally how
// many bytes of r the snapshot occupied — the exact count the decoder
// consumed, read-ahead excluded. Framed embeddings (the corpus formats of
// internal/store) use it to detect slack: declared frame bytes the
// document stream never accounted for.
func LoadSnapshotCounted(r io.Reader, l Limits) (*Document, int64, error) {
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	d, err := loadSnapshotFrom(br, l)
	return d, cr.n - int64(br.Buffered()), err
}

func loadSnapshotFrom(br *bufio.Reader, l Limits) (*Document, error) {
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("xmltree: snapshot: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("xmltree: snapshot: bad magic %q", magic)
	}
	nLabels, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("xmltree: snapshot: label count: %w", err)
	}
	if nLabels > 1<<24 {
		return nil, fmt.Errorf("xmltree: snapshot: implausible label count %d", nLabels)
	}
	labels := make([]string, 0, min(nLabels, 4096))
	for i := uint64(0); i < nLabels; i++ {
		s, err := readSnapString(br)
		if err != nil {
			return nil, fmt.Errorf("xmltree: snapshot: label %d: %w", i, err)
		}
		labels = append(labels, s)
	}

	b := NewBuilder()
	depth := 0
	for {
		ev, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("xmltree: snapshot: event: %w", err)
		}
		switch ev {
		case evStart:
			li, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if li >= uint64(len(labels)) {
				return nil, fmt.Errorf("xmltree: snapshot: label index %d out of range", li)
			}
			nAttrs, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if nAttrs > 1<<20 {
				return nil, fmt.Errorf("xmltree: snapshot: implausible attribute count %d", nAttrs)
			}
			attrs := make([]Attr, 0, min(nAttrs, 64))
			for i := uint64(0); i < nAttrs; i++ {
				var a Attr
				if a.Name, err = readSnapString(br); err != nil {
					return nil, err
				}
				if a.Value, err = readSnapString(br); err != nil {
					return nil, err
				}
				attrs = append(attrs, a)
			}
			depth++
			if err := l.checkDepth(depth); err != nil {
				return nil, err
			}
			b.Start(labels[li], attrs...)
			if err := l.checkNodes(b.count); err != nil {
				return nil, err
			}
		case evText:
			s, err := readSnapString(br)
			if err != nil {
				return nil, err
			}
			b.Text(s)
		case evEnd:
			if err := b.End(); err != nil {
				return nil, fmt.Errorf("xmltree: snapshot: %w", err)
			}
			depth--
		case evEOF:
			return b.Done()
		default:
			return nil, fmt.Errorf("xmltree: snapshot: unknown event %d", ev)
		}
	}
}

// writeUvarint appends an unsigned varint.
func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	// bufio.Writer.Write never returns an error until Flush.
	_, _ = w.Write(buf[:n])
}

// writeSnapString appends a length-prefixed string.
func writeSnapString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	_, _ = w.WriteString(s)
}

// readSnapString reads a length-prefixed string, rejecting implausible
// lengths (the cap admits large text segments; callers with tighter
// domains — e.g. document IDs — validate at write time).
//
// The length prefix is a claim, not a fact: beyond one chunk the buffer
// grows with the bytes actually read, so a truncated stream declaring a
// gigabyte string fails with an io error after at most one chunk's
// allocation instead of committing the claimed size up front.
func readSnapString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<30 {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	const chunk = 1 << 20
	if n <= chunk {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	var sb strings.Builder
	buf := make([]byte, chunk)
	for remaining := n; remaining > 0; {
		m := uint64(chunk)
		if remaining < m {
			m = remaining
		}
		if _, err := io.ReadFull(r, buf[:m]); err != nil {
			return "", err
		}
		sb.Write(buf[:m])
		remaining -= m
	}
	return sb.String(), nil
}
