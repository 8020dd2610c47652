// Package xmltree implements the XML data model of Gottlob/Koch/Pichler
// (ICDE 2003, Section 2.1): an unranked, ordered, labeled tree over a node
// domain dom, together with the auxiliary machinery the paper's algorithms
// rely on — document order <doc, node tests T(t), string values strval, and
// the deref_ids function backing the id() core-library function.
//
// Following the paper, all nodes are of one kind; the synthetic document
// root (the node selected by "/") exists as Node 0 of every Document but is
// not part of dom: no node test matches it except node(), so it never
// appears in query results unless explicitly addressed.
//
// Documents are immutable after construction, which makes every accessor
// safe for concurrent readers.
package xmltree

import (
	"sort"
	"strings"
	"unicode"
	"unique"
)

// Node is a single node of the document tree. The zero value is not useful;
// Nodes are created by Parse or by a Builder and are immutable afterwards.
type Node struct {
	doc    *Document
	parent *Node
	kids   []*Node

	// segments interleaves character data and element children in document
	// order, so that StringValue can reproduce exactly the concatenation of
	// non-tag strings between the node's start and end tags (§2.1).
	segments []segment

	label string
	attrs []Attr

	// pre is the node's index in Document.Nodes, i.e. its position in
	// document order. The document root has pre == 0.
	pre int
	// start and end are pre/post event numbers: start is assigned when the
	// node's opening tag is seen, end when the closing tag is seen. They
	// give O(1) tests for the descendant, following and preceding relations.
	start, end int
	// level is the depth of the node; the document root has level 0.
	level int
	// sibIdx is the node's position among its parent's children.
	sibIdx int

	strval string
}

// segment is one piece of a node's direct content: either text or a child
// element (never both).
type segment struct {
	text  string
	child *Node
}

// Attr is a single attribute of an element. The paper's data model does not
// include an attribute axis; attributes are retained purely as data (most
// importantly the "id" attribute feeding deref_ids).
type Attr struct {
	Name  string
	Value string
}

// Document returns the document the node belongs to.
func (n *Node) Document() *Document { return n.doc }

// Parent returns the node's parent, or nil for the document root.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the node's element children in document order. The
// returned slice is shared and must not be modified.
func (n *Node) Children() []*Node { return n.kids }

// Label returns the node's tag name. The document root has the empty label.
func (n *Node) Label() string { return n.label }

// IsRoot reports whether the node is the synthetic document root (the node
// addressed by "/").
func (n *Node) IsRoot() bool { return n.parent == nil }

// Pre returns the node's document-order (preorder) index; the document root
// has Pre 0, the document element Pre 1.
func (n *Node) Pre() int { return n.pre }

// Level returns the node's depth; the document root is at level 0.
func (n *Node) Level() int { return n.level }

// SiblingIndex returns the node's position among its parent's children
// (0-based). The document root has index 0.
func (n *Node) SiblingIndex() int { return n.sibIdx }

// StartEvent returns the node's opening-tag event number. Together with
// EndEvent it gives O(1) descendant/following/preceding tests:
// y is a descendant of x iff start(x) < start(y) and end(y) < end(x);
// y follows x iff start(y) > end(x).
func (n *Node) StartEvent() int { return n.start }

// EndEvent returns the node's closing-tag event number.
func (n *Node) EndEvent() int { return n.end }

// Attrs returns the node's attributes in document order. The returned slice
// is shared and must not be modified.
func (n *Node) Attrs() []Attr { return n.attrs }

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// StringValue returns strval(n): the concatenation of all character data
// between the node's start and end tags, in document order (§2.1). Values
// are precomputed when the document is built, so the accessor is O(1) and
// safe for concurrent readers.
func (n *Node) StringValue() string { return n.strval }

// computeStrval fills n.strval from the (already computed) children's
// values; Document.finish calls it in post-order.
func (n *Node) computeStrval() {
	// Fast paths: leaves with zero or one text segment need no builder.
	switch len(n.segments) {
	case 0:
		n.strval = ""
		return
	case 1:
		if n.segments[0].child != nil {
			n.strval = n.segments[0].child.strval
		} else {
			n.strval = n.segments[0].text
		}
		return
	}
	var b strings.Builder
	for _, s := range n.segments {
		if s.child != nil {
			b.WriteString(s.child.strval)
		} else {
			b.WriteString(s.text)
		}
	}
	n.strval = b.String()
}

// Before reports whether n precedes m in document order (n <doc m).
func (n *Node) Before(m *Node) bool { return n.pre < m.pre }

// IsAncestorOf reports whether n is a proper ancestor of m.
func (n *Node) IsAncestorOf(m *Node) bool {
	return n.start < m.start && m.end < n.end
}

// IsDescendantOf reports whether n is a proper descendant of m.
func (n *Node) IsDescendantOf(m *Node) bool { return m.IsAncestorOf(n) }

// FollowingSiblings returns the siblings after n in document order.
func (n *Node) FollowingSiblings() []*Node {
	if n.parent == nil {
		return nil
	}
	sib := n.parent.kids
	for i, c := range sib {
		if c == n {
			return sib[i+1:]
		}
	}
	return nil
}

// PrecedingSiblings returns the siblings before n, in document order
// (callers that need reverse document order iterate backwards).
func (n *Node) PrecedingSiblings() []*Node {
	if n.parent == nil {
		return nil
	}
	sib := n.parent.kids
	for i, c := range sib {
		if c == n {
			return sib[:i]
		}
	}
	return nil
}

// Document is an immutable parsed XML document: the node domain dom plus the
// synthetic root, in document order, with the auxiliary indexes used by the
// evaluation algorithms.
type Document struct {
	root  *Node
	nodes []*Node // document order; nodes[0] is the root

	ids      map[string]*Node
	allElems *Set // T(*): every node except the document root
	allNodes *Set // node(): every node including the document root
	emptySet *Set // shared T(t) for labels absent from the document

	// Flat structure-of-arrays tree encoding (see topology.go) plus the
	// per-document label table backing it: labels[id] is the canonical
	// label of dense label ID id, labelSets[id] its T(t) bitset. attrNames
	// holds the canonical attribute names. The handles keep those strings
	// shared across documents for as long as this document lives.
	topo      Topology
	labels    []unique.Handle[string]
	labelIDs  map[string]int32
	labelSets []*Set
	attrNames []unique.Handle[string]
}

// Root returns the synthetic document root (the node selected by "/").
func (d *Document) Root() *Node { return d.root }

// Nodes returns all nodes in document order, including the document root at
// index 0. The returned slice is shared and must not be modified.
func (d *Document) Nodes() []*Node { return d.nodes }

// Size returns |dom|: the number of nodes excluding the document root.
func (d *Document) Size() int { return len(d.nodes) - 1 }

// NumNodes returns the total node count including the document root; it is
// the universe size of node Sets over this document.
func (d *Document) NumNodes() int { return len(d.nodes) }

// Node returns the node with the given document-order index.
func (d *Document) Node(pre int) *Node { return d.nodes[pre] }

// ByID returns the node whose "id" attribute equals the given key, or nil.
// When several nodes share an id, the first in document order wins, per the
// XPath 1.0 deref_ids semantics.
func (d *Document) ByID(id string) *Node { return d.ids[id] }

// DerefIDs interprets s as a whitespace-separated list of keys and returns
// the set of nodes whose ids are contained in the list (§2.1 deref_ids).
func (d *Document) DerefIDs(s string) *Set {
	out := NewSet(d)
	for _, key := range strings.Fields(s) {
		if n := d.ids[key]; n != nil {
			out.Add(n)
		}
	}
	return out
}

// DerefIDsInto adds deref_ids(s) to dst. It is the allocation-free form of
// DerefIDs used by the axis kernels: the key list is tokenized in place
// (same whitespace classes as strings.Fields) and dst is not cleared.
func (d *Document) DerefIDsInto(dst *Set, s string) {
	forEachField(s, func(key string) bool {
		if n := d.ids[key]; n != nil {
			dst.AddPre(n.pre)
		}
		return true
	})
}

// DerefIDsIntersect reports whether deref_ids(s) ∩ y ≠ ∅ without
// materializing the dereferenced set.
func (d *Document) DerefIDsIntersect(s string, y *Set) bool {
	hit := false
	forEachField(s, func(key string) bool {
		if n := d.ids[key]; n != nil && y.HasPre(n.pre) {
			hit = true
			return false
		}
		return true
	})
	return hit
}

// forEachField calls f for every whitespace-separated field of s (the
// fields strings.Fields would return), stopping early when f returns false.
func forEachField(s string, f func(string) bool) {
	start := -1
	for i, r := range s {
		if isSpaceRune(r) {
			if start >= 0 {
				if !f(s[start:i]) {
					return
				}
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		f(s[start:])
	}
}

// isSpaceRune mirrors unicode.IsSpace for the rune classes strings.Fields
// splits on, with the ASCII fast path inlined.
func isSpaceRune(r rune) bool {
	switch r {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	case 0x85, 0xA0:
		return true
	}
	return r > 0xFF && unicode.IsSpace(r)
}

// LabelSet returns T(t) for a tag name t: the set of nodes labeled t. The
// returned set is cached and shared; callers must not modify it.
func (d *Document) LabelSet(label string) *Set {
	if id, ok := d.labelIDs[label]; ok {
		return d.labelSets[id]
	}
	// Unknown labels share one canonical empty set per document, built at
	// finish() time: caching per unknown label here would write the map and
	// break the document's safe-for-concurrent-readers guarantee.
	return d.emptySet
}

// AllElements returns T(*): every node except the document root. The
// returned set is shared; callers must not modify it.
func (d *Document) AllElements() *Set { return d.allElems }

// AllNodes returns the set matched by node(): every node including the
// document root. The returned set is shared; callers must not modify it.
func (d *Document) AllNodes() *Set { return d.allNodes }

// finish assigns pre/start/end numbers, builds the label and id indexes, and
// freezes the document. It is called exactly once by Parse and Builder.Done.
func (d *Document) finish() {
	d.nodes = d.nodes[:0]
	d.ids = make(map[string]*Node)
	counter := 0
	var walk func(n *Node, level int)
	var order []*Node
	walk = func(n *Node, level int) {
		n.doc = d
		n.pre = len(order)
		n.level = level
		n.start = counter
		counter++
		order = append(order, n)
		for i, c := range n.kids {
			c.sibIdx = i
			walk(c, level+1)
		}
		n.end = counter
		counter++
	}
	walk(d.root, 0)
	d.nodes = order
	// String values, post-order so children are ready before their parents.
	for i := len(order) - 1; i >= 0; i-- {
		order[i].computeStrval()
	}

	d.allElems = NewSet(d)
	d.allNodes = NewSet(d)
	d.emptySet = NewSet(d)
	for _, n := range d.nodes {
		d.allNodes.Add(n)
		if n.parent == nil {
			continue
		}
		d.allElems.Add(n)
		if id, ok := n.Attr("id"); ok {
			if _, dup := d.ids[id]; !dup {
				d.ids[id] = n
			}
		}
	}
	d.buildTopology()
}

// SortDocOrder sorts a slice of nodes into document order in place.
func SortDocOrder(nodes []*Node) {
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].pre < nodes[j].pre })
}
