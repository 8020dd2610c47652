package xmltree

import "unique"

// Topology is the flat structure-of-arrays encoding of a document's tree
// shape, built once at finish() time. All slices are indexed by the node's
// document-order (pre) index and are immutable after construction, so they
// are safe for any number of concurrent readers.
//
// The encoding exploits that a preorder numbering makes every subtree a
// contiguous pre range: node p's descendants are exactly the pre indexes
// [p+1, SubEnd[p]). The set-at-a-time axis kernels of internal/axes run
// over these arrays and over raw bitset words instead of pointer-chasing
// Parent()/Children(), which is where their constant factor comes from.
type Topology struct {
	// Parent[p] is the pre index of p's parent, or -1 for the document root.
	Parent []int32
	// Start[p] and End[p] are the pre/post event numbers (StartEvent and
	// EndEvent of the node API): y is a descendant of x iff
	// Start[x] < Start[y] and End[y] < End[x].
	Start, End []int32
	// Level[p] is the node's depth; the document root has level 0.
	Level []int32
	// SibIdx[p] is the node's position among its parent's children.
	SibIdx []int32
	// SubEnd[p] is one past the pre index of p's last descendant: the
	// subtree rooted at p occupies exactly the pre range [p, SubEnd[p]).
	SubEnd []int32
	// LabelID[p] identifies the node's label in the document's label table
	// (Document.LabelCount/LabelByID); the root's empty label has an ID too.
	LabelID []int32
	// KidOff/KidList encode the children lists in CSR form: the children of
	// node p, in sibling order, are KidList[KidOff[p]:KidOff[p+1]].
	// len(KidOff) == NumNodes()+1.
	KidOff  []int32
	KidList []int32
}

// Topology returns the document's flat structure-of-arrays encoding. The
// returned struct and all of its slices are shared and must not be modified.
func (d *Document) Topology() *Topology { return &d.topo }

// Kids returns the children of the node with pre index p as a shared slice
// of pre indexes (the CSR row of the topology).
func (t *Topology) Kids(p int32) []int32 {
	return t.KidList[t.KidOff[p]:t.KidOff[p+1]]
}

// Bytes returns the memory footprint of the topology's column arrays in
// bytes (the structure-of-arrays encoding is the document's dominant
// axis-kernel working set, so the observability layer reports it).
func (t *Topology) Bytes() int64 {
	return 4 * int64(len(t.Parent)+len(t.Start)+len(t.End)+len(t.Level)+
		len(t.SibIdx)+len(t.SubEnd)+len(t.LabelID)+len(t.KidOff)+len(t.KidList))
}

// buildTopology fills d.topo and the label table from the finished node
// slice. Called exactly once, by finish, after pre/start/end/level/sibIdx
// have been assigned.
//
// Every distinct element label and attribute name is canonicalized once per
// document with unique.Make, and each node's strings are replaced by the
// canonical copy. Equal names are then pointer-equal within the document and
// across all live documents, and the parser's per-document copies become
// collectable. The document keeps the handles (labels, attrNames), so the
// runtime drops a name only once no live document holds it. This is the
// last write to the nodes: from here on the document is immutable and any
// number of goroutines may read it.
func (d *Document) buildTopology() {
	n := len(d.nodes)
	t := &d.topo
	// One backing array for the seven per-node columns keeps them adjacent.
	backing := make([]int32, 7*n)
	t.Parent, backing = backing[:n:n], backing[n:]
	t.Start, backing = backing[:n:n], backing[n:]
	t.End, backing = backing[:n:n], backing[n:]
	t.Level, backing = backing[:n:n], backing[n:]
	t.SibIdx, backing = backing[:n:n], backing[n:]
	t.SubEnd, backing = backing[:n:n], backing[n:]
	t.LabelID = backing[:n:n]
	t.KidOff = make([]int32, n+1)
	t.KidList = make([]int32, n-1) // every node but the root is some child

	d.labelIDs = make(map[string]int32)
	attrNames := make(map[string]unique.Handle[string])
	for pre, nd := range d.nodes {
		if p := nd.parent; p != nil {
			t.Parent[pre] = int32(p.pre)
		} else {
			t.Parent[pre] = -1
		}
		t.Start[pre] = int32(nd.start)
		t.End[pre] = int32(nd.end)
		t.Level[pre] = int32(nd.level)
		t.SibIdx[pre] = int32(nd.sibIdx)
		t.KidOff[pre+1] = t.KidOff[pre] + int32(len(nd.kids))

		id, ok := d.labelIDs[nd.label]
		if !ok {
			id = int32(len(d.labels))
			h := unique.Make(nd.label)
			d.labels = append(d.labels, h)
			d.labelIDs[h.Value()] = id
		}
		nd.label = d.labels[id].Value()
		t.LabelID[pre] = id
		for i := range nd.attrs {
			a := &nd.attrs[i]
			h, ok := attrNames[a.Name]
			if !ok {
				h = unique.Make(a.Name)
				attrNames[h.Value()] = h
				d.attrNames = append(d.attrNames, h)
			}
			a.Name = h.Value()
		}
	}
	for pre, nd := range d.nodes {
		row := t.KidList[t.KidOff[pre]:t.KidOff[pre+1]]
		for i, k := range nd.kids {
			row[i] = int32(k.pre)
		}
	}
	// SubEnd in reverse preorder: a leaf's subtree is [p, p+1); otherwise it
	// ends where the last child's subtree ends (children have higher pre, so
	// they are already done when their parent is reached).
	for pre := n - 1; pre >= 0; pre-- {
		if t.KidOff[pre] == t.KidOff[pre+1] {
			t.SubEnd[pre] = int32(pre + 1)
		} else {
			t.SubEnd[pre] = t.SubEnd[t.KidList[t.KidOff[pre+1]-1]]
		}
	}

	// T(t) per label ID. The root (pre 0) is in no T(t): node tests never
	// match it by name, so a label only the root carries maps to emptySet.
	d.labelSets = make([]*Set, len(d.labels))
	for pre := 1; pre < n; pre++ {
		id := t.LabelID[pre]
		if d.labelSets[id] == nil {
			d.labelSets[id] = NewSet(d)
		}
		d.labelSets[id].AddPre(pre)
	}
	for id, s := range d.labelSets {
		if s == nil {
			d.labelSets[id] = d.emptySet
		}
	}
}

// LabelCount returns the number of distinct labels in the document
// (including the root's empty label).
func (d *Document) LabelCount() int { return len(d.labels) }

// LabelByID returns the canonical label string with the given dense ID.
func (d *Document) LabelByID(id int32) string { return d.labels[id].Value() }

// LabelIDOf returns the dense ID of a label and whether the label occurs in
// the document at all.
func (d *Document) LabelIDOf(label string) (int32, bool) {
	id, ok := d.labelIDs[label]
	return id, ok
}

// LabelSetByID returns the per-labelID bitset T(label) for a dense label ID.
// The returned set is shared; callers must not modify it.
func (d *Document) LabelSetByID(id int32) *Set { return d.labelSets[id] }
