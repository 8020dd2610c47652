package xmltree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// randomDoc builds a seeded random document of about n elements directly
// with the Builder (no dependency on internal/fuzzgen, which would cycle).
func randomDoc(t *testing.T, seed int64, n int) *Document {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"a", "b", "c", "d"}
	b := NewBuilder()
	b.Start("a")
	depth := 1
	for b.Count() < n {
		switch {
		case depth > 1 && rng.Intn(4) == 0:
			if err := b.End(); err != nil {
				t.Fatal(err)
			}
			depth--
		case depth < 7 && rng.Intn(3) == 0:
			b.Start(labels[rng.Intn(len(labels))])
			depth++
		default:
			b.Elem(labels[rng.Intn(len(labels))], fmt.Sprint(rng.Intn(50)))
		}
	}
	for depth > 0 {
		if err := b.End(); err != nil {
			t.Fatal(err)
		}
		depth--
	}
	doc, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestTopologyMatchesNodes checks every column of the flat topology against
// the pointer-based node accessors it mirrors.
func TestTopologyMatchesNodes(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		doc := randomDoc(t, seed, 120)
		topo := doc.Topology()
		if got, want := len(topo.KidOff), doc.NumNodes()+1; got != want {
			t.Fatalf("seed %d: len(KidOff) = %d, want %d", seed, got, want)
		}
		for _, n := range doc.Nodes() {
			pre := n.Pre()
			wantParent := int32(-1)
			if p := n.Parent(); p != nil {
				wantParent = int32(p.Pre())
			}
			if topo.Parent[pre] != wantParent {
				t.Fatalf("Parent[%d] = %d, want %d", pre, topo.Parent[pre], wantParent)
			}
			if int(topo.Start[pre]) != n.StartEvent() || int(topo.End[pre]) != n.EndEvent() {
				t.Fatalf("Start/End[%d] = %d/%d, want %d/%d",
					pre, topo.Start[pre], topo.End[pre], n.StartEvent(), n.EndEvent())
			}
			if int(topo.Level[pre]) != n.Level() || int(topo.SibIdx[pre]) != n.SiblingIndex() {
				t.Fatalf("Level/SibIdx[%d] mismatch", pre)
			}
			kids := topo.Kids(int32(pre))
			if len(kids) != len(n.Children()) {
				t.Fatalf("Kids(%d): %d children, want %d", pre, len(kids), len(n.Children()))
			}
			for i, k := range n.Children() {
				if int(kids[i]) != k.Pre() {
					t.Fatalf("Kids(%d)[%d] = %d, want %d", pre, i, kids[i], k.Pre())
				}
			}
			// SubEnd: the subtree [pre, SubEnd) must hold exactly the nodes
			// with start/end nested inside n's events.
			for _, m := range doc.Nodes() {
				inRange := m.Pre() >= pre && m.Pre() < int(topo.SubEnd[pre])
				inSubtree := m == n || m.IsDescendantOf(n)
				if inRange != inSubtree {
					t.Fatalf("SubEnd[%d]: node %d range=%v subtree=%v", pre, m.Pre(), inRange, inSubtree)
				}
			}
			if doc.LabelByID(topo.LabelID[pre]) != n.Label() {
				t.Fatalf("LabelID[%d] resolves to %q, want %q", pre, doc.LabelByID(topo.LabelID[pre]), n.Label())
			}
		}
		// Per-labelID bitsets agree with LabelSet.
		for id := int32(0); id < int32(doc.LabelCount()); id++ {
			label := doc.LabelByID(id)
			if label == "" {
				continue // the root's empty label has no T(t)
			}
			if !doc.LabelSetByID(id).Equal(doc.LabelSet(label)) {
				t.Fatalf("LabelSetByID(%d) != LabelSet(%q)", id, label)
			}
		}
	}
}

// TestSetAddRange cross-checks the word-parallel range insert against
// bit-at-a-time inserts, including the cardinality bookkeeping.
func TestSetAddRange(t *testing.T) {
	doc := randomDoc(t, 7, 200)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		a, b := NewSet(doc), NewSet(doc)
		// Pre-populate identically so range inserts overlap existing bits.
		for i := 0; i < 20; i++ {
			pre := rng.Intn(doc.NumNodes())
			a.AddPre(pre)
			b.AddPre(pre)
		}
		lo := rng.Intn(doc.NumNodes() + 1)
		hi := rng.Intn(doc.NumNodes() + 1)
		a.AddRange(lo, hi)
		for p := lo; p < hi; p++ {
			b.AddPre(p)
		}
		if !a.Equal(b) || a.Len() != b.Len() {
			t.Fatalf("AddRange(%d,%d): sets differ (len %d vs %d)", lo, hi, a.Len(), b.Len())
		}
	}
}

// TestSetLenConcurrentReaders pins the Set.Len data-race fix: a result set
// produced by word-level mutators is read by Len/IsEmpty/First from many
// goroutines at once. Before the fix, Len lazily wrote the cached
// cardinality on this read path (same class as the LabelSet race fixed
// earlier), which the race detector flagged.
func TestSetLenConcurrentReaders(t *testing.T) {
	doc := randomDoc(t, 11, 300)
	s := NewSet(doc)
	s.AddRange(1, doc.NumNodes())
	other := NewSet(doc)
	for p := 0; p < doc.NumNodes(); p += 3 {
		other.AddPre(p)
	}
	s.IntersectWith(other) // word-level mutation before the set is shared
	want := s.Len()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if s.Len() != want {
					panic("Len changed under concurrent readers")
				}
				if s.IsEmpty() {
					panic("IsEmpty changed under concurrent readers")
				}
				_ = s.First()
				_ = s.HasPre(3)
			}
		}()
	}
	wg.Wait()
}

// TestSetCardinalityInvariant checks that every mutator keeps the eager
// cardinality equal to the popcount of the words.
func TestSetCardinalityInvariant(t *testing.T) {
	doc := randomDoc(t, 13, 150)
	rng := rand.New(rand.NewSource(5))
	s := NewSet(doc)
	other := NewSet(doc)
	for p := 0; p < doc.NumNodes(); p += 2 {
		other.AddPre(p)
	}
	check := func(op string) {
		t.Helper()
		n := 0
		s.ForEachPre(func(int) { n++ })
		if s.Len() != n {
			t.Fatalf("after %s: Len() = %d, popcount = %d", op, s.Len(), n)
		}
	}
	for i := 0; i < 500; i++ {
		switch rng.Intn(7) {
		case 0:
			s.AddPre(rng.Intn(doc.NumNodes()))
			check("AddPre")
		case 1:
			s.RemovePre(rng.Intn(doc.NumNodes()))
			check("RemovePre")
		case 2:
			lo, hi := rng.Intn(doc.NumNodes()), rng.Intn(doc.NumNodes())
			s.AddRange(lo, hi)
			check("AddRange")
		case 3:
			s.UnionWith(other)
			check("UnionWith")
		case 4:
			s.IntersectWith(other)
			check("IntersectWith")
		case 5:
			s.SubtractWith(other)
			check("SubtractWith")
		case 6:
			s.CopyFrom(other)
			check("CopyFrom")
		}
	}
}

// TestLabelTableCanonical checks the label table: equal labels within one
// document resolve to the table's canonical string.
func TestLabelTableCanonical(t *testing.T) {
	doc, err := ParseString("<a><b/><b/><c><b/></c></a>")
	if err != nil {
		t.Fatal(err)
	}
	var bs []*Node
	for _, n := range doc.Nodes() {
		if n.Label() == "b" {
			bs = append(bs, n)
		}
	}
	if len(bs) != 3 {
		t.Fatalf("want 3 b nodes, got %d", len(bs))
	}
	for _, n := range bs {
		// Pointer-equal backing strings: unsafe-free check via the label table.
		if n.Label() != doc.LabelByID(doc.Topology().LabelID[n.Pre()]) {
			t.Fatal("label not canonicalized through the label table")
		}
	}
	if _, ok := doc.LabelIDOf("b"); !ok {
		t.Fatal("LabelIDOf(b) missing")
	}
	if _, ok := doc.LabelIDOf("zzz"); ok {
		t.Fatal("LabelIDOf(zzz) should be absent")
	}
	if doc.LabelCount() != 4 { // "", a, b, c
		t.Fatalf("LabelCount = %d, want 4", doc.LabelCount())
	}
}

// TestNamesSharedAcrossDocuments: two documents parsed separately, and in
// no store, share the backing bytes of equal labels and attribute names.
// (Multi-byte names: the runtime shares one-byte strings anyway.)
func TestNamesSharedAcrossDocuments(t *testing.T) {
	d1 := MustParseString(`<item code="1"><part unit="kg"/></item>`)
	d2 := MustParseString(`<item code="2"><part unit="m"/><item code="3"/></item>`)
	same := func(what, s1, s2 string) {
		t.Helper()
		if s1 != s2 || unsafe.StringData(s1) != unsafe.StringData(s2) {
			t.Errorf("%s: %q and %q do not share backing bytes", what, s1, s2)
		}
	}
	item1, item2 := d1.Root().Children()[0], d2.Root().Children()[0]
	part1, part2 := item1.Children()[0], item2.Children()[0]
	same("label item", item1.Label(), item2.Label())
	same("label part", part1.Label(), part2.Label())
	same("nested label item", item1.Label(), item2.Children()[1].Label())
	same("attribute code", item1.Attrs()[0].Name, item2.Attrs()[0].Name)
	same("attribute unit", part1.Attrs()[0].Name, part2.Attrs()[0].Name)
	id, _ := d2.LabelIDOf("part")
	same("label table", d2.LabelByID(id), part1.Label())
}
