package axes

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/xmltree"
)

// buildDoc makes a seeded random document with ids and numeric-ish text so
// the id-axis has something to dereference.
func buildDoc(t testing.TB, seed int64, n int) *xmltree.Document {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"a", "b", "c", "d"}
	b := xmltree.NewBuilder()
	b.Start("a", xmltree.Attr{Name: "id", Value: "0"})
	id := 1
	depth := 1
	for b.Count() < n {
		switch {
		case depth > 1 && rng.Intn(4) == 0:
			if err := b.End(); err != nil {
				t.Fatal(err)
			}
			depth--
		case depth < 6 && rng.Intn(3) == 0:
			b.Start(labels[rng.Intn(len(labels))], xmltree.Attr{Name: "id", Value: fmt.Sprint(id)})
			id++
			depth++
			b.Text(fmt.Sprintf("%d %d", rng.Intn(2*n), rng.Intn(2*n)))
		default:
			b.Elem(labels[rng.Intn(len(labels))], fmt.Sprint(rng.Intn(2*n)))
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

// randomSet draws a random subset of the document's nodes, occasionally
// empty, a singleton, or the full domain — the edge shapes the kernels
// branch on.
func randomSet(rng *rand.Rand, doc *xmltree.Document) *xmltree.Set {
	s := xmltree.NewSet(doc)
	switch rng.Intn(6) {
	case 0: // empty
	case 1: // singleton (root included sometimes)
		s.AddPre(rng.Intn(doc.NumNodes()))
	case 2: // everything
		s.AddRange(0, doc.NumNodes())
	default:
		for pre := 0; pre < doc.NumNodes(); pre++ {
			if rng.Intn(4) == 0 {
				s.AddPre(pre)
			}
		}
	}
	return s
}

// TestKernelsMatchReference holds the flat-topology kernels bit-identical
// to the retained pointer-chasing reference on randomized documents and
// node sets, for every axis, forward and inverse, with and without a
// shared Scratch.
func TestKernelsMatchReference(t *testing.T) {
	sc := NewScratch()
	for seed := int64(1); seed <= 8; seed++ {
		doc := buildDoc(t, seed, 80+int(seed)*17)
		rng := rand.New(rand.NewSource(seed * 101))
		dst := xmltree.NewSet(doc)
		for trial := 0; trial < 40; trial++ {
			x := randomSet(rng, doc)
			for _, a := range All() {
				want := ApplyReference(a, x)
				ApplyInto(dst, a, x, sc)
				if !dst.Equal(want) || dst.Len() != want.Len() {
					t.Fatalf("seed %d trial %d: ApplyInto(%v) = %v, want %v", seed, trial, a, dst, want)
				}
				ApplyInto(dst, a, x, nil) // nil-Scratch path
				if !dst.Equal(want) {
					t.Fatalf("seed %d trial %d: ApplyInto(%v, nil scratch) diverged", seed, trial, a)
				}
				wantInv := ApplyInverseReference(a, x)
				ApplyInverseInto(dst, a, x, sc)
				if !dst.Equal(wantInv) || dst.Len() != wantInv.Len() {
					t.Fatalf("seed %d trial %d: ApplyInverseInto(%v) = %v, want %v", seed, trial, a, dst, wantInv)
				}
			}
		}
	}
}

// TestApplyTestFusion checks the fused axis+test kernel against the
// two-pass reference (apply, then intersect with T(t)).
func TestApplyTestFusion(t *testing.T) {
	sc := NewScratch()
	for seed := int64(1); seed <= 4; seed++ {
		doc := buildDoc(t, seed, 100)
		rng := rand.New(rand.NewSource(seed * 7))
		dst := xmltree.NewSet(doc)
		tests := []*xmltree.Set{nil, doc.AllNodes(), doc.AllElements(),
			doc.LabelSet("b"), doc.LabelSet("d"), doc.LabelSet("nosuch")}
		for trial := 0; trial < 30; trial++ {
			x := randomSet(rng, doc)
			for _, a := range All() {
				for _, ts := range tests {
					want := ApplyReference(a, x)
					if ts != nil {
						want.IntersectWith(ts)
					}
					ApplyTest(dst, a, x, ts, sc)
					if !dst.Equal(want) {
						t.Fatalf("seed %d: ApplyTest(%v) diverged from reference", seed, a)
					}
				}
			}
		}
	}
}

// TestApplyWrappersMatchInto pins the allocating wrappers to the kernels.
func TestApplyWrappersMatchInto(t *testing.T) {
	doc := buildDoc(t, 3, 90)
	rng := rand.New(rand.NewSource(17))
	dst := xmltree.NewSet(doc)
	for trial := 0; trial < 20; trial++ {
		x := randomSet(rng, doc)
		for _, a := range All() {
			ApplyInto(dst, a, x, nil)
			if got := Apply(a, x); !got.Equal(dst) {
				t.Fatalf("Apply(%v) != ApplyInto", a)
			}
			ApplyInverseInto(dst, a, x, nil)
			if got := ApplyInverse(a, x); !got.Equal(dst) {
				t.Fatalf("ApplyInverse(%v) != ApplyInverseInto", a)
			}
		}
	}
}

// TestKernelAllocs pins the structural-axis kernels at zero allocations per
// call once dst and Scratch are reused — the regression guard for the
// zero-alloc contract. (The id axis is excluded: its output depends on
// string values and may grow the destination via map lookups, but it is
// also documented as the one non-zero-alloc axis.)
func TestKernelAllocs(t *testing.T) {
	doc := buildDoc(t, 9, 400)
	sc := NewScratch()
	dst := xmltree.NewSet(doc)
	x := xmltree.NewSet(doc)
	for pre := 1; pre < doc.NumNodes(); pre += 3 {
		x.AddPre(pre)
	}
	test := doc.LabelSet("b")
	structural := []Axis{Self, Child, Parent, Descendant, Ancestor,
		DescendantOrSelf, AncestorOrSelf, Following, Preceding,
		FollowingSibling, PrecedingSibling}
	for _, a := range structural {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			if n := testing.AllocsPerRun(20, func() { ApplyInto(dst, a, x, sc) }); n != 0 {
				t.Errorf("ApplyInto(%v): %v allocs/op, want 0", a, n)
			}
			if n := testing.AllocsPerRun(20, func() { ApplyTest(dst, a, x, test, sc) }); n != 0 {
				t.Errorf("ApplyTest(%v): %v allocs/op, want 0", a, n)
			}
			if n := testing.AllocsPerRun(20, func() { ApplyInverseInto(dst, a, x, sc) }); n != 0 {
				t.Errorf("ApplyInverseInto(%v): %v allocs/op, want 0", a, n)
			}
		})
	}
	// The id axis must stay allocation-free too: DerefIDsInto tokenizes in
	// place and map lookups by substring do not allocate.
	if n := testing.AllocsPerRun(20, func() { ApplyInto(dst, ID, x, sc) }); n != 0 {
		t.Errorf("ApplyInto(id): %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { ApplyInverseInto(dst, ID, x, sc) }); n != 0 {
		t.Errorf("ApplyInverseInto(id): %v allocs/op, want 0", n)
	}
	// HighWater is read on every traced span; it must be allocation-free and
	// reflect the scratch the sibling kernels just used.
	if n := testing.AllocsPerRun(20, func() { _ = sc.HighWater() }); n != 0 {
		t.Errorf("Scratch.HighWater: %v allocs/op, want 0", n)
	}
	if hw := sc.HighWater(); hw <= 0 {
		t.Errorf("Scratch.HighWater = %d after sibling kernels ran, want > 0", hw)
	}
	if hw := (*Scratch)(nil).HighWater(); hw != 0 {
		t.Errorf("nil Scratch HighWater = %d, want 0", hw)
	}

	// The engines interleave budget checks with kernel calls on the hot
	// path; a live Budget (fuel and deadline armed) must keep the combined
	// loop allocation-free, exactly like the Tracer nil-check contract.
	bud := budget.New(budget.Limits{Steps: 1 << 40, Deadline: time.Hour})
	if n := testing.AllocsPerRun(20, func() {
		if err := bud.Step(1); err != nil {
			t.Fatal(err)
		}
		ApplyInto(dst, Descendant, x, sc)
	}); n != 0 {
		t.Errorf("ApplyInto with live Budget: %v allocs/op, want 0", n)
	}
}
