package axes

import (
	"math/bits"

	"repro/internal/xmltree"
)

// This file holds the zero-allocation axis kernels: set-at-a-time axis
// functions computed over the document's flat structure-of-arrays topology
// (xmltree.Topology) and raw bitset words, writing into caller-owned
// destination sets. The key facts the kernels exploit:
//
//   - a preorder numbering makes every subtree a contiguous pre range
//     [p, SubEnd[p]), so descendant/following/preceding images are bit-range
//     operations (word-parallel) instead of per-node scans;
//   - start events are monotone in pre, so document-order boundaries are pre
//     boundaries;
//   - children are CSR rows of pre indexes, so sibling axes touch only the
//     relevant rows.
//
// Ownership rules (documented in the README): dst is owned by the caller,
// is cleared on entry, and must not alias x, test, or any shared document
// set (AllNodes/AllElements/LabelSet). A Scratch may be reused across any
// number of kernel calls but never concurrently.

// Scratch is caller-owned scratch memory for the axis kernels. One Scratch
// per evaluation (or per worker) removes all per-call scratch allocations:
// the sibling kernels need a per-parent "seen" mark set, which Scratch
// carries across calls and rebinds when the document changes.
//
// The zero value is ready to use. A Scratch must not be shared between
// goroutines.
type Scratch struct {
	seen *xmltree.Set
}

// NewScratch returns an empty scratch arena. Allocation of the backing
// memory is deferred until a kernel needs it, sized for the document then
// in use.
func NewScratch() *Scratch { return &Scratch{} }

// Release drops the scratch's document-bound memory so a pooled Scratch
// does not pin a document it will no longer serve; the next kernel call
// reallocates for the document then in use.
func (sc *Scratch) Release() {
	if sc != nil {
		sc.seen = nil
	}
}

// HighWater returns the scratch arena's current high-water mark in bytes
// (the bitset words held for the sibling-kernel dedup marks). Tracing
// engines report it in their step spans; the call is allocation-free and a
// nil Scratch reports 0.
//
//xpathlint:noalloc
func (sc *Scratch) HighWater() int64 {
	if sc == nil || sc.seen == nil {
		return 0
	}
	return int64(len(sc.seen.Words())) * 8
}

// seenSet returns a cleared mark set over doc, reusing the previous backing
// memory when the document matches. A nil Scratch allocates a fresh set
// (the compatibility path of the non-Into wrappers).
func (sc *Scratch) seenSet(doc *xmltree.Document) *xmltree.Set {
	if sc == nil {
		return xmltree.NewSet(doc)
	}
	if sc.seen == nil || sc.seen.Document() != doc {
		sc.seen = xmltree.NewSet(doc)
		return sc.seen
	}
	sc.seen.Clear()
	return sc.seen
}

// ApplyInto computes χ(X) (Definition 1) into dst, which is cleared first.
// dst must not alias x. sc may be nil (a fresh scratch is allocated when a
// kernel needs one); passing a reused Scratch makes the call allocation-free
// for every axis except id (whose output depends on string values, not
// topology). Runs in O(|D|/w + |X| + |output|) word operations for the
// structural axes.
//
//xpathlint:noalloc
func ApplyInto(dst *xmltree.Set, a Axis, x *xmltree.Set, sc *Scratch) {
	dst.Clear()
	if x.IsEmpty() {
		return
	}
	doc := x.Document()
	t := doc.Topology()
	words := x.Words()

	switch a {
	case Self:
		dst.CopyFrom(x)

	case Child:
		// Children of members, via CSR rows: O(Σ |kids(x)|).
		for wi, w := range words {
			for w != 0 {
				pre := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				for _, k := range t.KidList[t.KidOff[pre]:t.KidOff[pre+1]] {
					dst.AddPre(int(k))
				}
			}
		}

	case Parent:
		for wi, w := range words {
			for w != 0 {
				pre := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				if p := t.Parent[pre]; p >= 0 {
					dst.AddPre(int(p))
				}
			}
		}

	case Descendant, DescendantOrSelf:
		// Subtrees are contiguous pre ranges; members in document order have
		// non-decreasing covered frontiers, so each member either extends the
		// covered range (one word-parallel AddRange) or is already inside it.
		cover := 0
		for wi, w := range words {
			for w != 0 {
				pre := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				hi := int(t.SubEnd[pre])
				lo := pre + 1
				if lo < cover {
					lo = cover
				}
				if lo < hi {
					dst.AddRange(lo, hi)
					cover = hi
				}
			}
		}
		if a == DescendantOrSelf {
			dst.UnionWith(x)
		}

	case Ancestor, AncestorOrSelf:
		// Climb parent chains, stopping at the first node already in dst:
		// every stop point was fully climbed by an earlier member, so the
		// total work is O(|output| + |X|).
		for wi, w := range words {
			for w != 0 {
				pre := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				for p := t.Parent[pre]; p >= 0 && !dst.HasPre(int(p)); p = t.Parent[p] {
					dst.AddPre(int(p))
				}
			}
		}
		if a == AncestorOrSelf {
			dst.UnionWith(x)
		}

	case Following:
		// following(X) = the pre range after the earliest-ending member's
		// subtree: start events are monotone in pre, so {y | start(y) >
		// end(x)} is exactly [SubEnd[x], |D|), and the union over X is the
		// range of the minimal SubEnd.
		minSub := len(t.SubEnd)
		for wi, w := range words {
			for w != 0 {
				pre := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				if s := int(t.SubEnd[pre]); s < minSub {
					minSub = s
				}
			}
		}
		dst.AddRange(minSub, doc.NumNodes())

	case Preceding:
		// preceding(X) = preceding of the last member in document order:
		// everything before it minus its ancestors (and the root, which the
		// range below never includes because it starts at pre 1).
		last := x.LastPre()
		dst.AddRange(1, last)
		for p := t.Parent[last]; p > 0; p = t.Parent[p] {
			dst.RemovePre(int(p))
		}

	case FollowingSibling:
		// Document order visits each parent's first X-child first; later
		// X-children of the same parent are subsumed, so one CSR row suffix
		// per touched parent is added. The per-parent dedup marks live in
		// the caller's scratch.
		seen := sc.seenSet(doc)
		for wi, w := range words {
			for w != 0 {
				pre := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				p := t.Parent[pre]
				if p < 0 || seen.HasPre(int(p)) {
					continue
				}
				seen.AddPre(int(p))
				row := t.KidList[t.KidOff[p]:t.KidOff[p+1]]
				for _, k := range row[t.SibIdx[pre]+1:] {
					dst.AddPre(int(k))
				}
			}
		}

	case PrecedingSibling:
		// Reverse document order visits each parent's last X-child first.
		seen := sc.seenSet(doc)
		for wi := len(words) - 1; wi >= 0; wi-- {
			w := words[wi]
			for w != 0 {
				pre := wi<<6 + 63 - bits.LeadingZeros64(w)
				w &^= 1 << uint(pre&63)
				p := t.Parent[pre]
				if p < 0 || seen.HasPre(int(p)) {
					continue
				}
				seen.AddPre(int(p))
				row := t.KidList[t.KidOff[p]:t.KidOff[p+1]]
				for _, k := range row[:t.SibIdx[pre]] {
					dst.AddPre(int(k))
				}
			}
		}

	case ID:
		nodes := doc.Nodes()
		for wi, w := range words {
			for w != 0 {
				pre := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				doc.DerefIDsInto(dst, nodes[pre].StringValue())
			}
		}

	default:
		//xpathlint:ignore noalloc cold panic path, unreachable for valid axes
		panic("axes: ApplyInto: unknown axis " + a.String())
	}
}

// ApplyTest computes the fused location-step image χ(X) ∩ T(t) into dst:
// the axis kernel runs first, then the node-test bitset is ANDed
// word-parallel instead of re-testing nodes one at a time. test is the
// T(t) set of the step's node test (Document.LabelSet / AllElements /
// AllNodes); nil means node(), i.e. no restriction. dst must alias neither
// x nor test.
//
//xpathlint:noalloc
func ApplyTest(dst *xmltree.Set, a Axis, x *xmltree.Set, test *xmltree.Set, sc *Scratch) {
	ApplyInto(dst, a, x, sc)
	if test != nil {
		dst.IntersectWith(test)
	}
}

// ApplyInverseInto computes χ⁻¹(Y) (Definition 1) into dst, which is
// cleared first. For the structural axes this is ApplyInto of the symmetric
// axis; for the id-axis it is the F[[Op]]⁻¹ computation of Section 6,
// evaluated without materializing any per-node dereference sets.
//
//xpathlint:noalloc
func ApplyInverseInto(dst *xmltree.Set, a Axis, y *xmltree.Set, sc *Scratch) {
	if a != ID {
		ApplyInto(dst, a.Inverse(), y, sc)
		return
	}
	dst.Clear()
	if y.IsEmpty() {
		return
	}
	doc := y.Document()
	for _, n := range doc.Nodes() {
		if n.IsRoot() {
			continue
		}
		if doc.DerefIDsIntersect(n.StringValue(), y) {
			dst.AddPre(n.Pre())
		}
	}
}
