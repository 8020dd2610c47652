package axes

import "repro/internal/xmltree"

// ApplyReference computes χ(X) with the original pointer-chasing,
// allocate-per-call implementation (scanning []*Node via Parent()/
// Children() with fresh scratch slices). It is retained as the semantic
// reference: the property suite holds the flat kernels bit-identical to it
// on randomized inputs.
func ApplyReference(a Axis, x *xmltree.Set) *xmltree.Set {
	doc := x.Document()
	out := xmltree.NewSet(doc)
	if x.IsEmpty() {
		return out
	}
	switch a {
	case Self:
		out.UnionWith(x)

	case Child:
		// y ∈ child(X) iff parent(y) ∈ X: one scan over dom.
		for _, n := range doc.Nodes() {
			if p := n.Parent(); p != nil && x.Has(p) {
				out.Add(n)
			}
		}

	case Parent:
		x.ForEach(func(n *xmltree.Node) {
			if p := n.Parent(); p != nil {
				out.Add(p)
			}
		})

	case Descendant, DescendantOrSelf:
		// One preorder scan carrying "some proper ancestor is in X". The
		// document-order slice is a preorder, so a node's ancestors have
		// already been classified when it is reached; memoize per node via
		// a flags array indexed by pre.
		marked := make([]bool, doc.NumNodes())
		for _, n := range doc.Nodes() {
			p := n.Parent()
			if p != nil && (marked[p.Pre()] || x.Has(p)) {
				marked[n.Pre()] = true
				out.Add(n)
			}
		}
		if a == DescendantOrSelf {
			out.UnionWith(x)
		}

	case Ancestor, AncestorOrSelf:
		// y is an ancestor of some x ∈ X iff some child subtree of y
		// contains an X node. Postorder aggregation: scan dom in reverse
		// preorder; by then every child has been classified.
		contains := make([]bool, doc.NumNodes())
		nodes := doc.Nodes()
		for i := len(nodes) - 1; i >= 0; i-- {
			n := nodes[i]
			c := x.Has(n)
			if !c {
				for _, k := range n.Children() {
					if contains[k.Pre()] {
						c = true
						break
					}
				}
			}
			contains[n.Pre()] = c
			if p := n.Parent(); c && p != nil {
				out.Add(p)
			}
		}
		if a == AncestorOrSelf {
			out.UnionWith(x)
		}

	case Following:
		// y follows some x ∈ X iff start(y) > end(x) for the x with the
		// smallest end event. One pass to find it, one pass to collect.
		minEnd := -1
		x.ForEach(func(n *xmltree.Node) {
			if minEnd == -1 || n.EndEvent() < minEnd {
				minEnd = n.EndEvent()
			}
		})
		for _, n := range doc.Nodes() {
			if n.StartEvent() > minEnd {
				out.Add(n)
			}
		}

	case Preceding:
		// y precedes some x ∈ X iff end(y) < start(x) for the x with the
		// largest start event. Ancestors are excluded by the event test.
		maxStart := -1
		x.ForEach(func(n *xmltree.Node) {
			if n.StartEvent() > maxStart {
				maxStart = n.StartEvent()
			}
		})
		for _, n := range doc.Nodes() {
			if n.EndEvent() < maxStart {
				out.Add(n)
			}
		}

	case FollowingSibling:
		// For each parent, collect children positioned after the first
		// X-child. Total work is Σ children = O(|D|).
		seen := make(map[*xmltree.Node]int) // parent → index of first X child
		x.ForEach(func(n *xmltree.Node) {
			p := n.Parent()
			if p == nil {
				return
			}
			idx := n.SiblingIndex()
			if old, ok := seen[p]; !ok || idx < old {
				seen[p] = idx
			}
		})
		for p, idx := range seen {
			kids := p.Children()
			for _, k := range kids[idx+1:] {
				out.Add(k)
			}
		}

	case PrecedingSibling:
		seen := make(map[*xmltree.Node]int) // parent → index of last X child
		x.ForEach(func(n *xmltree.Node) {
			p := n.Parent()
			if p == nil {
				return
			}
			idx := n.SiblingIndex()
			if old, ok := seen[p]; !ok || idx > old {
				seen[p] = idx
			}
		})
		for p, idx := range seen {
			kids := p.Children()
			for _, k := range kids[:idx] {
				out.Add(k)
			}
		}

	case ID:
		x.ForEach(func(n *xmltree.Node) {
			out.UnionWith(doc.DerefIDs(n.StringValue()))
		})

	default:
		panic("axes: ApplyReference: unknown axis " + a.String())
	}
	return out
}

// ApplyInverseReference is the reference counterpart of ApplyInverse.
func ApplyInverseReference(a Axis, y *xmltree.Set) *xmltree.Set {
	if a != ID {
		return ApplyReference(a.Inverse(), y)
	}
	doc := y.Document()
	out := xmltree.NewSet(doc)
	if y.IsEmpty() {
		return out
	}
	for _, n := range doc.Nodes() {
		if n.IsRoot() {
			continue
		}
		if doc.DerefIDs(n.StringValue()).Intersects(y) {
			out.Add(n)
		}
	}
	return out
}
