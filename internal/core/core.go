// Package core implements the paper's two new algorithms:
//
//   - MINCONTEXT (Section 3, pseudo-code in Section 6): full XPath 1.0 in
//     time O(|D|⁴·|Q|²) and space O(|D|²·|Q|²) (Theorem 7), by (i)
//     restricting each context-value table to the relevant context
//     Relev(N), (ii) treating outermost location paths as node sets rather
//     than relations, and (iii) looping over 〈cp,cs〉 pairs instead of
//     tabling them;
//
//   - OPTMINCONTEXT (Section 5, Algorithm 8): a pre-pass that evaluates
//     "bottom-up location paths" — subexpressions boolean(π) and π RelOp s
//     with context-independent s — by backward propagation through inverse
//     axes (Section 4), filling their tables in linear space, then running
//     MINCONTEXT over the remainder. On the Extended Wadler Fragment this
//     yields O(|D|²·|Q|²) time and O(|D|·|Q|²) space (Theorem 10), and on
//     Core XPath location paths O(|D|·|π|) time (Theorem 13).
//
// The procedure names below mirror the paper's: evalOutermostLocpath,
// evalByCnodeOnly, evalSingleContext, evalInnerLocpath, evalBottomupPath
// and propagatePathBackwards.
//
// One fidelity correction, made on purpose: in the positional
// branch of propagate_path_backwards, the paper's pseudo-code computes
// predicate positions within the backward-propagated candidate subset
// Z ⊆ Y′. Positions are defined by Definition 2 over *all* candidates
// χ(x) ∩ T(t); we evaluate them there and intersect with Y′ afterwards,
// which preserves both XPath semantics and the complexity bounds.
package core

import (
	"fmt"
	"sync"

	"repro/internal/axes"
	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/syntax"
	"repro/internal/values"
	"repro/internal/xmltree"
)

// Options toggles the individual design choices of Section 3.1 so the
// ablation experiments (E11, E12) can measure their effect. The zero value
// enables everything, i.e. full MINCONTEXT.
type Options struct {
	// DisableRelev switches off the relevant-context restriction: every
	// non-path node is treated as depending on 〈cn,cp,cs〉, so nothing
	// scalar is tabled and all predicate work happens in per-context
	// recomputation loops.
	DisableRelev bool
	// DisableOutermostSet switches off the special treatment of outermost
	// location paths: the query's top-level path is evaluated through
	// evalInnerLocpath, materializing the O(|D|²) pair relation the paper's
	// "special treatment" avoids.
	DisableOutermostSet bool
}

// Engine evaluates queries with MINCONTEXT (bottomUp == false) or
// OPTMINCONTEXT (bottomUp == true).
type Engine struct {
	opts     Options
	bottomUp bool
	// scratch pools axis-kernel scratch arenas: one is checked out per
	// evaluation, so concurrent callers (e.g. the workers of a store batch)
	// each reuse one arena across all their evaluations instead of paying
	// per-axis-call scratch allocations.
	scratch sync.Pool
}

// NewMinContext returns the MINCONTEXT engine (Algorithm 6).
func NewMinContext() *Engine { return &Engine{} }

// NewMinContextWith returns a MINCONTEXT engine with ablation options.
func NewMinContextWith(opts Options) *Engine { return &Engine{opts: opts} }

// NewOptMinContext returns the OPTMINCONTEXT engine (Algorithm 8).
func NewOptMinContext() *Engine { return &Engine{bottomUp: true} }

// Name implements engine.Engine.
func (e *Engine) Name() string {
	if e.bottomUp {
		return "optmincontext"
	}
	switch {
	case e.opts.DisableRelev && e.opts.DisableOutermostSet:
		return "mincontext-norelev-noouterset"
	case e.opts.DisableRelev:
		return "mincontext-norelev"
	case e.opts.DisableOutermostSet:
		return "mincontext-noouterset"
	}
	return "mincontext"
}

// Evaluate implements engine.Engine: Algorithm 6 (MINCONTEXT), preceded by
// the bottom-up pass of Algorithm 8 when the engine is OPTMINCONTEXT.
func (e *Engine) Evaluate(q *syntax.Query, doc *xmltree.Document, ctx engine.Context) (v values.Value, st engine.Stats, err error) {
	sc, _ := e.scratch.Get().(*axes.Scratch)
	if sc == nil {
		sc = axes.NewScratch()
	}
	defer e.scratch.Put(sc)
	// The recursive procedures have no error returns (they mirror the
	// paper's pseudo-code); a tripped budget travels out as a bail.
	defer budget.RecoverBail(&err)
	ev := &evaluation{
		q:     q,
		doc:   doc,
		inCtx: ctx,
		opts:  e.opts,
		sc:    sc,
		bud:   ctx.Budget,
		tab:   make([]map[int]values.Value, q.Size()),
	}
	if e.bottomUp {
		// "evaluate all bottom-up location paths (starting with the
		// innermost ones in case of nesting)" — Algorithm 8.
		for _, id := range q.BottomUp {
			ev.evalBottomupPath(id)
		}
	}
	v, err = ev.run()
	return v, ev.st, err
}

// evaluation holds the global state of one query evaluation: the paper's
// "parse tree and context-value tables treated as global variables".
type evaluation struct {
	q     *syntax.Query
	doc   *xmltree.Document
	inCtx engine.Context
	opts  Options
	st    engine.Stats
	sc    *axes.Scratch  // kernel scratch, reused across every axis call
	bud   *budget.Budget // optional cooperative budget; nil = unlimited

	// tab[N.ID()] is table(N): context → value, keyed by the context node's
	// document-order index, or by wildcardKey when Relev(N) ∩ {cn} = ∅.
	// For location-path nodes the stored values are node sets, making the
	// table the dom × 2^dom relation of evalInnerLocpath.
	tab []map[int]values.Value
}

// wildcardKey indexes the single row of a context-independent table — the
// "∗" of the Section 6 pseudo-code.
const wildcardKey = -1

// charge spends n budget steps, bailing out of the recursion on a tripped
// budget (Evaluate's deferred RecoverBail translates the bail back into the
// budget error). The nil-budget fast path is one predicted branch.
func (ev *evaluation) charge(n int64) {
	if b := ev.bud; b != nil {
		if err := b.Step(n); err != nil {
			budget.Bail(err)
		}
	}
}

// run is Algorithm 6 (MINCONTEXT proper).
func (ev *evaluation) run() (values.Value, error) {
	root := ev.q.Root
	if isLocationPath(root) && !ev.opts.DisableOutermostSet {
		set := ev.evalOutermostLocpath(root, xmltree.Singleton(ev.inCtx.Node))
		return values.NodeSet(set), nil
	}
	ev.evalByCnodeOnly(root, ev.cnodeArg(root, xmltree.Singleton(ev.inCtx.Node)))
	v := ev.evalSingleContext(root, ev.inCtx.Node, ev.inCtx.Pos, ev.inCtx.Size)
	return v, nil
}

// isLocationPath reports whether the node is treated as a location path by
// the pseudo-code's case analysis (a Path, or a union of paths).
func isLocationPath(e syntax.Expr) bool {
	switch e.(type) {
	case *syntax.Path, *syntax.Union:
		return true
	}
	return false
}

// relevOf returns Relev(N), or the full context under the DisableRelev
// ablation (location paths keep {'cn'} — without any tabling of paths the
// algorithm would lose its polynomial bound entirely).
func (ev *evaluation) relevOf(e syntax.Expr) syntax.Ctx {
	r := ev.q.Relev[e.ID()]
	if ev.opts.DisableRelev && !isLocationPath(e) {
		return syntax.CN | syntax.CP | syntax.CS
	}
	return r
}

// cnodeArg returns the context-node set to hand to evalByCnodeOnly for a
// child: X itself when the child depends on 'cn', the wildcard otherwise.
func (ev *evaluation) cnodeArg(e syntax.Expr, x *xmltree.Set) *xmltree.Set {
	if ev.relevOf(e).Has(syntax.CN) {
		return x
	}
	return nil // wildcard "∗"
}

// store writes one table row and accounts its cells (a node-set row costs
// its cardinality, matching the relation-size accounting of the theorems).
func (ev *evaluation) store(e syntax.Expr, key int, v values.Value) {
	m := ev.tab[e.ID()]
	if m == nil {
		m = make(map[int]values.Value)
		ev.tab[e.ID()] = m
	}
	if _, dup := m[key]; dup {
		return
	}
	m[key] = v
	if v.T == values.KindNodeSet {
		ev.st.TableCells += int64(1 + v.Set.Len())
	} else {
		ev.st.TableCells++
	}
}

// lookup reads table(N) at a context node (projN of the pseudo-code).
func (ev *evaluation) lookup(e syntax.Expr, cn *xmltree.Node) values.Value {
	key := wildcardKey
	if ev.relevOf(e).Has(syntax.CN) {
		key = cn.Pre()
	}
	v, ok := ev.tab[e.ID()][key]
	if !ok {
		panic(fmt.Sprintf("core: table miss at node %d (%s) for cn=%d — evalByCnodeOnly was not called for this context set", e.ID(), e, key))
	}
	return v
}

// filled reports whether table(N) already exists (bottom-up pre-pass, or an
// earlier evalByCnodeOnly call) and covers the given context-node set.
func (ev *evaluation) filled(e syntax.Expr, x *xmltree.Set) bool {
	m := ev.tab[e.ID()]
	if m == nil {
		return false
	}
	if !ev.relevOf(e).Has(syntax.CN) {
		_, ok := m[wildcardKey]
		return ok
	}
	if x == nil {
		return true
	}
	covered := true
	x.ForEach(func(n *xmltree.Node) {
		if covered {
			if _, ok := m[n.Pre()]; !ok {
				covered = false
			}
		}
	})
	return covered
}
