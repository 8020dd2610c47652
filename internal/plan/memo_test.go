package plan

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/values"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// TestMemoNestedFamilies: both nested-predicate families compile to memo
// programs from k = 1 on and agree with OPTMINCONTEXT, from the root and
// from inner context nodes.
func TestMemoNestedFamilies(t *testing.T) {
	docs := []*xmltree.Document{workload.Pairs(5), workload.Pairs(13), workload.Scaled(40), workload.Random(50, 4)}
	compiled, ref := New(), core.NewOptMinContext()
	for _, positional := range []bool{false, true} {
		for k := 0; k <= 4; k++ {
			q := mustCompileQuery(t, workload.NestedCountQuery(k, positional))
			p, err := ProgramOf(q)
			if err != nil {
				t.Fatal(err)
			}
			if (p.NumMemo > 0) != (k > 0) {
				t.Errorf("%s: %d memo slots:\n%s", q.Source, p.NumMemo, p.Disasm())
			}
			for _, doc := range docs {
				evalBoth(t, compiled, ref, q, doc, engine.RootContext(doc))
				for _, pre := range []int{1, doc.NumNodes() / 3, doc.NumNodes() - 1} {
					evalBoth(t, compiled, ref, q, doc, engine.Context{Node: doc.Node(pre), Pos: 1, Size: 1})
				}
			}
		}
	}
}

// TestMemoDisasm: every memoized block is labelled with its slot, and a memo
// instruction names its destination, the slot and the block that fills it.
// In the plain family whole predicates are memoized, so no OpMemo is
// needed; in the positional family the count under position() is.
func TestMemoDisasm(t *testing.T) {
	for _, c := range []struct {
		positional bool
		ops        int
	}{{false, 0}, {true, 2}} {
		p := mustPlan(t, workload.NestedCountQuery(2, c.positional))
		d := p.Disasm()
		if p.NumMemo != 2 || countOps(p)[OpMemo] != c.ops {
			t.Fatalf("%s: %d memo slots and %d memo instructions, want 2 and %d:\n%s",
				p.Source, p.NumMemo, countOps(p)[OpMemo], c.ops, d)
		}
		for b, slot := range p.MemoSlot {
			if want := fmt.Sprintf("b%d:  (memo m%d)", b, slot); slot >= 0 && !strings.Contains(d, want) {
				t.Errorf("disassembly lacks %q:\n%s", want, d)
			}
		}
		for _, in := range p.Code {
			if in.Op != OpMemo {
				continue
			}
			want := fmt.Sprintf("memo       r%d = m%d[cn] ?: b%d", in.Dst, p.MemoSlot[in.B], in.B)
			if p.MemoSlot[in.B] < 0 || !strings.Contains(d, want) {
				t.Errorf("disassembly lacks %q:\n%s", want, d)
			}
		}
	}
}

// TestServedTextsCompileWithoutMemo: the repeated query texts of the
// benchmark's hot_rotation and large_doc workloads run once per node already
// (their predicate blocks are entered by the main block's filters only), so
// they compile without memo slots.
func TestServedTextsCompileWithoutMemo(t *testing.T) {
	core, wadler, full := workload.CoreQueries(), workload.WadlerQueries(), workload.FullXPathQueries()
	hot := []string{
		core[0], core[2], core[3],
		wadler[0], wadler[1], wadler[2],
		full[0], full[2],
		workload.MixedQuery(),
		`count(//c)`,
		`/descendant::d[position()=last()]`,
		`id('77')/child::*`,
	}
	large := []string{
		core[0], core[2], core[3], wadler[0],
		`count(/descendant::b[child::d]/child::c)`,
		`/descendant::d[position()=last()]`,
	}
	for _, src := range append(hot, large...) {
		p := mustPlan(t, src)
		if p.NumMemo != 0 || countOps(p)[OpMemo] != 0 {
			t.Errorf("%s: compiled with memo:\n%s", src, p.Disasm())
		}
	}
}

// TestMemoBudgetTripStoresNothing: a budget that trips anywhere in a memo
// program, including inside memo blocks, leaves the pooled machine with
// memo entries that are all correct, and the next evaluation on that
// machine returns the unbudgeted answer with the unbudgeted counters.
func TestMemoBudgetTripStoresNothing(t *testing.T) {
	doc := workload.Pairs(12)
	for _, positional := range []bool{false, true} {
		q := mustCompileQuery(t, workload.NestedCountQuery(3, positional))
		prog, err := ProgramOf(q)
		if err != nil {
			t.Fatal(err)
		}
		ctx := engine.RootContext(doc)
		full := &machine{}
		want, wantSt, err := full.run(prog, doc, ctx)
		if err != nil {
			t.Fatal(err)
		}
		m := &machine{}
		if _, _, err := m.run(prog, doc, ctx); err != nil {
			t.Fatal(err)
		}
		tripsWithEntries := 0
		for fuel := int64(1); ; fuel += 1 + fuel/16 {
			bctx := ctx
			bctx.Budget = budget.New(budget.Limits{Steps: fuel})
			if _, _, err := m.run(prog, doc, bctx); err == nil {
				break
			}
			entries := 0
			for _, e := range m.memo.entries {
				if e.gen != m.memo.gen {
					continue
				}
				entries++
				ref, ok := full.memo.get(e.key)
				if !ok {
					t.Fatalf("%s, fuel %d: stored key %#x, which the full run never computes", q.Source, fuel, e.key)
				}
				if e.v.T != ref.T || !values.Equal(e.v, ref) {
					t.Fatalf("%s, fuel %d: key %#x holds %s, want %s",
						q.Source, fuel, e.key, values.Render(e.v), values.Render(ref))
				}
			}
			if entries > 0 {
				tripsWithEntries++
			}
			got, st, err := m.run(prog, doc, ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !values.Equal(got, want) || st != wantSt {
				t.Fatalf("%s: after a trip at fuel %d: %s %v, want %s %v",
					q.Source, fuel, values.Render(got), st, values.Render(want), wantSt)
			}
		}
		if tripsWithEntries == 0 {
			t.Errorf("%s: no budget trip happened after a memo entry was stored", q.Source)
		}
	}
}

// manySlotQuery returns /descendant::*[position() + count(child::c) + … > 0]
// with terms count terms. The predicate needs position, so the step is
// positional and each count term is a memo slot of its own.
func manySlotQuery(terms int) string {
	var b strings.Builder
	b.WriteString("/descendant::*[position()")
	for i := 0; i < terms; i++ {
		b.WriteString(" + count(child::c)")
	}
	b.WriteString(" > 0]")
	return b.String()
}

// TestMemoMemoryFollowsWork: the memo table holds entries only for blocks
// that ran, so a program with thousands of memo slots on a document of
// thousands of nodes stops at a small step budget with the budget error
// after allocating next to nothing (slot-by-|D| columns would be ~290 MB
// here), and an unbudgeted run stores at most one entry per block entry.
func TestMemoMemoryFollowsWork(t *testing.T) {
	const terms = 2000
	q := mustCompileQuery(t, manySlotQuery(terms))
	prog, err := ProgramOf(q)
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumMemo != terms {
		t.Fatalf("NumMemo = %d, want %d", prog.NumMemo, terms)
	}
	doc := workload.Pairs(1000)
	m := &machine{}
	ctx := engine.RootContext(doc)
	// The outer step costs |D| ≈ 3000; the rest fills some memo entries.
	ctx.Budget = budget.New(budget.Limits{Steps: 5000})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = m.run(prog, doc, ctx)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("budgeted run: %v, want the budget error", err)
	}
	if m.memo.n == 0 {
		t.Fatal("the budget tripped before any memo entry was stored")
	}
	// The register file (four registers per term) is most of it.
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("a fresh machine stopped at 5000 steps allocated %d bytes", got)
	}

	small := workload.Pairs(10)
	_, st, err := m.run(prog, small, engine.RootContext(small))
	if err != nil {
		t.Fatal(err)
	}
	if int64(m.memo.n) > st.ContextsEvaluated {
		t.Errorf("%d memo entries after %d block entries", m.memo.n, st.ContextsEvaluated)
	}
}

// TestMemoDroppedOnDocumentSwitch: a pooled machine that ran a memo program
// keeps no memo entries once it evaluates on another document, memo
// program or not, so later evaluations neither pin the old document nor pay
// for its table.
func TestMemoDroppedOnDocumentSwitch(t *testing.T) {
	big, other := workload.Pairs(200), workload.Scaled(40)
	memoProg := mustPlan(t, workload.NestedCountQuery(2, false))
	m := &machine{}
	if _, _, err := m.run(memoProg, big, engine.RootContext(big)); err != nil {
		t.Fatal(err)
	}
	if m.memo.n == 0 {
		t.Fatal("the memo program stored no entries")
	}
	if _, _, err := m.run(mustPlan(t, "count(//c)"), other, engine.RootContext(other)); err != nil {
		t.Fatal(err)
	}
	if m.memo.entries != nil {
		t.Errorf("after a document switch the machine keeps %d memo entries of capacity", len(m.memo.entries))
	}
}

// TestMemoConcurrentDocuments: goroutines sharing one engine alternate a
// memo query over two documents of different sizes, so pooled machines
// grow and drop their memo tables under the race detector;
// every answer equals OPTMINCONTEXT's.
func TestMemoConcurrentDocuments(t *testing.T) {
	docs := []*xmltree.Document{workload.Pairs(7), workload.Scaled(90)}
	q := mustCompileQuery(t, workload.NestedCountQuery(2, true))
	want := make([]values.Value, len(docs))
	for i, doc := range docs {
		v, _, err := core.NewOptMinContext().Evaluate(q, doc, engine.RootContext(doc))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	e := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				d := (g + i) % len(docs)
				got, _, err := e.Evaluate(q, docs[d], engine.RootContext(docs[d]))
				if err != nil {
					t.Error(err)
					return
				}
				if !values.Equal(got, want[d]) {
					t.Errorf("goroutine %d, document %d: %s, want %s", g, d, values.Render(got), values.Render(want[d]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
