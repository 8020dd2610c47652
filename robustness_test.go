package xpath

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// budgetEngines is every engine the budget contract must cover. EngineAuto
// is the same implementation as EngineCompiled but kept separate so a
// future change of what auto resolves to cannot silently drop the budget.
var budgetEngines = []Engine{
	EngineAuto, EngineOptMinContext, EngineMinContext, EngineTopDown,
	EngineBottomUp, EngineCoreXPath, EngineNaive, EngineCompiled,
}

// TestBudgetFuelTripsEveryEngine proves every engine's main loop actually
// checks the budget: with a few units of fuel against a document needing
// thousands of steps, each engine must return ErrBudgetExceeded
// mid-evaluation rather than completing or panicking.
func TestBudgetFuelTripsEveryEngine(t *testing.T) {
	doc := WrapTree(workload.Scaled(120))
	q := MustCompile(`//b[position() != last()]/child::*`)
	// The corexpath engine rejects positional predicates, so it gets a
	// query inside its fragment (Definition 12).
	qCore := MustCompile(`/descendant::b[child::d]/child::*`)
	for _, eng := range budgetEngines {
		query := q
		if eng == EngineCoreXPath {
			query = qCore
		}
		bud := NewBudget(BudgetLimits{Steps: 5})
		_, err := query.EvaluateWith(doc, Options{Engine: eng, Budget: bud})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%s: err = %v, want ErrBudgetExceeded", eng, err)
		}
	}
}

// TestPreCanceledBudgetEveryEngine: an already-canceled budget stops every
// engine at its first check.
func TestPreCanceledBudgetEveryEngine(t *testing.T) {
	doc := WrapTree(workload.Scaled(60))
	q := MustCompile(`//b/child::c`)
	for _, eng := range budgetEngines {
		bud := NewBudget(BudgetLimits{})
		bud.Cancel()
		_, err := q.EvaluateWith(doc, Options{Engine: eng, Budget: bud})
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", eng, err)
		}
	}
}

// TestCancelMidEvaluationEveryEngine cancels from another goroutine while
// each engine evaluates (run under -race in CI: Budget sharing across
// goroutines must be clean). Documents grow until the evaluation is slow
// enough that the concurrent cancel lands mid-flight; cancellation working
// at all sizes keeps the test fast, while a broken engine fails after the
// retries rather than hanging.
func TestCancelMidEvaluationEveryEngine(t *testing.T) {
	// Per-engine workloads: heavy enough that the cancel lands mid-flight
	// at some size in the ladder, shaped to each engine's fragment (the
	// corexpath engine rejects positional predicates; naive needs the
	// doubling query to slow down at all).
	heavy := `//b[position() != last()]/descendant-or-self::*[count(child::*) >= 0]`
	core := `/descendant::b[child::d]/descendant-or-self::*/child::*`
	type attempt struct {
		doc *Document
		src string
	}
	ladder := func(src string, sizes ...int) []attempt {
		var out []attempt
		for _, n := range sizes {
			out = append(out, attempt{WrapTree(workload.Scaled(n)), src})
		}
		return out
	}
	attempts := map[Engine][]attempt{
		EngineAuto:          ladder(heavy, 400, 1600, 6400, 25600),
		EngineOptMinContext: ladder(heavy, 400, 1600, 6400, 25600),
		EngineMinContext:    ladder(heavy, 400, 1600, 6400, 25600),
		EngineTopDown:       ladder(heavy, 400, 1600, 6400),
		EngineBottomUp:      ladder(heavy, 100, 200, 400),
		EngineCoreXPath:     ladder(core, 400, 1600, 6400, 25600),
		EngineCompiled:      ladder(heavy, 400, 1600, 6400, 25600),
		EngineNaive: {
			{WrapTree(workload.Doubling()), workload.DoublingQuery(8)},
			{WrapTree(workload.Doubling()), workload.DoublingQuery(12)},
			{WrapTree(workload.Doubling()), workload.DoublingQuery(16)},
		},
	}
	for _, eng := range budgetEngines {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			t.Parallel()
			canceled := false
			for _, at := range attempts[eng] {
				q := MustCompile(at.src)
				bud := NewBudget(BudgetLimits{})
				done := make(chan error, 1)
				go func() {
					_, err := q.EvaluateWith(at.doc, Options{Engine: eng, Budget: bud})
					done <- err
				}()
				time.Sleep(500 * time.Microsecond)
				bud.Cancel()
				select {
				case err := <-done:
					if err == nil {
						continue // finished before the cancel; grow the workload
					}
					if !errors.Is(err, ErrCanceled) {
						t.Fatalf("%s on %s: err = %v, want ErrCanceled", eng, at.src, err)
					}
					canceled = true
				case <-time.After(30 * time.Second):
					t.Fatalf("%s on %s: cancellation never observed", eng, at.src)
				}
				if canceled {
					break
				}
			}
			if !canceled {
				t.Skipf("%s finished every workload before the cancel landed", eng)
			}
		})
	}
}

// TestOptionsContextBridging: a canceled or expired context surfaces as the
// matching budget error, before or during evaluation.
func TestOptionsContextBridging(t *testing.T) {
	doc := WrapTree(workload.Scaled(60))
	q := MustCompile(`//b/child::c`)

	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.EvaluateWith(doc, Options{Context: cctx}); !errors.Is(err, ErrCanceled) {
		t.Errorf("pre-canceled context: err = %v, want ErrCanceled", err)
	}

	dctx, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := q.EvaluateWith(doc, Options{Context: dctx}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("expired context: err = %v, want ErrDeadlineExceeded", err)
	}

	// A live context leaves the evaluation alone.
	if _, err := q.EvaluateWith(doc, Options{Context: context.Background()}); err != nil {
		t.Errorf("live context: %v", err)
	}

	// Context cancellation mid-evaluation reaches a caller-supplied budget.
	big := WrapTree(workload.Scaled(8000))
	mctx, cancel3 := context.WithCancel(context.Background())
	bud := NewBudget(BudgetLimits{})
	done := make(chan error, 1)
	go func() {
		_, err := q.EvaluateWith(big, Options{
			Engine: EngineTopDown, Budget: bud, Context: mctx,
		})
		done <- err
	}()
	time.Sleep(time.Millisecond)
	cancel3()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, ErrCanceled) {
			t.Errorf("mid-evaluation context cancel: err = %v, want nil or ErrCanceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("context cancellation never reached the evaluation")
	}
}

// TestDeadlineBudget: an expiring deadline interrupts a long evaluation.
func TestDeadlineBudget(t *testing.T) {
	doc := WrapTree(workload.Scaled(4000))
	q := MustCompile(`//b[position() != last()]/descendant-or-self::*[count(child::*) >= 0]`)
	bud := NewBudget(BudgetLimits{Deadline: 2 * time.Millisecond})
	_, err := q.EvaluateWith(doc, Options{Engine: EngineTopDown, Budget: bud})
	if err != nil && !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("err = %v, want nil or ErrDeadlineExceeded", err)
	}
	if err == nil {
		t.Skip("evaluation beat the 2ms deadline on this machine")
	}
}

// TestResultCardinalityCap: node-set results over the cap are rejected.
func TestResultCardinalityCap(t *testing.T) {
	doc := WrapTree(workload.Scaled(100))
	q := MustCompile(`//*`)
	over, err := q.Evaluate(doc)
	if err != nil {
		t.Fatal(err)
	}
	n := len(over.Nodes())
	if _, err := q.EvaluateWith(doc, Options{
		Budget: NewBudget(BudgetLimits{MaxResultCard: n}),
	}); err != nil {
		t.Errorf("at-cap cardinality rejected: %v", err)
	}
	_, err = q.EvaluateWith(doc, Options{
		Budget: NewBudget(BudgetLimits{MaxResultCard: n - 1}),
	})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("over-cap cardinality: err = %v, want ErrBudgetExceeded", err)
	}
}

// TestBudgetReuseStaysTripped documents the single-evaluation contract: a
// budget that tripped once rejects every later evaluation immediately.
func TestBudgetReuseStaysTripped(t *testing.T) {
	doc := WrapTree(workload.Scaled(30))
	q := MustCompile(`//b`)
	bud := NewBudget(BudgetLimits{Steps: 1})
	if _, err := q.EvaluateWith(doc, Options{Budget: bud}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("first evaluation: err = %v, want ErrBudgetExceeded", err)
	}
	if _, err := q.EvaluateWith(doc, Options{Budget: bud}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("reused tripped budget: err = %v, want immediate ErrBudgetExceeded", err)
	}
}

// TestBatchBudgetCancelsSiblings: tripping a shared batch budget marks the
// untouched documents with the budget error instead of evaluating them.
func TestBatchBudgetCancelsSiblings(t *testing.T) {
	st := NewStore()
	for i := 0; i < 16; i++ {
		doc, err := ParseDocumentString(fmt.Sprintf(`<r><b id="%d"><c/></b></r>`, i))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Add(fmt.Sprintf("doc-%02d", i), doc); err != nil {
			t.Fatal(err)
		}
	}
	bud := NewBudget(BudgetLimits{})
	bud.Cancel()
	batch, err := st.Query(`//c`, BatchOptions{Budget: bud, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Errs() != len(batch.Docs) {
		t.Fatalf("%d/%d documents failed, want all (budget tripped before the batch)",
			batch.Errs(), len(batch.Docs))
	}
	for _, dr := range batch.Docs {
		if !errors.Is(dr.Err, ErrCanceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled", dr.ID, dr.Err)
		}
	}
}

// TestParallelBudgetCancel: EvaluateParallel honors a shared budget.
func TestParallelBudgetCancel(t *testing.T) {
	doc := WrapTree(workload.Scaled(600))
	q := MustCompile(`/child::a/child::b/child::*`)
	bud := NewBudget(BudgetLimits{})
	bud.Cancel()
	_, err := q.EvaluateParallel(doc, ParallelOptions{Budget: bud, Workers: 4})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestConcurrentCancelVsStoreAdd runs batch queries under a budget that a
// sibling goroutine cancels while other goroutines mutate the store — the
// -race job proves the budget, the store's sharding and the batch fan-out
// compose without data races.
func TestConcurrentCancelVsStoreAdd(t *testing.T) {
	st := NewStore()
	for i := 0; i < 8; i++ {
		doc, err := ParseDocumentString(fmt.Sprintf(`<r><b id="%d"><c/></b></r>`, i))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Add(fmt.Sprintf("seed-%d", i), doc); err != nil {
			t.Fatal(err)
		}
	}
	ids := st.IDs() // pin the batch to the immutable seed documents
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writer: churns fresh documents while the batches run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			doc, err := ParseDocumentString(`<r><b><c/></b></r>`)
			if err != nil {
				t.Error(err)
				return
			}
			id := fmt.Sprintf("churn-%d", i%4)
			if err := st.Add(id, doc); err != nil {
				t.Error(err)
				return
			}
			st.Remove(id)
		}
	}()
	for round := 0; round < 20; round++ {
		bud := NewBudget(BudgetLimits{})
		var cwg sync.WaitGroup
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			bud.Cancel()
		}()
		batch, err := st.Query(`//c`, BatchOptions{Budget: bud, Workers: 4, IDs: ids})
		if err != nil {
			t.Fatal(err)
		}
		for _, dr := range batch.Docs {
			if dr.Err != nil && !errors.Is(dr.Err, ErrCanceled) {
				t.Fatalf("round %d, %s: err = %v", round, dr.ID, dr.Err)
			}
		}
		cwg.Wait()
	}
	close(stop)
	wg.Wait()
}
