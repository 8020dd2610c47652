package xpath

// Complexity claims: the space statements of EXPERIMENTS.md (and the naive
// engine's exponential work), asserted as test invariants. Table-cell and
// context counts are deterministic (no timing involved), so the fitted
// growth exponents are stable and can gate regressions: if an engine's
// table layout loses its complexity class, these tests fail.

import (
	"math"
	"testing"

	"repro/internal/bottomup"
	"repro/internal/core"
	"repro/internal/corexpath"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/syntax"
	"repro/internal/topdown"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// fitExponent returns the slope of the least-squares line through
// (log x, log y): the empirical growth exponent of y ≈ c·x^k. Non-positive
// values are clamped to a tiny epsilon so cold cells do not produce ±Inf.
func fitExponent(xs, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	n := 0
	for i := range xs {
		if xs[i] <= 0 {
			continue
		}
		y := ys[i]
		if y <= 0 {
			y = 1e-12
		}
		lx, ly := math.Log(xs[i]), math.Log(y)
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		n++
	}
	if n < 2 {
		return math.NaN()
	}
	fn := float64(n)
	return (fn*sxy - sx*sy) / (fn*sxx - sx*sx)
}

func TestFitExponent(t *testing.T) {
	xs := []float64{10, 20, 40, 80}
	t.Run("square", func(t *testing.T) {
		// y = x²  →  exponent 2.
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = x * x
		}
		if got := fitExponent(xs, ys); math.Abs(got-2) > 1e-9 {
			t.Errorf("fitExponent(x²) = %v", got)
		}
	})
	t.Run("constant", func(t *testing.T) {
		// Constant → 0.
		if got := fitExponent(xs, []float64{5, 5, 5, 5}); math.Abs(got) > 1e-9 {
			t.Errorf("fitExponent(const) = %v", got)
		}
	})
	t.Run("one_point", func(t *testing.T) {
		// Too few points → NaN.
		if got := fitExponent([]float64{1}, []float64{1}); !math.IsNaN(got) {
			t.Errorf("fitExponent(1 point) = %v", got)
		}
	})
}

// cellExponent measures the growth exponent of table cells over |D| for an
// engine on a query, using nested documents.
func cellExponent(t *testing.T, eng engine.Engine, src string, sizes []int) float64 {
	t.Helper()
	q, err := syntax.Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	xs := make([]float64, len(sizes))
	ys := make([]float64, len(sizes))
	for i, n := range sizes {
		doc := workload.Nested(n)
		_, st, err := eng.Evaluate(q, doc, engine.RootContext(doc))
		if err != nil {
			t.Fatalf("%s on %q at |D|=%d: %v", eng.Name(), src, n, err)
		}
		xs[i] = float64(n)
		ys[i] = float64(st.TableCells)
	}
	return fitExponent(xs, ys)
}

// TestClaimE7SpaceClasses: on the §2.4 query, the space classes separate as
// §3.1 predicts — E↑ cubic, E↓ superlinear, MINCONTEXT ≈ linear,
// OPTMINCONTEXT ≈ linear. One subtest per engine; the ordering check runs
// over all four exponents.
func TestClaimE7SpaceClasses(t *testing.T) {
	sizes := []int{20, 40, 60, 80}
	src := workload.PositionHeavy()

	var up, down, minc float64
	t.Run("bottomup", func(t *testing.T) {
		up = cellExponent(t, bottomup.New(), src, sizes)
		if up < 2.7 {
			t.Errorf("E↑ cell exponent %.2f, expected ≥ 2.7 (≈|D|³ tables)", up)
		}
	})
	t.Run("topdown", func(t *testing.T) {
		down = cellExponent(t, topdown.New(), src, sizes)
		if down < 1.4 {
			t.Errorf("E↓ cell exponent %.2f, expected ≥ 1.4 (pair relations)", down)
		}
	})
	t.Run("mincontext", func(t *testing.T) {
		minc = cellExponent(t, core.NewMinContext(), src, sizes)
		if minc > 1.3 {
			t.Errorf("MINCONTEXT cell exponent %.2f, expected ≈ 1 (Relev-reduced tables)", minc)
		}
	})
	t.Run("optmincontext", func(t *testing.T) {
		opt := cellExponent(t, core.NewOptMinContext(), src, sizes)
		if opt > 1.3 {
			t.Errorf("OPTMINCONTEXT cell exponent %.2f, expected ≈ 1", opt)
		}
	})
	// And the ordering: each refinement is at least as compact.
	if !(up > down && down > minc) {
		t.Errorf("space-class ordering violated: E↑ %.2f, E↓ %.2f, MINCONTEXT %.2f", up, down, minc)
	}
}

// TestClaimTheorem10Space: on a Wadler query whose inner path relation is
// quadratic, OPTMINCONTEXT stays linear while MINCONTEXT goes quadratic.
func TestClaimTheorem10Space(t *testing.T) {
	sizes := []int{50, 100, 200, 400}
	src := `/descendant::*[preceding-sibling::*/preceding::* = 100]`

	t.Run("optmincontext", func(t *testing.T) {
		if opt := cellExponent(t, core.NewOptMinContext(), src, sizes); opt > 1.2 {
			t.Errorf("OPTMINCONTEXT cell exponent %.2f, Theorem 10 promises ≈ 1", opt)
		}
	})
	t.Run("mincontext", func(t *testing.T) {
		if minc := cellExponent(t, core.NewMinContext(), src, sizes); minc < 1.6 {
			t.Errorf("MINCONTEXT cell exponent %.2f, expected ≈ 2 on this query", minc)
		}
	})
}

// TestClaimE12OutermostSets: the outermost-set optimization keeps the
// §2.4-style query linear in cells; the relation representation does not.
func TestClaimE12OutermostSets(t *testing.T) {
	sizes := []int{50, 100, 200, 400}
	src := `/descendant::*/descendant::*[self::* = 100]`

	var set, rel float64
	t.Run("set", func(t *testing.T) {
		set = cellExponent(t, core.NewMinContext(), src, sizes)
		if set > 1.2 {
			t.Errorf("set representation exponent %.2f, expected ≈ 1", set)
		}
	})
	t.Run("relation", func(t *testing.T) {
		rel = cellExponent(t, core.NewMinContextWith(core.Options{DisableOutermostSet: true}), src, sizes)
	})
	if rel <= set+0.15 {
		t.Errorf("relation representation exponent %.2f not clearly above set's %.2f", rel, set)
	}
}

// TestClaimNaiveExponential: the naive engine's work doubles per appended
// parent/child round trip (deterministic context counts, no timing).
func TestClaimNaiveExponential(t *testing.T) {
	doc := workload.Doubling()
	eng := naive.New()
	contexts := func(steps int) float64 {
		q, err := syntax.Compile(workload.DoublingQuery(steps))
		if err != nil {
			t.Fatalf("compile doubling query %d: %v", steps, err)
		}
		_, st, err := eng.Evaluate(q, doc, engine.RootContext(doc))
		if err != nil {
			t.Fatalf("naive on doubling query %d: %v", steps, err)
		}
		return float64(st.ContextsEvaluated)
	}
	ratio := contexts(10) / contexts(8)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("work ratio over two steps = %.2f, want ≈ 4 (doubling per step)", ratio)
	}
}

// TestClaimNestedPredicatesPolynomial is the exponent gate of the nested
// predicate families (workload.NestedCountQuery on workload.Pairs): each
// polynomial engine's ContextsEvaluated grows at most as |D|^1.25 on the
// plain family (it measures 1.03–1.09) and quadratically on the positional
// one (2.04–2.18), at every nesting depth k, and the exponent does not grow
// with k. Before
// the compiled VM memoized per-node subexpressions (OpMemo) it re-ran inner
// predicate blocks per outer candidate and grew as |D|^(k+1): 3 188 666
// contexts at n = 32, k = 3.
func TestClaimNestedPredicatesPolynomial(t *testing.T) {
	ns := []int{8, 16, 32, 64}
	engines := []engine.Engine{plan.New(), core.NewOptMinContext(), core.NewMinContext()}
	docs := make([]*xmltree.Document, len(ns))
	xs := make([]float64, len(ns))
	for i, n := range ns {
		docs[i] = workload.Pairs(n)
		xs[i] = float64(docs[i].NumNodes())
	}
	for _, positional := range []bool{false, true} {
		family, bound := "plain", 1.25
		if positional {
			family, bound = "positional", 2.2
		}
		for _, eng := range engines {
			t.Run(family+"/"+eng.Name(), func(t *testing.T) {
				slopes := make([]float64, 5)
				for k := 1; k <= 4; k++ {
					q, err := syntax.Compile(workload.NestedCountQuery(k, positional))
					if err != nil {
						t.Fatal(err)
					}
					ys := make([]float64, len(ns))
					for i, doc := range docs {
						_, st, err := eng.Evaluate(q, doc, engine.RootContext(doc))
						if err != nil {
							t.Fatalf("k=%d n=%d: %v", k, ns[i], err)
						}
						ys[i] = float64(st.ContextsEvaluated)
						if eng.Name() == "compiled" && k == 3 && ns[i] == 32 {
							t.Logf("n=32 k=3: %d contexts", st.ContextsEvaluated)
							if st.ContextsEvaluated > 20000 {
								t.Errorf("n=32 k=3: %d contexts, want ≤ 20 000", st.ContextsEvaluated)
							}
						}
					}
					slopes[k] = fitExponent(xs, ys)
					if slopes[k] > bound {
						t.Errorf("k=%d: contexts grow as |D|^%.2f, want ≤ %.2f (contexts %v)", k, slopes[k], bound, ys)
					}
				}
				t.Logf("|D|-exponents k=1..4: %.2f %.2f %.2f %.2f", slopes[1], slopes[2], slopes[3], slopes[4])
				if d := slopes[4] - slopes[1]; d > 0.2 {
					t.Errorf("exponent grows with nesting: k=4 %.2f vs k=1 %.2f", slopes[4], slopes[1])
				}
			})
		}
	}
}

// TestClaimCoreXPathLinearCells: the dedicated Core XPath engine's cells
// grow linearly.
func TestClaimCoreXPathLinearCells(t *testing.T) {
	sizes := []int{100, 200, 400, 800}
	src := `/descendant::b[child::d]/child::c`
	exp := cellExponent(t, corexpath.New(), src, sizes)
	if exp > 1.15 {
		t.Errorf("Core XPath cell exponent %.2f, Theorem 13 promises 1", exp)
	}
}
