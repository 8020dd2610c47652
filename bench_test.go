package xpath

// Benchmarks backing EXPERIMENTS.md: one benchmark family per reproduced
// artifact (see EXPERIMENTS.md, "Experiment index"). Custom metrics:
// "cells" is the number of context-value table cells written (the space
// quantity bounded by Theorems 7 and 10), "contexts" the number of
// single-context evaluations.
//
// Run:  go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	"repro/internal/axes"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/syntax"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

func benchEval(b *testing.B, eng engine.Engine, src string, doc *xmltree.Document) {
	b.Helper()
	q, err := syntax.Compile(src)
	if err != nil {
		b.Fatalf("compile %q: %v", src, err)
	}
	ctx := engine.RootContext(doc)
	var cells, contexts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := eng.Evaluate(q, doc, ctx)
		if err != nil {
			b.Fatalf("%s: %v", eng.Name(), err)
		}
		cells, contexts = st.TableCells, st.ContextsEvaluated
	}
	b.ReportMetric(float64(cells), "cells")
	b.ReportMetric(float64(contexts), "contexts")
}

func public(e Engine) engine.Engine { return e.impl() }

// BenchmarkE5Doubling — §1/[11]: exponential blowup of the naive strategy
// on the doubling-query family vs. flat polynomial engines.
func BenchmarkE5Doubling(b *testing.B) {
	doc := workload.Doubling()
	for _, i := range []int{4, 8, 12, 16} {
		src := workload.DoublingQuery(i)
		for _, eng := range []Engine{EngineNaive, EngineTopDown, EngineMinContext, EngineOptMinContext} {
			b.Run(fmt.Sprintf("i=%d/%s", i, eng), func(b *testing.B) {
				benchEval(b, public(eng), src, doc)
			})
		}
	}
}

// BenchmarkE6PositionHeavy — Theorem 7 time: the §2.4 query across |D|.
func BenchmarkE6PositionHeavy(b *testing.B) {
	src := workload.PositionHeavy()
	for _, n := range []int{50, 100, 200, 400} {
		doc := workload.Scaled(n)
		for _, eng := range []Engine{EngineTopDown, EngineMinContext, EngineOptMinContext} {
			b.Run(fmt.Sprintf("D=%d/%s", n, eng), func(b *testing.B) {
				benchEval(b, public(eng), src, doc)
			})
		}
	}
}

// BenchmarkE7SpaceCells — Theorem 7 space: table cells across engines
// (reported via the "cells" metric; E↑ grows ≈|D|³).
func BenchmarkE7SpaceCells(b *testing.B) {
	src := workload.PositionHeavy()
	for _, n := range []int{20, 40, 80} {
		doc := workload.Scaled(n)
		for _, eng := range []Engine{EngineBottomUp, EngineTopDown, EngineMinContext, EngineOptMinContext} {
			b.Run(fmt.Sprintf("D=%d/%s", n, eng), func(b *testing.B) {
				benchEval(b, public(eng), src, doc)
			})
		}
	}
}

// BenchmarkE8Wadler — Theorem 10: Extended Wadler queries, OPTMINCONTEXT
// vs. plain MINCONTEXT.
func BenchmarkE8Wadler(b *testing.B) {
	for qi, src := range workload.WadlerQueries() {
		for _, n := range []int{100, 200, 400} {
			doc := workload.Scaled(n)
			for _, eng := range []Engine{EngineOptMinContext, EngineMinContext} {
				b.Run(fmt.Sprintf("q%d/D=%d/%s", qi+1, n, eng), func(b *testing.B) {
					benchEval(b, public(eng), src, doc)
				})
			}
		}
	}
}

// BenchmarkE9CoreXPath — Theorem 13: Core XPath queries, the dedicated
// linear engine vs. OPTMINCONTEXT (which must match its growth) vs.
// MINCONTEXT.
func BenchmarkE9CoreXPath(b *testing.B) {
	for qi, src := range workload.CoreQueries() {
		for _, n := range []int{100, 200, 400} {
			doc := workload.Scaled(n)
			for _, eng := range []Engine{EngineCoreXPath, EngineOptMinContext, EngineMinContext} {
				b.Run(fmt.Sprintf("q%d/D=%d/%s", qi+1, n, eng), func(b *testing.B) {
					benchEval(b, public(eng), src, doc)
				})
			}
		}
	}
}

// BenchmarkE10Mixed — Corollary 11: a Wadler subexpression inside a
// full-XPath query still gets the bottom-up treatment.
func BenchmarkE10Mixed(b *testing.B) {
	src := workload.MixedQuery()
	for _, n := range []int{100, 200, 400} {
		doc := workload.Scaled(n)
		for _, eng := range []Engine{EngineOptMinContext, EngineMinContext} {
			b.Run(fmt.Sprintf("D=%d/%s", n, eng), func(b *testing.B) {
				benchEval(b, public(eng), src, doc)
			})
		}
	}
}

// BenchmarkE11AblationRelev — §3.1 ablation: relevant-context restriction
// on vs. off.
func BenchmarkE11AblationRelev(b *testing.B) {
	src := workload.PositionHeavy()
	for _, n := range []int{40, 80} {
		doc := workload.Scaled(n)
		b.Run(fmt.Sprintf("D=%d/relev-on", n), func(b *testing.B) {
			benchEval(b, core.NewMinContext(), src, doc)
		})
		b.Run(fmt.Sprintf("D=%d/relev-off", n), func(b *testing.B) {
			benchEval(b, core.NewMinContextWith(core.Options{DisableRelev: true}), src, doc)
		})
	}
}

// BenchmarkE12AblationOutermost — §3.1 ablation: outermost paths as sets
// vs. as dom×2^dom relations.
func BenchmarkE12AblationOutermost(b *testing.B) {
	src := `/descendant::b/child::c[. = 100]/following-sibling::*`
	for _, n := range []int{100, 400} {
		doc := workload.Scaled(n)
		b.Run(fmt.Sprintf("D=%d/set", n), func(b *testing.B) {
			benchEval(b, core.NewMinContext(), src, doc)
		})
		b.Run(fmt.Sprintf("D=%d/relation", n), func(b *testing.B) {
			benchEval(b, core.NewMinContextWith(core.Options{DisableOutermostSet: true}), src, doc)
		})
	}
}

// BenchmarkE14CompiledVsInterpreted — compiled plans vs. interpretation on
// repeated workload traffic: the same precompiled query evaluated over and
// over, the serving scenario the plan cache targets. Compiled evaluation
// must beat OPTMINCONTEXT wall-clock on the Core XPath workload queries.
func BenchmarkE14CompiledVsInterpreted(b *testing.B) {
	queries := map[string]string{
		"core1":    workload.CoreQueries()[0],
		"core4":    workload.CoreQueries()[3],
		"wadler1":  workload.WadlerQueries()[0],
		"position": workload.PositionHeavy(),
	}
	for _, n := range []int{100, 400} {
		doc := workload.Scaled(n)
		for qname, src := range queries {
			for _, eng := range []Engine{EngineCompiled, EngineOptMinContext} {
				b.Run(fmt.Sprintf("%s/D=%d/%s", qname, n, eng), func(b *testing.B) {
					benchEval(b, public(eng), src, doc)
				})
			}
		}
	}
}

// BenchmarkCompileCached measures the source-keyed query cache against cold
// compilation (parse + normalize + analyze + plan per call).
func BenchmarkCompileCached(b *testing.B) {
	src := workload.PositionHeavy()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Compile(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := CompileCached(src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSubstrates measures the building blocks: XML parsing, axis
// functions, and query compilation.
func BenchmarkSubstrates(b *testing.B) {
	b.Run("parse-xml-1k", func(b *testing.B) {
		xml := workload.Scaled(1000).XMLString()
		b.SetBytes(int64(len(xml)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := xmltree.ParseString(xml); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := syntax.Compile(workload.PositionHeavy()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAxisFunctions measures the O(|D|) axis functions of Definition 1
// on a nested document, one sub-benchmark per axis, with |X| = |D|/8.
func BenchmarkAxisFunctions(b *testing.B) {
	doc := workload.Nested(2000)
	x := xmltree.NewSet(doc)
	for i := 0; i < doc.NumNodes(); i += 8 {
		x.AddPre(i)
	}
	for _, ax := range axes.All() {
		b.Run(ax.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				axes.Apply(ax, x)
			}
		})
	}
	b.Run("inverse-id", func(b *testing.B) {
		small := workload.Nested(200)
		y := small.AllElements()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			axes.ApplyInverse(axes.ID, y)
		}
	})
}

// BenchmarkSetOps measures the bitset node-set algebra the axis functions
// are built on.
func BenchmarkSetOps(b *testing.B) {
	doc := workload.Nested(5000)
	s1, s2 := xmltree.NewSet(doc), xmltree.NewSet(doc)
	for i := 0; i < doc.NumNodes(); i += 2 {
		s1.AddPre(i)
	}
	for i := 0; i < doc.NumNodes(); i += 3 {
		s2.AddPre(i)
	}
	b.Run("union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s1.Union(s2)
		}
	})
	b.Run("intersect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s1.Intersect(s2)
		}
	})
	b.Run("iterate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			s1.ForEach(func(*xmltree.Node) { n++ })
		}
	})
}
