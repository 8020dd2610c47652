package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinySizes runs every code path of the four workloads in about a second
// each. The numbers it yields mean nothing; the tests check structure.
var tinySizes = sizes{
	hotDocs: 8, hotLo: 60, hotHi: 240,
	largeNodes: 3000,
	coldNodes:  60,
	extraDocs:  2,
	versions:   3,
	tailPuts:   4,
	replay: map[string]int{
		"hot_rotation": 960,
		"large_doc":    96,
		"cold_plans":   planCacheCap + 8,
		"mixed_write":  960,
	},
	minQueries:  20,
	layerBudget: 2 * time.Millisecond,
}

func tinyRun(t *testing.T, workload string, seed int64, measure time.Duration, trace bool) *result {
	t.Helper()
	res, err := runWorkload(options{
		workload: workload, seed: seed, trace: trace,
		measure: measure, warmup: measure / 6,
		outDir: t.TempDir(), sz: tinySizes,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// manifest is the part of BENCHMARK.json the tests hold the program to.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSmoke runs all four workloads end to end, traced phase included, and
// checks that nothing fails, that exactly the declared metrics come out, and
// that the workloads do to the plan cache what they exist to do.
func TestSmoke(t *testing.T) {
	decl := readManifest(t)
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloadNames))
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json measures for %d s, the command without -seconds for %d s", decl.RunSeconds, defaultSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for i, workload := range workloadNames {
		if decl.Workloads[i].Name != workload {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, decl.Workloads[i].Name, workload)
		}
		t.Run(workload, func(t *testing.T) {
			res := tinyRun(t, workload, 1, 1800*time.Millisecond, true)
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%d of %d operations failed", res.failed, res.attempted)
			}
			for _, side := range []struct {
				trace    bool
				declared []struct{ Name, Unit string }
			}{{false, decl.EndToEnd}, {true, decl.PerLayer}} {
				rep, err := toReport(res, side.trace)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Metrics) != len(side.declared) {
					t.Errorf("trace %v: %d metrics emitted, %d declared", side.trace, len(rep.Metrics), len(side.declared))
				}
				for _, d := range side.declared {
					m, ok := rep.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("declared metric %s is not emitted", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s: unit %q emitted, %q declared", d.Name, m.Unit, d.Unit)
					case !nameRE.MatchString(d.Name):
						t.Errorf("metric name %q", d.Name)
					case !side.trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
			}
			layers := perLayer(res)
			switch hit := layers["plan.cache_hit_ratio"]; {
			case workload == "cold_plans" && hit > 0.01:
				t.Errorf("cold_plans hit the plan cache: ratio %v", hit)
			case workload != "cold_plans" && hit < 0.99:
				t.Errorf("%s missed the plan cache: ratio %v", workload, hit)
			}
			// On a quiet machine the full-size workloads give 0.83 to 0.99.
			// The range is wide because the two passes run one after the
			// other, and other packages' tests share the processors.
			r := layers["ladder.sum_over_handler"]
			t.Logf("ladder.sum_over_handler = %.3f", r)
			if r < 0.4 || r > 1.5 {
				t.Errorf("the ladder explains %v of the handler's time, want 0.4 to 1.5", r)
			}
			if workload == "mixed_write" && (layers["put_p50_us"] <= 0 || layers["recovery_s"] <= 0) {
				t.Errorf("mixed_write measured no writes: put_p50_us %v, recovery_s %v", layers["put_p50_us"], layers["recovery_s"])
			}
			if workload == "hot_rotation" && layers["batch_p50_us"] <= 0 {
				t.Error("hot_rotation measured no /batch")
			}
			if _, err := os.Stat(res.traceFile); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// exactCounts are the per-layer metrics that count instead of timing: the
// same seed must give the same value to the last digit.
var exactCounts = []string{
	"plan.cache_evictions_per_kreq",
	"plan.allocs_compiled_rotating", "plan.allocs_compiled_same_doc",
	"core.table_cells", "core.contexts", "core.axis_calls",
	"axes.allocs",
	"xmltree.topology_bytes_per_node",
}

// TestSeedDeterminism runs set-up and the traced phase, without a timed
// window, twice on one seed and once on another.
func TestSeedDeterminism(t *testing.T) {
	for _, workload := range workloadNames {
		t.Run(workload, func(t *testing.T) {
			a := tinyRun(t, workload, 7, 0, true)
			b := tinyRun(t, workload, 7, 0, true)
			c := tinyRun(t, workload, 8, 0, true)
			if a.corpusSHA != b.corpusSHA || a.streamSHA != b.streamSHA {
				t.Errorf("same seed, other inputs: corpus %s %s, stream %s %s", a.corpusSHA, b.corpusSHA, a.streamSHA, b.streamSHA)
			}
			if a.streamSHA == c.streamSHA {
				t.Errorf("seeds 7 and 8 give the same stream %s", a.streamSHA)
			}
			// cold_plans' two documents are the paper's, whatever the seed.
			if workload != "cold_plans" && a.corpusSHA == c.corpusSHA {
				t.Errorf("seeds 7 and 8 give the same corpus %s", a.corpusSHA)
			}
			for _, name := range exactCounts {
				// With more distinct texts than the VM's pointer-keyed plan
				// cache holds, that cache evicts in map order and the VM
				// recompiles now and then: the counts wobble by one or two.
				// The race detector makes every allocation count wobble.
				if strings.HasPrefix(name, "plan.allocs_compiled") && (workload == "cold_plans" || raceEnabled) {
					continue
				}
				va, ok := a.layers[name]
				if !ok {
					t.Errorf("%s is not measured", name)
				}
				if vb := b.layers[name]; va != vb {
					t.Errorf("%s: %v, then %v on the same seed", name, va, vb)
				}
			}
			if a.failed+b.failed+c.failed != 0 {
				t.Errorf("failed operations: %d %d %d", a.failed, b.failed, c.failed)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two values = %v, %v", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	lines := func(workload string, lat, rps []float64, failed int) string {
		var b strings.Builder
		for i := range lat {
			line, _ := json.Marshal(report{Workload: workload, Seed: int64(i + 1), Correct: failed == 0, Attempted: 1, Failed: failed,
				Metrics: map[string]metric{"lat_us": {lat[i], "us"}, "rps": {rps[i], "1/s"}}})
			b.Write(line)
			b.WriteByte('\n')
		}
		return b.String()
	}
	man := write("BENCHMARK.json", `{"end_to_end": [
		{"name": "lat_us", "unit": "us", "better": "lower", "bound": 0.1},
		{"name": "rps", "unit": "1/s", "better": "higher", "bound": 0.1}]}`)
	steady := []float64{100, 101, 99, 100, 102}
	faster := []float64{80, 81, 79, 80, 82}
	a := write("a.jsonl", lines("hot_rotation", steady, steady, 0)+lines("large_doc", steady, steady, 0)+
		lines("cold_plans", steady, steady, 0)+lines("mixed_write", steady, steady, 0))
	b := write("b.jsonl",
		lines("hot_rotation", []float64{120, 121, 119, 120, 122}, []float64{120, 121, 119, 120, 122}, 0)+ // slower and more throughput
			lines("large_doc", steady, faster, 0)+ // throughput lost
			lines("cold_plans", []float64{60, 100, 140, 100, 180}, steady, 0)+ // too noisy to say
			lines("mixed_write", faster, steady, 1)) // faster, but operations fail
	var out bytes.Buffer
	if err := compareFiles(&out, man, a, b); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"hot_rotation lat_us": "regressed", "hot_rotation rps": "improved",
		"large_doc lat_us": "unchanged", "large_doc rps": "regressed",
		"cold_plans lat_us": "unresolved", "cold_plans rps": "unchanged",
		"mixed_write lat_us": "regressed", "mixed_write rps": "regressed",
	}
	for _, line := range strings.Split(out.String(), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if w, ok := want[f[0]+" "+f[1]]; ok && f[len(f)-1] != w {
			t.Errorf("%s %s: verdict %s, want %s\n%s", f[0], f[1], f[len(f)-1], w, out.String())
		}
		delete(want, f[0]+" "+f[1])
	}
	if len(want) != 0 {
		t.Errorf("rows missing from the comparison: %v\n%s", want, out.String())
	}
}
