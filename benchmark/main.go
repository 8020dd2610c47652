// Command benchmark is the repository's one benchmark: four workloads served
// in-process by internal/server on a loopback socket, driven closed-loop,
// checked against an oracle, and reported as the end-to-end and per-layer
// metrics that BENCHMARK.json declares. README.md in this directory explains
// the workloads, the metrics and how they interact.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line last
//	benchmark -runs N -out a.jsonl                            N seeds × every workload, in child processes
//	benchmark -runs N -out a.jsonl -out-b b.jsonl [-bin-b B]  the same on two sides taking turns (B: another build)
//	benchmark -compare a.jsonl b.jsonl                        verdict per (workload, end-to-end metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one named value of a run.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints, and one line of a runs file.
type report struct {
	Workload  string            `json:"workload,omitempty"`
	Seed      int64             `json:"seed,omitempty"`
	Trace     int               `json:"trace,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits names every end-to-end metric. Each is defined on every
// workload and never zero, as the benchmark contract wants.
var endToEndUnits = map[string]string{
	"setup_s":                     "s",
	"query_p50_us":                "us",
	"query_p95_us":                "us",
	"query_rps":                   "1/s",
	"resident_bytes_per_node":     "B",
	"snapshot_bytes_per_doc_byte": "ratio",
}

func endToEnd(r *result) map[string]float64 {
	return map[string]float64{
		"setup_s":                     r.setupS,
		"query_p50_us":                r.window.queryP50us,
		"query_p95_us":                r.window.queryP95us,
		"query_rps":                   r.window.queryRPS,
		"resident_bytes_per_node":     r.residentPerN,
		"snapshot_bytes_per_doc_byte": r.snapshotRatio,
	}
}

// perLayerUnits names every per-layer metric: a layer is a package, and the
// part of the name before the dot says which. The ones without a dot are
// end-to-end timings of operations that only some workloads send, where a
// 0 means "not in this workload's traffic".
var perLayerUnits = map[string]string{
	"batch_p50_us": "us", "put_p50_us": "us", "put_p95_us": "us", "recovery_s": "s", "fail_ratio": "ratio",
	"process.peak_heap_sys_mb": "MB",

	"server.decode_us": "us", "server.materialize_us": "us", "server.encode_us": "us",
	"server.handler_us": "us", "server.handler_self_us": "us", "server.unattributed_share": "ratio",
	"server.socket_us": "us", "server.queue_wait_us": "us", "server.allocs_per_query": "count",
	"server.query_p99_us":     "us",
	"ladder.sum_over_handler": "ratio", "trace.overhead_ratio": "ratio",

	"syntax.compile_us": "us", "plan.compile_us": "us", "plan.cache_hit_us": "us", "plan.cache_miss_us": "us",
	"plan.cache_hit_ratio": "ratio", "plan.cache_evictions_per_kreq": "count",
	"plan.eval_compiled_us": "us", "plan.eval_compiled_same_doc_us": "us",
	"plan.allocs_compiled_rotating": "count", "plan.allocs_compiled_same_doc": "count",

	"core.eval_us": "us", "core.table_cells": "count", "core.contexts": "count", "core.axis_calls": "count",
	"core.allocs_per_eval": "count", "core.bytes_per_eval": "B", "corexpath.eval_us": "us",

	"axes.descendant_us": "us", "axes.following_us": "us", "axes.ancestor_us": "us",
	"axes.following-sibling_us": "us", "axes.step_test_us": "us", "axes.allocs": "count",

	"xmltree.parse_mb_s": "MB/s", "xmltree.heap_bytes_per_node": "B", "xmltree.topology_bytes_per_node": "B",
	"xmltree.strval_ns": "ns", "xmltree.snapshot_write_mb_s": "MB/s", "xmltree.snapshot_load_mb_s": "MB/s",

	"store.get_ns": "ns", "store.replace_us": "us", "store.put_us": "us",
	"store.wal_append_us": "us", "store.wal_fsync_us": "us", "store.wal_bytes_per_doc_byte": "ratio",
	"store.compact_ms": "ms", "store.open_snapshot_ms": "ms", "store.open_wal_ms": "ms",
	"store.batch_us_per_doc": "us", "store.batch_queue_wait_us": "us", "store.parallel_speedup": "ratio",
}

// perLayer adds to the traced phase's metrics the ones that come from the
// timed window: client-side latencies and deltas of the metrics registry.
func perLayer(r *result) map[string]float64 {
	m := map[string]float64{}
	for k, v := range r.layers {
		m[k] = v
	}
	m["batch_p50_us"] = r.window.batchP50us
	m["put_p50_us"] = r.window.putP50us
	m["put_p95_us"] = r.window.putP95us
	m["recovery_s"] = r.recoveryS
	m["fail_ratio"] = float64(r.failed) / float64(r.attempted)
	m["process.peak_heap_sys_mb"] = r.peakHeapSysMB
	m["server.query_p99_us"] = r.window.queryP99us
	m["server.queue_wait_us"] = r.reg.Histograms["server.queue_wait_ns"].Mean() / 1e3
	hits, misses := r.reg.Counters["plan.source_cache.hits"], r.reg.Counters["plan.source_cache.misses"]
	m["plan.cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	return m
}

// toReport pairs the declared names with the run's values. A declared
// metric the run did not produce is an error, never a silent gap.
func toReport(r *result, trace bool) (report, error) {
	units, values := endToEndUnits, endToEnd(r)
	if trace {
		units, values = perLayerUnits, perLayer(r)
	}
	rep := report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for name, unit := range units {
		v, ok := values[name]
		if !ok {
			return report{}, fmt.Errorf("metric %s was not measured", name)
		}
		rep.Metrics[name] = metric{v, unit}
	}
	if len(values) != len(units) {
		return report{}, fmt.Errorf("%d metrics measured, %d declared", len(values), len(units))
	}
	return rep, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printRun writes what a reader wants to see of one run, above the JSON line.
func printRun(r *result, rep report) {
	fmt.Printf("workload %s  seed %d  corpus_sha %s  stream_sha %s\n", r.workload, r.seed, r.corpusSHA, r.streamSHA)
	if r.durable {
		fmt.Println("  durable store, WAL flush policy: fsync after every write (SyncAlways)")
	}
	fmt.Printf("  corpus: %d documents, %d nodes, %d bytes of XML\n", r.docs, r.nodes, r.xmlBytes)
	for _, p := range r.phases {
		fmt.Printf("  phase %-9s %8.2f s\n", p.name, p.took.Seconds())
	}
	w := r.window
	fmt.Printf("  %d set-ups, spread %.1f%%; %d /query samples in %d segments: p50 spread %.1f%%, p95 spread %.1f%%, rps spread %.1f%%\n",
		len(r.setups), 100*spread(r.setups), w.queries, len(w.p50), 100*spread(w.p50), 100*spread(w.p95), 100*spread(w.rps))
	fmt.Printf("  attempted %d  failed %d  peak HeapSys %.0f MB\n", r.attempted, r.failed, r.peakHeapSysMB)
	for _, name := range sortedKeys(rep.Metrics) {
		fmt.Printf("  %-34s %16.4f %s\n", name, rep.Metrics[name].Value, rep.Metrics[name].Unit)
	}
}

// defaultSeconds is run_seconds of BENCHMARK.json; a test holds them together.
const defaultSeconds = 20

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print its metrics as the last line")
		seed     = flag.Int64("seed", 1, "seed of the corpus and the request streams (with -runs: the first seed)")
		seconds  = flag.Int("seconds", defaultSeconds, "length of the measured window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced phase")
		runs     = flag.Int("runs", 1, "without -workload: seeds to run on every workload")
		out      = flag.String("out", "", "with -runs: append one JSON line per run to this file")
		outB     = flag.String("out-b", "", "with -runs: a second side; every run is made on both sides in turn, and this file gets the second side's")
		binB     = flag.String("bin-b", "", "with -out-b: the benchmark binary of the second side (default: this one, for an A/A)")
		compare  = flag.Bool("compare", false, "compare two files written by -out: benchmark -compare a b")
		manifest = flag.String("manifest", "BENCHMARK.json", "where -compare reads the bounds")
		workdir  = flag.String("workdir", "benchmark/out", "directory for durable stores and trace files")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare wants two files")
			break
		}
		err = compareFiles(os.Stdout, *manifest, flag.Arg(0), flag.Arg(1))
	case *workload != "":
		err = single(options{
			workload: *workload, seed: *seed, trace: *trace != 0,
			measure: time.Duration(*seconds) * time.Second, warmup: 2 * time.Second,
			outDir: *workdir, sz: fullSizes,
		})
	default:
		sides := []side{{out: *out}}
		if *outB != "" {
			sides = append(sides, side{bin: *binB, out: *outB})
		}
		err = many(*runs, *seed, *seconds, *workdir, sides)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func single(opt options) error {
	res, err := runWorkload(opt)
	if err != nil {
		return err
	}
	rep, err := toReport(res, opt.trace)
	if err != nil {
		return err
	}
	printRun(res, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if _, err = fmt.Println(string(line)); err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", res.failed, res.attempted)
	}
	return nil
}
