package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// side is one of the builds a set of runs is made on.
type side struct {
	bin     string // the benchmark binary; "" for this one
	out     string // the file its runs are appended to; "" for none
	reports []report
}

// run makes one run in a child process of its own: the plan cache, the
// metrics registry and the heap are global to a process and must not leak
// from one run into the next.
func (s *side) run(workload string, seed int64, seconds, trace int, workdir string) error {
	cmd := exec.Command(s.bin, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--workdir", workdir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	rep := report{Workload: workload, Seed: seed, Trace: trace}
	// A run with failed operations exits with 1 after its result line, and
	// the result is what a comparison needs to see.
	if json.Unmarshal([]byte(lines[len(lines)-1]), &rep) != nil || rep.Attempted == 0 {
		return fmt.Errorf("%s %s seed %d: no result (%v)", s.bin, workload, seed, err)
	}
	fmt.Fprintf(os.Stderr, "%s %s seed %d trace %d: attempted %d failed %d\n", s.bin, workload, seed, trace, rep.Attempted, rep.Failed)
	s.reports = append(s.reports, rep)
	if s.out == "" {
		return nil
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	file, err := os.OpenFile(s.out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(file, "%s\n", line); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// many runs every workload on `runs` seeds and once more with the traced
// phase, and prints the median and the spread of every metric. With two
// sides, every run is made on both before the next one starts, and which
// side goes first alternates, so that a drift of the host meets both alike.
func many(runs int, seed int64, seconds int, workdir string, sides []side) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for i := range sides {
		if sides[i].bin == "" {
			sides[i].bin = self
		}
	}
	// first is the side that goes first: it changes from one workload to the
	// next and, for one workload, from one seed to the next.
	both := func(workload string, seed int64, trace, first int) error {
		for k := range sides {
			if err := sides[(first+k)%len(sides)].run(workload, seed, seconds, trace, workdir); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < runs; i++ {
		for k, w := range workloadNames {
			if err := both(w, seed+int64(i), 0, i+k); err != nil {
				return err
			}
		}
	}
	for k, w := range workloadNames {
		if err := both(w, seed, 1, k); err != nil {
			return err
		}
	}
	failed := 0
	for _, s := range sides {
		fmt.Printf("\n== %s → %s\n", s.bin, s.out)
		failed += printSummary(os.Stdout, s.reports)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// series collects the values of every metric, per workload.
func series(reports []report) map[string]map[string][]float64 {
	s := map[string]map[string][]float64{}
	for _, r := range reports {
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], m.Value)
		}
	}
	return s
}

// printSummary returns how many operations failed over all reports.
func printSummary(w io.Writer, reports []report) (failed int) {
	units := map[string]string{}
	for _, r := range reports {
		failed += r.Failed
		for name, m := range r.Metrics {
			units[name] = m.Unit
		}
	}
	s := series(reports)
	for _, workload := range workloadNames {
		fmt.Fprintf(w, "\n%s\n  %-34s %16s %8s  %s\n", workload, "metric", "median", "spread", "unit (runs)")
		for _, name := range sortedKeys(s[workload]) {
			xs := s[workload][name]
			fmt.Fprintf(w, "  %-34s %16.4f %7.1f%%  %s (%d)\n", name, median(xs), 100*spread(xs), units[name], len(xs))
		}
	}
	fmt.Fprintf(w, "\nfailed operations over all runs: %d\n", failed)
	return failed
}

// bound is one end_to_end entry of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readReports(path string) ([]report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []report
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict judges b against a the way the benchmark's bounds are meant: by
// how much of a's median the median got worse, and only where both sides
// repeat well enough to say.
func verdict(a, b []float64, better string, limit float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if better == "higher" {
		worse = -worse
	}
	switch {
	case spread(a) > limit || spread(b) > limit:
		v = "unresolved"
	case worse > limit:
		v = "regressed"
	case -worse > spread(a) && -worse > spread(b):
		v = "improved"
	default:
		v = "unchanged"
	}
	return worse, v
}

// compareFiles prints one row per (workload, end-to-end metric).
func compareFiles(w io.Writer, manifest, pathA, pathB string) error {
	raw, err := os.ReadFile(manifest)
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("%s: %w", manifest, err)
	}
	ra, err := readReports(pathA)
	if err != nil {
		return err
	}
	rb, err := readReports(pathB)
	if err != nil {
		return err
	}
	a, b := series(ra), series(rb)
	failedA, failedB := failures(ra), failures(rb)
	fmt.Fprintf(w, "%-13s %-28s %14s %7s %14s %7s %8s %6s  %s\n",
		"workload", "metric", "median a", "spread", "median b", "spread", "worse by", "bound", "verdict")
	for _, workload := range workloadNames {
		for _, d := range decl.EndToEnd {
			xa, xb := a[workload][d.Name], b[workload][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-13s %-28s missing from one side\n", workload, d.Name)
				continue
			}
			worse, v := verdict(xa, xb, d.Better, d.Bound)
			if failedB[workload] > failedA[workload] {
				v = "regressed" // no number counts when more operations fail
			}
			fmt.Fprintf(w, "%-13s %-28s %14.4f %6.1f%% %14.4f %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				workload, d.Name, median(xa), 100*spread(xa), median(xb), 100*spread(xb), 100*worse, 100*d.Bound, v)
		}
		fmt.Fprintf(w, "%-13s failed operations: a %d, b %d\n", workload, failedA[workload], failedB[workload])
	}
	return nil
}

// failures sums the failed operations of every run, per workload.
func failures(reports []report) map[string]int {
	f := map[string]int{}
	for _, r := range reports {
		f[r.Workload] += r.Failed
	}
	return f
}
