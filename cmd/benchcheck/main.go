// Command benchcheck compares two `go test -json` benchmark captures and
// fails when any benchmark present in both regressed beyond a threshold.
//
// Usage:
//
//	benchcheck [-threshold 0.15] baseline.json current.json
//
// The baseline is the checked-in hot-loop record (BENCH_hotloop.json); the
// current file is a fresh capture of the same benchmarks. A benchmark in
// the baseline but absent from the current capture fails the gate, so a
// renamed or deleted benchmark cannot leave it silently. A benchmark only
// in the current capture is reported but never fails, so adding a backend
// (a new BenchmarkCoreStep sub-benchmark) does not break CI until the
// baseline is refreshed with `make bench-hotloop`.
//
// Captures may repeat each benchmark (`go test -count N`). Every result
// line is kept, and each metric is gated on its median across the lines
// of its capture, so one run slowed by a noisy host neither fails the gate
// nor, in the baseline, loosens it.
//
// Three kinds of metric are gated, per benchmark, when present in both
// captures:
//
//   - ns/op: lower is better; fails beyond the fractional threshold.
//   - allocs/op: lower is better; fails beyond the fractional threshold,
//     with a small absolute slack so single-digit alloc counts do not
//     trip the gate on one stray allocation.
//   - any metric whose unit ends in "/s" (e.g. the simulator's
//     sim-instr/s): higher is better; fails when the current capture
//     drops more than the threshold below the baseline.
//
// Other units (B/op, windows/Minstr, ...) are carried in the record and
// printed for diffing but never fail the gate. Exit codes: 0 every baseline
// benchmark present and within threshold, 1 regression or missing
// benchmark, 2 usage/parse error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// lineRE pulls one benchmark result line out of the concatenated
// test2json output stream: name, iteration count, then the metric list.
// The name keeps its sub-benchmark path but drops the trailing -procs
// suffix so captures from different GOMAXPROCS compare.
var lineRE = regexp.MustCompile(`(?m)^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.+)$`)

// metricRE matches one "value unit" pair in a result line's metric list.
// Values may be scientific notation (testing prints large ReportMetric
// values as e.g. 1.77e+07).
var metricRE = regexp.MustCompile(`([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)\s+(\S+)`)

// allocSlack is the absolute allocs/op headroom granted on top of the
// fractional threshold: a benchmark at 10 allocs/op must not fail because
// a run picked up one incidental allocation.
const allocSlack = 16.0

// bench is one benchmark's metrics, keyed by unit ("ns/op", "allocs/op",
// "sim-instr/s", ...).
type bench map[string]float64

// runs holds every result line of one benchmark: each unit's values in
// capture order.
type runs map[string][]float64

// median reduces each unit to the median of its values (the mean of the
// two middle values for an even count).
func (r runs) median() bench {
	m := bench{}
	for unit, vs := range r {
		s := append([]float64(nil), vs...)
		sort.Float64s(s)
		m[unit] = (s[(len(s)-1)/2] + s[len(s)/2]) / 2
	}
	return m
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 0.15, "maximum allowed fractional regression per gated metric")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchcheck [-threshold 0.15] baseline.json current.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	base, err := readBench(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		return 2
	}
	cur, err := readBench(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		return 2
	}

	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	failed, missing := false, false
	for _, name := range names {
		was := base[name].median()
		curRuns, ok := cur[name]
		if !ok {
			fmt.Printf("MISSING  %-44s baseline %s, absent from current run\n", name, formatMetric(was["ns/op"], "ns/op"))
			missing = true
			continue
		}
		now := curRuns.median()
		counts := fmt.Sprintf("medians of %d/%d runs", len(base[name]["ns/op"]), len(curRuns["ns/op"]))
		units := make([]string, 0, len(was))
		for unit := range was {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			b := was[unit]
			c, ok := now[unit]
			if !ok {
				continue // metric dropped from current capture: not gated
			}
			verdict, gated := check(unit, b, c, *threshold)
			if !gated {
				continue
			}
			if verdict != "ok      " {
				failed = true
			}
			delta := 0.0
			if b != 0 {
				delta = (c - b) / b * 100
			}
			fmt.Printf("%s %-44s %s -> %s  (%+.1f%%, limit %.0f%%, %s)\n",
				verdict, name+" "+unit, formatMetric(b, unit), formatMetric(c, unit),
				delta, *threshold*100, counts)
		}
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			fmt.Printf("NEW      %-44s %s (not in baseline; refresh with `make bench-hotloop`)\n",
				name, formatMetric(cur[name].median()["ns/op"], "ns/op"))
		}
	}
	if missing {
		fmt.Println("benchcheck: baseline benchmarks missing from the current run (refresh the record if they were renamed or removed)")
	}
	if failed {
		fmt.Printf("benchcheck: regression beyond %.0f%%\n", *threshold*100)
	}
	if failed || missing {
		return 1
	}
	return 0
}

// check applies the gating rule for one metric and reports whether the
// unit is gated at all. Lower-is-better units fail when current exceeds
// baseline by more than the threshold (allocs/op additionally gets
// allocSlack absolute headroom); "/s" throughput units fail when current
// falls more than the threshold below baseline.
func check(unit string, base, cur, threshold float64) (verdict string, gated bool) {
	switch {
	case unit == "ns/op":
		if cur > base*(1+threshold) {
			return "REGRESSED", true
		}
	case unit == "allocs/op":
		if cur > base*(1+threshold) && cur > base+allocSlack {
			return "REGRESSED", true
		}
	case strings.HasSuffix(unit, "/s"):
		if cur < base*(1-threshold) {
			return "REGRESSED", true
		}
	default:
		return "", false
	}
	return "ok      ", true
}

func formatMetric(v float64, unit string) string {
	if v >= 1e6 {
		return fmt.Sprintf("%11.3g %s", v, unit)
	}
	return fmt.Sprintf("%11.2f %s", v, unit)
}

// readBench parses a `go test -json` stream and returns every result line
// of each benchmark, keyed by benchmark name. test2json splits a single
// result line across several Output records, so the records are
// concatenated per package before the result regexp runs.
func readBench(path string) (map[string]runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	text := make(map[string]*strings.Builder)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec struct {
			Action  string `json:"Action"`
			Package string `json:"Package"`
			Output  string `json:"Output"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s: not a go test -json stream: %v", path, err)
		}
		if rec.Action != "output" {
			continue
		}
		b := text[rec.Package]
		if b == nil {
			b = &strings.Builder{}
			text[rec.Package] = b
		}
		b.WriteString(rec.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}

	out := make(map[string]runs)
	for _, b := range text {
		for _, m := range lineRE.FindAllStringSubmatch(b.String(), -1) {
			name, rest := m[1], m[2]
			metrics := bench{}
			for _, mm := range metricRE.FindAllStringSubmatch(rest, -1) {
				v, err := strconv.ParseFloat(mm[1], 64)
				if err != nil {
					return nil, fmt.Errorf("%s: bad value %q for %s %s", path, mm[1], name, mm[2])
				}
				metrics[mm[2]] = v
			}
			if _, ok := metrics["ns/op"]; !ok {
				return nil, fmt.Errorf("%s: result line for %s has no ns/op", path, name)
			}
			r := out[name]
			if r == nil {
				r = runs{}
				out[name] = r
			}
			for unit, v := range metrics {
				r[unit] = append(r[unit], v)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	return out, nil
}
