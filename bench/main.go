// Command bench is the benchmark of record for the register stack: Bloom's
// two-writer register in memory (internal/core), the pipelined
// single-server netreg service, and the ABD quorum cluster of
// internal/replica, each driven only through its public API.
//
// Run it from the repository root (bench/run.sh builds it first):
//
//	bash bench/run.sh --seed 1                        # all four workloads
//	bash bench/run.sh --workload net-single --seed 3  # one workload
//	bash bench/run.sh --workload shm-2w --trace 1     # per-layer metrics
//	bash bench/run.sh compare BASE HEAD               # A/B verdicts
//
// Every end-to-end (or, with -trace 1, per-layer) metric is printed by
// name with its unit, and each run's results and host are written under
// -out. The last line of standard output is one JSON object,
// {"correct", "attempted", "failed", "metrics"}, whose metrics are the
// ones BENCHMARK.json gates (the per-layer ones with -trace 1). The exit
// status is non-zero if any correctness check failed. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all of them, in order)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 28, "measuring budget of each workload's run, in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for results and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -help")
		return 2
	}
	todo := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []*workload{w}
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := runOpts{
		seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1,
		warmup: time.Second, verifyDur: time.Second, outDir: *out,
	}

	rf := resultsFile{Host: hostInfo(*seed)}
	for _, w := range todo {
		r, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printRun(stdout, r)
		rf.Runs = append(rf.Runs, r)
	}
	label := *name
	if label == "" {
		label = "all"
	}
	if o.trace {
		label += "-trace"
	}
	path := filepath.Join(*out, fmt.Sprintf("%s-seed%d.json", label, *seed))
	if err := writeResults(path, rf); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "results: %s\n", path)

	line, ok := summary(rf.Runs, o.trace)
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !ok {
		return 1
	}
	return 0
}

// printRun prints one run's metrics as a table, then any problem found.
func printRun(out io.Writer, r *runResult) {
	verdict := "all checks passed"
	if !r.Correct {
		verdict = "CHECKS FAILED"
	}
	fmt.Fprintf(out, "\n%s  seed %d  %gs  %d attempted, %d failed: %s\n",
		r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed, verdict)
	fmt.Fprintf(out, "  %-34s %-6s %12s %12s %12s  %s\n", "metric", "unit", "median", "q1", "q3", "trials")
	for _, name := range sortedNames(r) {
		m := r.Metrics[name]
		fmt.Fprintf(out, "  %-34s %-6s %12.5g %12.5g %12.5g  %.5g\n", name, m.Unit, m.Median, m.Q1, m.Q3, m.Trials)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(out, "  PROBLEM: %s\n", p)
	}
}

// sortedNames lists a run's metrics in catalogue order.
func sortedNames(r *runResult) []string {
	rank := map[string]int{}
	for i, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		rank[d.name] = i
	}
	var names []string
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return rank[names[i]] < rank[names[j]] })
	return names
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summaryLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

// summary is the final JSON line: the gated end-to-end metrics (per-layer
// when traced) of the run, prefixed with "<workload>/" when several ran.
func summary(runs []*runResult, traced bool) (summaryLine, bool) {
	defs := gated()
	if traced {
		defs = perLayer
	}
	line := summaryLine{Correct: true, Metrics: map[string]summaryMetric{}}
	for _, r := range runs {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, d := range defs {
			key := d.name
			if len(runs) > 1 {
				key = r.Workload + "/" + d.name
			}
			m, ok := r.Metrics[d.name]
			if !ok {
				line.Correct = false
				continue
			}
			line.Metrics[key] = summaryMetric{Value: m.Median, Unit: d.unit}
		}
	}
	return line, line.Correct
}
