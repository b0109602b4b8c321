package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricValue is one metric of one run: the median over its trials, the
// quartiles, and every trial value.
type metricValue struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Trials []float64 `json:"trials"`
}

// runResult is one workload's run.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newRunResult(w *workload, o runOpts) *runResult {
	return &runResult{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Correct: true, Metrics: map[string]metricValue{}}
}

func (r *runResult) set(name string, trials ...float64) {
	q1, q3 := quartiles(trials)
	r.Metrics[name] = metricValue{Unit: unitOf(name), Median: median(trials), Q1: q1, Q3: q3,
		Trials: append([]float64(nil), trials...)}
}

func (r *runResult) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// count adds a timed trial's ops to the run's totals and flags its
// failures. A ladder probe past the knee may leave arrivals undrained:
// that fails the rung, not the run.
func (r *runResult) count(phase string, tr *trialResult, probe bool) *trialResult {
	r.Attempted += tr.due
	r.Failed += tr.failed
	if !probe {
		r.Failed += tr.undrained
	}
	r.check(phase, tr, probe)
	return tr
}

// check flags an untimed trial's failures without counting its ops.
func (r *runResult) check(phase string, tr *trialResult, probe bool) {
	if tr.genErr != nil {
		r.problem("%s: generator: %v", phase, tr.genErr)
	}
	if tr.failed > 0 {
		r.problem("%s at %.0f ops/s: %d of %d ops failed, first: %v", phase, tr.spec.rate, tr.failed, tr.due, tr.firstErr)
	}
	if !probe && tr.undrained > 0 {
		r.problem("%s at %.0f ops/s: %d of %d ops still queued %v past the deadline", phase, tr.spec.rate, tr.undrained, tr.due, drainCap)
	}
}

func (r *runResult) countShm(phase string, tr *shmTrialResult) *shmTrialResult {
	r.Attempted += tr.ops
	r.Failed += tr.failed
	r.checkShm(phase, tr)
	return tr
}

func (r *runResult) checkShm(phase string, tr *shmTrialResult) {
	if tr.failed > 0 {
		r.problem("%s: %d of %d ops failed, first: %v", phase, tr.failed, tr.ops, tr.firstErr)
	}
}

// median is statistics.median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), which
// is how the benchmark's spread is judged. One value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld, m := len(s), len(s)+1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// host describes where a result was measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
}

func hostInfo(seed int64) host {
	commit := "unknown"
	if wd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "-C", wd, "rev-parse", "HEAD")
		// Stop at the checkout: a benchmark run from an exported tree
		// must not report the commit of some repository above it.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := cmd.Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Kernel: kernelRelease(), Seed: seed}
}

// resultsFile is what one invocation writes: its host and its runs.
type resultsFile struct {
	Host host         `json:"host"`
	Runs []*runResult `json:"runs"`
}

func writeResults(path string, f resultsFile) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// benchmarkSpec is the part of BENCHMARK.json the compare tool and the
// self-test read.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRuns reads every untraced run in the results files at path, a file
// or a directory of them, keyed by workload and ordered by seed.
func loadRuns(path string) (map[string][]*runResult, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	runs := map[string][]*runResult{}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var f resultsFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for _, r := range f.Runs {
			if !r.Trace {
				runs[r.Workload] = append(runs[r.Workload], r)
			}
		}
	}
	for _, rs := range runs {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no untraced runs", path)
	}
	return runs, nil
}

// abResult is one workload × metric of an A/B comparison.
type abResult struct {
	baseMed, headMed, baseIQR float64
	wins, pairs               int
	verdict                   string
}

// judge applies the A/B rule to one workload × metric. base and head are
// the runs' values in pairing order. The allowed worsening is the larger
// of bound, a share of the base median, and floor, an absolute amount.
// The change improved the metric when it wins at least 9 pairs in 10 and
// its median beats the base median by more than the base's interquartile
// spread. It regressed when its median is worse by more than the allowed
// worsening. Otherwise, when the base's own spread is wider than that, the
// answer is unresolved unless every head run beats every base run.
func judge(base, head []float64, lower bool, bound, floor float64) abResult {
	better := func(a, b float64) bool { return (lower && a < b) || (!lower && a > b) }
	q1, q3 := quartiles(base)
	r := abResult{baseMed: median(base), headMed: median(head), baseIQR: q3 - q1, pairs: min(len(base), len(head))}
	for i := 0; i < r.pairs; i++ {
		if better(head[i], base[i]) {
			r.wins++
		}
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	diff := math.Abs(r.headMed - r.baseMed)
	allowed := max(bound*math.Abs(r.baseMed), floor)
	switch {
	case r.pairs > 0 && 10*r.wins >= 9*r.pairs && better(r.headMed, r.baseMed) && diff > r.baseIQR:
		r.verdict = "improved"
	case better(r.baseMed, r.headMed) && diff > allowed:
		r.verdict = "regressed"
	case r.baseIQR > allowed && !allBetter:
		r.verdict = "unresolved"
	default:
		r.verdict = "unchanged"
	}
	return r
}

// compareMain implements `compare [-spec BENCHMARK.json] BASE HEAD`: one
// row per workload × end-to-end metric. It exits 1 when a gated metric
// regressed or a head run failed.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] BASE HEAD (results files or directories)")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	base, err := loadRuns(fs.Arg(0))
	if err == nil {
		var head map[string][]*runResult
		if head, err = loadRuns(fs.Arg(1)); err == nil {
			return compareRuns(stdout, spec, base, head)
		}
	}
	fmt.Fprintln(os.Stderr, err)
	return 2
}

// compareRuns prints one row per workload × end-to-end metric. A gated
// metric is judged against its BENCHMARK.json bound; an ungated one
// against the largest bound there, and its verdict is marked as such.
// Failed ops must stay at 0, so each workload also gets a row of failed
// against attempted ops, and a head run that failed an op or a check
// fails the comparison.
func compareRuns(out io.Writer, spec *benchmarkSpec, base, head map[string][]*runResult) int {
	bounds, widest := map[string]float64{}, 0.0
	for _, m := range spec.EndToEnd {
		bounds[m.Name], widest = m.Bound, max(widest, m.Bound)
	}
	fmt.Fprintf(out, "%-14s %-15s %-6s %12s %12s %12s %8s %5s  %s\n",
		"workload", "metric", "unit", "base", "base IQR", "head", "delta", "wins", "verdict")
	code := 0
	for _, w := range workloads {
		if len(head[w.name]) > 0 {
			bf, ba, _ := failures(base[w.name])
			hf, ha, incorrect := failures(head[w.name])
			verdict := "unchanged"
			if hf > 0 || incorrect {
				verdict, code = "FAILED", 1
			}
			fmt.Fprintf(out, "%-14s %-15s %-6s %12s %12s %12s %8s %5s  %s\n", w.name, "failed", "ops",
				fmt.Sprintf("%d/%d", bf, ba), "", fmt.Sprintf("%d/%d", hf, ha), "", "", verdict)
		}
		for _, m := range endToEnd {
			bv, hv := values(base[w.name], m.name), values(head[w.name], m.name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			bound, gate := bounds[m.name]
			if !gate {
				bound = widest
			}
			r := judge(bv, hv, m.better == "lower", bound, m.floor)
			verdict := r.verdict
			if !gate {
				verdict += " (ungated)"
			} else if r.verdict == "regressed" {
				code = 1
			}
			delta := 0.0
			if r.baseMed != 0 {
				delta = (r.headMed - r.baseMed) / math.Abs(r.baseMed) * 100
			}
			fmt.Fprintf(out, "%-14s %-15s %-6s %12.4g %12.4g %12.4g %+7.1f%% %2d/%-2d  %s\n",
				w.name, m.name, m.unit, r.baseMed, r.baseIQR, r.headMed, delta, r.wins, r.pairs, verdict)
		}
	}
	return code
}

// failures sums the failed and attempted ops of a workload's runs and
// reports whether any run failed a correctness check.
func failures(runs []*runResult) (failed, attempted int64, incorrect bool) {
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
		incorrect = incorrect || !r.Correct
	}
	return failed, attempted, incorrect
}

func values(runs []*runResult, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			xs = append(xs, m.Median)
		}
	}
	return xs
}
