package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/netreg"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// quick is a run small enough for the race detector: every rate at a
// twentieth, half a second of budget per workload.
func quick(t *testing.T, seed int64, trace bool) runOpts {
	return runOpts{seed: seed, seconds: 0.5, trace: trace, scale: 0.05,
		warmup: 100 * time.Millisecond, verifyDur: 200 * time.Millisecond, outDir: t.TempDir()}
}

// TestBenchmarkSpec checks BENCHMARK.json against the catalogue the
// command reports from, and the limits the benchmark definition allows.
func TestBenchmarkSpec(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.Paths, []string{"bench"}) || !slices.Equal(spec.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %q, command %q", spec.Paths, spec.Command)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("%s name %q is malformed or repeated", kind, name)
		}
		seen[name] = true
	}

	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the command (want 2..8, equal)", n, len(workloads))
	}
	for i, sw := range spec.Workloads {
		checkName("workload", sw.Name)
		if i < len(workloads) && (sw.Name != workloads[i].name || sw.Why != workloads[i].why) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the command, or their why differs", i, sw.Name, workloads[i].name)
		}
		if sw.Why == "" || len(sw.Why) > 200 || strings.Contains(sw.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", sw.Name)
		}
	}

	gates := gated()
	if n := len(spec.EndToEnd); n < 1 || n > 16 || n != len(gates) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d gated in the command (want 1..16, equal)", n, len(gates))
	}
	var setupBound, maxBound float64
	for i, m := range spec.EndToEnd {
		checkName("end-to-end metric", m.Name)
		if i < len(gates) && (m.Name != gates[i].name || m.Unit != gates[i].unit || m.Better != gates[i].better) {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the command", i, m, gates[i])
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be present and the largest (%v)", setupBound, maxBound)
	}

	if n := len(spec.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in the command (want 1..128, equal)", n, len(perLayer))
	}
	for i, m := range spec.PerLayer {
		checkName("per-layer metric", m.Name)
		if i >= len(perLayer) {
			continue
		}
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the command", i, m, d)
		}
	}
	for _, d := range perLayer {
		if len(d.moves) == 0 && d.note == "" {
			t.Errorf("per-layer metric %s names neither what it moves nor why it moves nothing", d.name)
		}
		if (len(d.moves) == 0) != (len(d.on) == 0) {
			t.Errorf("per-layer metric %s names what it moves without where, or the reverse", d.name)
		}
		for _, e := range d.moves {
			if !slices.ContainsFunc(endToEnd, func(m metricDef) bool { return m.name == e }) {
				t.Errorf("per-layer metric %s moves %q, which is no end-to-end metric", d.name, e)
			}
		}
		for _, w := range d.on {
			if findWorkload(w) == nil {
				t.Errorf("per-layer metric %s moves metrics on %q, which is no workload", d.name, w)
			}
		}
	}
}

// TestWorkloadsShort runs every workload, untraced and traced, at quick
// settings: every check must pass, and every metric must be reported —
// every end-to-end metric above 0.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			r, err := runWorkload(w, quick(t, 7, trace))
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed: %q", w.name, trace, r.Correct, r.Failed, r.Attempted, r.Problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): %s not reported", w.name, trace, d.name)
				case !trace && !(m.Median > 0):
					t.Errorf("%s: %s = %v, want > 0", w.name, d.name, m.Median)
				}
			}
			if trace && r.Metrics["verify.ops_checked"].Median <= 0 {
				t.Errorf("%s: the verify pass checked no operations", w.name)
			}
		}
	}
}

// TestInstrumentDelay is the instrument check: a fixed delay injected
// into net-single's client links through netreg.WithDialer must come
// back, at p50 and p99, within 5% of the delay plus the unloaded
// baseline. Half the client handles dial through the fault plan and half
// directly, in one trial, so the host treats both alike. Each handle
// reads once per 1.5 delays, so even after a host stall no request waits
// behind another's delay, and each half gives p99 over a thousand
// samples. The delay is long so that what the host adds to it — the
// injector's timer firing up to a millisecond and a half late, stalls of
// a few milliseconds — stays well inside the 5%.
func TestInstrumentDelay(t *testing.T) {
	const (
		delay   = 100 * time.Millisecond
		clients = 96
	)
	st, err := netreg.NewStore(json.RawMessage(encodeValue(nil, 0, 0, 16)), clients, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := netreg.Serve("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	plan := &faultnet.Plan{Seed: 1, Delay: delay, DelayProb: 1}
	var slots [][]*slot
	for h := 0; h < clients; h++ {
		opts := []netreg.DialOption{netreg.WithTimeout(opTimeout)}
		if h%2 == 1 {
			opts = append(opts, netreg.WithDialer(plan.Dialer()))
		}
		c, err := netreg.Dial[string](srv.Addr(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		slots = append(slots, []*slot{{ops: &netOps{c: c, port: h}}})
	}
	// One read through every handle, all at once, so no timed op pays
	// for its connection's first delays.
	errs := make(chan error, clients)
	for _, hs := range slots {
		go func() {
			_, err := hs[0].ops.read()
			errs <- err
		}()
	}
	for range slots {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	var issued issuedCounts
	ctx := trialCtx{issued: &issued, valueBytes: 16, check: func(v []byte) error { return issued.check(v, 16) }}
	tr := runTrial(slots, ctx, loadSpec{rate: clients * float64(time.Second) / float64(delay*3/2),
		dur: 3300 * time.Millisecond, readFrac: 1, seed: 1, paced: true}, false)
	if tr.genErr != nil || tr.failed+tr.undrained > 0 {
		t.Fatalf("generator: %v; %d ops failed: %v", tr.genErr, tr.failed+tr.undrained, tr.firstErr)
	}
	if plan.Stats().Injected["delay"] == 0 {
		t.Fatal("no delay was injected")
	}
	var base, delayed hist
	for h, hs := range slots {
		if h%2 == 1 {
			delayed.merge(&hs[0].lat)
		} else {
			base.merge(&hs[0].lat)
		}
	}
	for _, q := range []float64{0.5, 0.99} {
		want := float64(delay) + base.quantile(q)
		got := delayed.quantile(q)
		if math.Abs(got-want) > 0.05*want {
			t.Errorf("p%v over %d ops: measured %v, want %v ± 5%% (delay %v + baseline %v)", q*100, delayed.n,
				time.Duration(got), time.Duration(want), delay, time.Duration(base.quantile(q)))
		}
	}
}

// sleepOps serves every op by sleeping: a system whose capacity is known,
// slots / d ops per second.
type sleepOps struct{ d time.Duration }

func (o sleepOps) read() ([]byte, error) {
	time.Sleep(o.d)
	return encodeValue(nil, 0, 0, 16), nil
}

func (o sleepOps) write([]byte) error {
	time.Sleep(o.d)
	return nil
}

// TestBacklogCheck measures the max rate of a system of known capacity
// with the ladder search, then checks the backlog test trips at 120% of
// that rate and stays clear at 50%.
func TestBacklogCheck(t *testing.T) {
	var issued issuedCounts
	ctx := trialCtx{issued: &issued, valueBytes: 16, check: func(v []byte) error { return issued.check(v, 16) }}
	var slots [][]*slot
	for h := 0; h < handles; h++ {
		var hs []*slot
		for i := 0; i < slotsPerHandle; i++ {
			hs = append(hs, &slot{ops: sleepOps{2 * time.Millisecond}, wid: h + 1})
		}
		slots = append(slots, hs)
	}
	trial := func(rate float64, d time.Duration) *trialResult {
		return runTrial(slots, ctx, loadSpec{rate: rate, dur: d, readFrac: 0.9, seed: 3}, false)
	}
	search := newLadderSearch(ladder{base: 2e3, ratio: 1.07, rungs: 40})
	for {
		rung, ok := search.next()
		if !ok {
			break
		}
		search.record(rung, trial(search.l.rate(rung), 200*time.Millisecond))
	}
	peak, err := search.result()
	if err != nil {
		t.Fatal(err)
	}
	if over := trial(1.2*peak, 500*time.Millisecond); over.backlogOK() {
		t.Errorf("at 120%% of %.0f ops/s: %d arrivals outstanding at the deadline, within the %v backlog window",
			peak, over.outstanding(), backlogWindow)
	}
	if under := trial(0.5*peak, 500*time.Millisecond); !under.backlogOK() {
		t.Errorf("at 50%% of %.0f ops/s: %d arrivals outstanding at the deadline, past the %v backlog window",
			peak, under.outstanding(), backlogWindow)
	}
}

// fakeTrial is a probe outcome at rate that passes or fails every test.
func fakeTrial(rate float64, pass bool) *trialResult {
	tr := &trialResult{spec: loadSpec{rate: rate, dur: time.Second}, due: int64(rate), byDeadline: int64(rate)}
	tr.lat.record(int64(time.Millisecond))
	if !pass {
		tr.failed = 1
	}
	return tr
}

func TestLadderSearch(t *testing.T) {
	l := ladder{base: 1000, ratio: 1.07, rungs: 40}
	for _, tc := range []struct {
		name  string
		knee  int
		flaky map[int]bool // rungs whose first probe fails anyway
		want  int
	}{
		{"clean", 17, nil, 17},
		{"one stalled probe below the knee", 17, map[int]bool{9: true, 17: true}, 17},
		{"nothing passes above the base", 0, nil, 0},
	} {
		search := newLadderSearch(l)
		for {
			rung, ok := search.next()
			if !ok {
				break
			}
			pass := rung <= tc.knee && !tc.flaky[rung]
			delete(tc.flaky, rung)
			search.record(rung, fakeTrial(l.rate(rung), pass))
		}
		got, err := search.result()
		if err != nil || got != float64(int64(l.rate(tc.want))) {
			t.Errorf("%s: max rate %v (%v), want rung %d = %.0f", tc.name, got, err, tc.want, l.rate(tc.want))
		}
	}
}

// TestQuartilesMatchPython pins the spread computation to Python's
// statistics.quantiles(xs, n=4), the acceptance rule's definition.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4}, 1, 5},
		{[]float64{3, 9}, 1.5, 10.5},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x + d
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"faster everywhere", base, shift(-10), "improved"},
		{"same", base, shift(0.1), "unchanged"},
		{"slower past the bound", base, shift(20), "regressed"},
		{"slower within the bound", base, shift(5), "unchanged"},
		{"spread wider than the bound", noisy, shift(0), "unresolved"},
	} {
		if got := judge(tc.base, tc.head, true, 0.1, 0).verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	// An absolute floor wider than the shift and the spread settles both.
	for _, head := range [][]float64{shift(20), noisy} {
		if got := judge(noisy, head, true, 0.1, 50).verdict; got != "unchanged" {
			t.Errorf("with a floor of 50: %s, want unchanged", got)
		}
	}
}

// TestCompare writes ten base and ten head results for one workload and
// checks compare's verdicts: a gated metric 30% worse regresses, set-up
// time twice as long but within its 20 ms floor does not, a failed op
// fails the comparison, and in each of those cases the command exits 1.
func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		name             string
		headCPU          float64
		headFailed       int64
		wantCPU, wantOps string
	}{
		{"slower", 13, 0, "regressed", "unchanged"},
		{"failed ops", 10, 1, "unchanged", "FAILED"},
	} {
		dir := t.TempDir()
		for side, cpu := range map[string]float64{"base": 10, "head": tc.headCPU} {
			for seed := int64(1); seed <= 10; seed++ {
				r := &runResult{Workload: "net-single", Seed: seed, Correct: true, Attempted: 1000, Metrics: map[string]metricValue{}}
				r.set("cpu_us_per_op", cpu+float64(seed)/100)
				r.set("setup_s", 0.001)
				if side == "head" {
					r.Failed = tc.headFailed
					r.set("setup_s", 0.002)
				}
				if err := writeResults(filepath.Join(dir, side, fmt.Sprintf("net-single-seed%d.json", seed)),
					resultsFile{Runs: []*runResult{r}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		var out strings.Builder
		code := compareMain([]string{"-spec", "../BENCHMARK.json", filepath.Join(dir, "base"), filepath.Join(dir, "head")}, &out)
		if code != 1 || !regexp.MustCompile(`net-single +cpu_us_per_op .* `+tc.wantCPU+`\n`).MatchString(out.String()) ||
			!regexp.MustCompile(`net-single +failed .* `+tc.wantOps+`\n`).MatchString(out.String()) ||
			!regexp.MustCompile(`net-single +setup_s .* unchanged\n`).MatchString(out.String()) {
			t.Errorf("%s: compare exited %d:\n%s", tc.name, code, out.String())
		}
	}
}

func TestValueCheck(t *testing.T) {
	var c issuedCounts
	c[1].n.Store(5)
	for _, tc := range []struct {
		val []byte
		ok  bool
	}{
		{encodeValue(nil, 0, 0, 16), true},
		{encodeValue(nil, 1, 4, 16), true},
		{encodeValue(nil, 1, 5, 16), false}, // not issued yet
		{encodeValue(nil, 2, 0, 16), false},
		{encodeValue(nil, 0, 1, 16), false},
		{encodeValue(nil, 1, 4, 1024), false}, // wrong size
		{[]byte(`"3:000000000000"`), false},
	} {
		if err := c.check(tc.val, 16); (err == nil) != tc.ok {
			t.Errorf("check(%q) = %v, want ok %v", tc.val, err, tc.ok)
		}
	}
	if v := encodeValue(nil, 2, 123, 1024); len(v) != 1024 || string(v[:15]) != `"2:000000000123` {
		t.Errorf("encodeValue: %q...", v[:20])
	}
}
