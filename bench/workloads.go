package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/replica"
)

// The service-level objective the ladder holds each rung to.
const (
	// slo is the p99 latency limit a rung must meet.
	slo = 10 * time.Millisecond
	// backlogWindow bounds the backlog a rung may hold at its deadline:
	// rate × backlogWindow arrivals.
	backlogWindow = 10 * time.Millisecond
	// netSetups and shmSetups are how many times a run sets its system
	// up; setup_s is their median.
	netSetups = 21
	shmSetups = 101
	// netRounds is how many rounds of (low, mid, probe) trials an untraced
	// network run makes; it also bounds the ladder search's probes.
	netRounds = 12
	maxProbes = netRounds
)

type kind int

const (
	kindCluster kind = iota
	kindNet
	kindShm
)

// ladder is a fixed geometric sequence of absolute rates: rung i offers
// base × ratio^i arrivals per second.
type ladder struct {
	base, ratio float64
	rungs       int
}

func (l ladder) rate(i int) float64 { return l.base * math.Pow(l.ratio, float64(i)) }

// workload is one traffic mix. Rates are absolute and frozen here, so two
// commits are always measured at the same offered loads.
type workload struct {
	name, why  string
	kind       kind
	mode       replica.Mode // cluster-* only
	readFrac   float64
	valueBytes int
	low, mid   float64 // fixed offered rates, ops/s (network workloads)
	ladder     ladder
}

var workloads = []*workload{
	{
		name: "cluster-read",
		why:  "3 replicas, ModeFast, 90% reads of 16 B: read combining, the unanimous fast path and write-back elision carry it",
		kind: kindCluster, mode: replica.ModeFast, readFrac: 0.9, valueBytes: 16,
		low: 15e3, mid: 30e3, ladder: ladder{base: 15e3, ratio: 1.05, rungs: 56},
	},
	{
		name: "cluster-write",
		why:  "3 replicas, ModeABD, 50% writes of 1 KiB: every op is two full quorum rounds carrying the value, so read shortcuts are bypassed",
		kind: kindCluster, mode: replica.ModeABD, readFrac: 0.5, valueBytes: 1024,
		low: 3e3, mid: 6e3, ladder: ladder{base: 3e3, ratio: 1.05, rungs: 56},
	},
	{
		name: "net-single",
		why:  "one netreg server, two pipelined netreg.Clients, 90% reads of 16 B: the single-server baseline the quorum engine bypasses",
		kind: kindNet, readFrac: 0.9, valueBytes: 16,
		low: 30e3, mid: 60e3, ladder: ladder{base: 30e3, ratio: 1.05, rungs: 56},
	},
	{
		name: "shm-2w",
		why:  "Bloom's two-writer register in memory (FastSeqlock), 2 goroutines, 90% reads, closed loop: the protocol with no network",
		kind: kindShm, readFrac: 0.9,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runOpts is one invocation's settings.
type runOpts struct {
	seed    int64
	seconds float64 // the measuring budget of one workload's run
	trace   bool
	// scale multiplies every offered rate: 1 for the benchmark of record,
	// less in the self-test so it stays quick under the race detector.
	scale     float64
	warmup    time.Duration
	verifyDur time.Duration
	outDir    string // where the traced run writes its Chrome trace
}

func (o runOpts) secs(frac float64) time.Duration {
	return time.Duration(o.seconds * frac * float64(time.Second))
}

// seeds hands out one seed per trial, all derived from the run's seed.
type seeds struct{ base, n int64 }

func (s *seeds) next() int64 { s.n++; return s.base*7919 + s.n }

// runWorkload runs w once under o.
func runWorkload(w *workload, o runOpts) (*runResult, error) {
	run := runNet
	if w.kind == kindShm {
		run = runShm
	}
	r, err := run(w, o)
	if err != nil {
		return nil, err
	}
	if o.trace {
		// A layer the workload does not use reads 0.
		for _, d := range perLayer {
			if _, ok := r.Metrics[d.name]; !ok {
				r.set(d.name, 0)
			}
		}
	}
	return r, nil
}

// runNet measures a network workload. Untraced, the budget is split into
// netRounds rounds of a low-rate trial, a mid-rate trial and a ladder
// probe of twice their length.
func runNet(w *workload, o runOpts) (*runResult, error) {
	r := newRunResult(w, o)
	var s *netSys
	var setups []float64
	n := netSetups
	if o.trace {
		n = 1
	}
	for i := 0; i < n; i++ {
		if s != nil {
			s.close()
		}
		runtime.GC() // every set-up starts from the same, collected heap
		t0 := time.Now()
		var err error
		if s, err = startNet(w, sysOpts{}); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := s.firstOps(); err != nil {
			s.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()
	sd := &seeds{base: o.seed}
	// spec describes the next trial; each trial starts from a collected
	// heap, so garbage one trial leaves is not charged to the next.
	spec := func(rate float64, d time.Duration, traced bool) loadSpec {
		runtime.GC()
		return loadSpec{rate: rate * o.scale, dur: d, readFrac: w.readFrac, seed: sd.next(), traced: traced}
	}
	r.check("warm-up", s.trial(spec(w.mid, o.warmup, false)), false)

	if o.trace {
		if err := traceNet(w, o, r, s, spec); err != nil {
			return nil, err
		}
	} else {
		// Rounds of a low-rate trial, a mid-rate trial and a ladder probe
		// twice as long spread every metric over the whole run, so a slow
		// spell of the host lands on all of them instead of skewing one.
		T := o.secs(1.0 / (4 * netRounds))
		var low, mid latencies
		var cpu []float64
		search := newLadderSearch(w.ladder)
		for i := 0; i < netRounds; i++ {
			low.add(r.count("low-rate trial", s.trial(spec(w.low, T, false)), false).lat.quantileUs)
			tr := r.count("mid-rate trial", s.trial(spec(w.mid, T, false)), false)
			mid.add(tr.lat.quantileUs)
			cpu = append(cpu, tr.cpuUsPerOp())
			if rung, ok := search.next(); ok {
				search.record(rung, r.count("ladder probe", s.trial(spec(w.ladder.rate(rung), 2*T, false)), true))
			}
		}
		low.report(r, "low")
		mid.report(r, "mid")
		r.set("cpu_us_per_op", cpu...)
		rate, err := search.result()
		if err != nil {
			r.problem("%v", err)
		}
		r.set("max_rate_ops_s", rate)
		r.set("setup_s", setups...)
	}

	checked, err := verifyNet(w, o)
	if err != nil {
		r.problem("verify pass: %v", err)
	}
	if o.trace {
		r.set("verify.ops_checked", float64(checked))
	}
	return r, nil
}

// ladderSearch finds the highest rung of a ladder that sustains the SLO,
// one probe at a time: bisection over the rungs, then a confirming probe
// of the rung found. A rung fails only when two probes in a row fail it,
// because near the knee one host stall fails a probe on its own; a failed
// confirmation steps down a rung.
type ladderSearch struct {
	l                 ladder
	lo, hi, probes    int
	retry, confirming bool
	done              bool
	rate              float64 // the confirmed probe's achieved rate
	best              float64 // the achieved rate at bestRung
	bestRung          int     // the highest rung that passed a probe
}

func newLadderSearch(l ladder) *ladderSearch {
	return &ladderSearch{l: l, lo: -1, hi: l.rungs, bestRung: -1}
}

// next returns the rung to probe next, or false once the search is over
// or out of probes.
func (s *ladderSearch) next() (int, bool) {
	if s.done || s.probes >= maxProbes {
		return 0, false
	}
	if s.hi-s.lo <= 1 {
		s.confirming = true
	}
	if !s.confirming {
		return (s.lo + s.hi) / 2, true
	}
	if s.lo < 0 {
		s.done = true
		return 0, false
	}
	return s.lo, true
}

// record takes the outcome of probing rung.
func (s *ladderSearch) record(rung int, tr *trialResult) {
	s.probes++
	if tr.passes() {
		s.retry = false
		if rung >= s.bestRung {
			s.best, s.bestRung = tr.achieved(), rung
		}
		if s.confirming {
			s.done, s.rate = true, tr.achieved()
		} else {
			s.lo = rung
		}
		return
	}
	if !s.retry {
		s.retry = true // probe the same rung once more
		return
	}
	s.retry = false
	if s.confirming {
		s.lo--
	} else {
		s.hi = rung
	}
}

// result is the confirmed rate or, if the probes ran out first, the
// achieved rate of the highest rung that passed.
func (s *ladderSearch) result() (float64, error) {
	if s.done && s.rate > 0 {
		return s.rate, nil
	}
	if s.bestRung >= 0 {
		return s.best, nil
	}
	return 0, fmt.Errorf("no ladder rung from %.0f ops/s met the %v p99 SLO without a backlog", s.l.base, slo)
}

// latencies collects per-trial latency quantiles at one rate.
type latencies struct{ p50, p99 []float64 }

// add records one trial, given its latency quantile function in µs.
func (l *latencies) add(q func(float64) float64) {
	l.p50 = append(l.p50, q(0.5))
	l.p99 = append(l.p99, q(0.99))
}

func (l *latencies) report(r *runResult, rate string) {
	r.set("p50_us_"+rate, l.p50...)
	r.set("p99_us_"+rate, l.p99...)
}

// traceNet is the traced run of a network workload: three pairs of
// mid-rate trials alternate between the untraced system s and a traced
// twin, each trial a sixth of the budget. Runtime allocation and GC
// figures come from the untraced trials; every other per-layer figure
// from the traced ones.
func traceNet(w *workload, o runOpts, r *runResult, s *netSys, spec func(float64, time.Duration, bool) loadSpec) error {
	ts, err := startNet(w, sysOpts{traced: true})
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer ts.close()
	if err := ts.firstOps(); err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	r.check("traced warm-up", ts.trial(spec(w.mid, o.warmup, true)), false)

	T := o.secs(1.0 / 6)
	var merged trialResult
	var untracedP50, tracedP50, drains []float64
	var rs runtimeStats
	before := ts.counts()
	for i := 0; i < 3; i++ {
		sp := spec(w.mid, T, false)
		rs.begin()
		u := r.count("untraced mid-rate trial", s.trial(sp), false)
		rs.end(u.done, sp.dur)
		untracedP50 = append(untracedP50, u.lat.quantileUs(0.5))

		t := r.count("traced mid-rate trial", ts.trial(spec(w.mid, T, true)), false)
		tracedP50 = append(tracedP50, t.lat.quantileUs(0.5))
		drains = append(drains, float64(t.drainNs)/1e3)
		merged.lag.merge(&t.lag)
		for k := range t.call {
			merged.wait[k].merge(&t.wait[k])
			merged.call[k].merge(&t.call[k])
		}
		merged.done += t.done
	}
	d := ts.counts().sub(before)

	wait := merged.wait[opRead]
	wait.merge(&merged.wait[opWrite])
	r.set("gen.lag_us_p99", merged.lag.quantileUs(0.99))
	r.set("gen.wait_us_p50", wait.quantileUs(0.5))
	r.set("gen.wait_us_p99", wait.quantileUs(0.99))
	r.set("gen.write_wait_us_p99", merged.wait[opWrite].quantileUs(0.99))
	r.set("gen.drain_us", drains...)
	r.set("netreg.server_bytes_per_op", ratio(d.serverBytes, merged.done))
	batching := ratio(d.framesOut, d.writeCalls)
	if w.kind == kindCluster {
		rc, wc := &merged.call[opRead], &merged.call[opWrite]
		r.set("replica.read_call_us_p50", rc.quantileUs(0.5))
		r.set("replica.read_call_us_p99", rc.quantileUs(0.99))
		r.set("replica.write_call_us_p50", wc.quantileUs(0.5))
		r.set("replica.write_call_us_p99", wc.quantileUs(0.99))
		r.set("replica.read_rounds_per_op", ratio(d.readRounds, d.readOK))
		r.set("replica.write_rounds_per_op", ratio(d.writeRounds, d.writeOK))
		r.set("replica.combined_read_frac", ratio(d.combined, d.readOK))
		r.set("replica.fast_read_frac", ratio(d.fast, d.readOK))
		r.set("replica.elided_read_frac", ratio(d.elided, d.readOK))
		r.set("replica.msgs_per_op", ratio(d.framesIn+d.framesOut, merged.done))
		r.set("replica.bytes_per_op", ratio(d.bytesIn+d.bytesOut, merged.done))
		r.set("replica.frames_per_write_syscall", batching)
		r.set("replica.no_quorum", float64(d.noQuorum))
		r.set("replica.replica_failures", float64(d.replFails))
	} else {
		nc := merged.call[opRead]
		nc.merge(&merged.call[opWrite])
		r.set("netreg.call_us_p50", nc.quantileUs(0.5))
		r.set("netreg.call_us_p99", nc.quantileUs(0.99))
		r.set("netreg.frames_per_write_syscall", batching)
		r.set("netreg.retries", float64(d.retries))
		r.set("netreg.timeouts", float64(d.timeouts))
	}
	rs.report(r)
	r.set("trace.overhead_frac", overhead(tracedP50, untracedP50))
	return writeTrace(o, w, ts.slots)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// overhead is the traced median's excess over the untraced median, as a
// share of the untraced one.
func overhead(traced, untraced []float64) float64 {
	u := median(untraced)
	if u == 0 {
		return 0
	}
	return (median(traced) - u) / u
}

// runtimeStats accumulates allocation and GC counts over a set of trials.
type runtimeStats struct {
	ms0, ms1           runtime.MemStats
	allocs, bytes, gcs uint64
	ops                int64
	secs               float64
}

func (s *runtimeStats) begin() { runtime.ReadMemStats(&s.ms0) }

func (s *runtimeStats) end(ops int64, d time.Duration) {
	runtime.ReadMemStats(&s.ms1)
	s.allocs += s.ms1.Mallocs - s.ms0.Mallocs
	s.bytes += s.ms1.TotalAlloc - s.ms0.TotalAlloc
	s.gcs += uint64(s.ms1.NumGC - s.ms0.NumGC)
	s.ops += ops
	s.secs += d.Seconds()
}

func (s *runtimeStats) report(r *runResult) {
	r.set("runtime.allocs_per_op", ratio(int64(s.allocs), s.ops))
	r.set("runtime.alloc_bytes_per_op", ratio(int64(s.bytes), s.ops))
	r.set("runtime.gc_per_s", float64(s.gcs)/s.secs)
}
