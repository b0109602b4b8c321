package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	atomicregister "repro"
	"repro/internal/core"
	"repro/internal/register"
)

const (
	// shmBatch is how many ops a shm-2w goroutine runs between clock
	// reads; a single op (tens of ns) is too short to time on its own.
	shmBatch = 64
	// shmSeqLen is the length of each goroutine's pre-generated op
	// sequence, replayed cyclically (a power of two).
	shmSeqLen = 1 << 16
	// shmSampleEvery: a traced trial replaces one mixed batch in this many
	// with a timed same-kind batch (core.read_ns, core.write_ns).
	shmSampleEvery = 16
	// shmVerifyOps is how many ops each goroutine runs in the verify pass
	// (times the run's rate scale).
	shmVerifyOps = 20000
)

// shmSys is Bloom's register with its two handles: goroutine i owns
// writer i and reader i+1, each a sequential automaton.
type shmSys struct {
	tw     *core.TwoWriter[int64]
	seqs   [2][]bool // true = read
	issued issuedCounts
	st     [2]shmSlot
}

// shmSlot is goroutine i's state: that goroutine owns it during a trial,
// and trial reads it only after the goroutine's WaitGroup release.
//
//bloom:allowshared
type shmSlot struct {
	pos           int
	next          int64 // counter of the writer's next value
	batch         hist  // ns per mixed batch of shmBatch ops
	sampled       [2]hist
	reads, writes int64
	failed        int64
	firstErr      error
	spans         []span
}

func newShm(seqs [2][]bool, opts ...core.Option[int64]) *shmSys {
	return &shmSys{tw: core.New[int64](2, 0, opts...), seqs: seqs}
}

// shmSeqs pre-generates both goroutines' op sequences from the seed.
func shmSeqs(seed int64, readFrac float64) [2][]bool {
	var seqs [2][]bool
	for i := range seqs {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		seqs[i] = make([]bool, shmSeqLen)
		for j := range seqs[i] {
			seqs[i][j] = rng.Float64() < readFrac
		}
	}
	return seqs
}

// shmValue encodes writer wid's k-th value; writer id 0 with counter 0 is
// the initial value.
func shmValue(wid int, k int64) int64 { return k<<2 | int64(wid) }

// shmTrialResult is one closed-loop trial over the goroutines that ran.
type shmTrialResult struct {
	batch, sampledRead, sampledWrite hist
	ops, reads, writes, failed       int64
	firstErr                         error
	cpuNs                            int64
	dur                              time.Duration
}

func (r *shmTrialResult) opsPerSec() float64 { return float64(r.ops) / r.dur.Seconds() }

// perOpUs is a batch-time quantile as µs per op.
func (r *shmTrialResult) perOpUs(q float64) float64 { return r.batch.quantile(q) / shmBatch / 1e3 }

// trial runs goroutines 0..g-1 flat out for d.
func (s *shmSys) trial(g int, d time.Duration, traced bool) *shmTrialResult {
	var stop atomic.Bool
	var wg sync.WaitGroup
	epoch := time.Now()
	cpu0 := processCPU()
	for i := 0; i < g; i++ {
		st := &s.st[i]
		st.batch.reset()
		st.sampled[opRead].reset()
		st.sampled[opWrite].reset()
		st.reads, st.writes, st.failed, st.firstErr = 0, 0, 0, nil
		st.spans = st.spans[:0]
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work(i, &stop, epoch, traced)
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	res := &shmTrialResult{dur: time.Since(epoch), cpuNs: processCPU() - cpu0}
	for i := 0; i < g; i++ {
		st := &s.st[i]
		res.batch.merge(&st.batch)
		res.sampledRead.merge(&st.sampled[opRead])
		res.sampledWrite.merge(&st.sampled[opWrite])
		res.reads += st.reads
		res.writes += st.writes
		res.failed += st.failed
		if res.firstErr == nil {
			res.firstErr = st.firstErr
		}
	}
	res.ops = res.reads + res.writes
	return res
}

// work is goroutine i's closed loop: batches of shmBatch ops from its
// sequence, each batch timed, each value read checked after the batch.
func (s *shmSys) work(i int, stop *atomic.Bool, epoch time.Time, traced bool) {
	st := &s.st[i]
	w, r := s.tw.Writer(i), s.tw.Reader(i+1)
	seq := s.seqs[i]
	var vals [shmBatch]int64
	for b := 1; !stop.Load(); b++ {
		if traced && b%shmSampleEvery == 0 {
			s.sample(i, epoch, uint64(b), &vals)
			continue
		}
		nr := 0
		t0 := time.Since(epoch)
		for j := 0; j < shmBatch; j++ {
			if seq[st.pos] {
				vals[nr] = r.Read()
				nr++
			} else {
				s.write(w, i)
			}
			st.pos = (st.pos + 1) & (shmSeqLen - 1)
		}
		st.batch.record(int64(time.Since(epoch) - t0))
		st.reads += int64(nr)
		st.writes += int64(shmBatch - nr)
		s.checkReads(st, vals[:nr])
	}
}

// sample times one batch of shmBatch same-kind ops, the kind taken from
// the sequence, and keeps a span for it.
func (s *shmSys) sample(i int, epoch time.Time, id uint64, vals *[shmBatch]int64) {
	st := &s.st[i]
	w, r := s.tw.Writer(i), s.tw.Reader(i+1)
	read := s.seqs[i][st.pos]
	st.pos = (st.pos + 1) & (shmSeqLen - 1)
	t0 := time.Since(epoch)
	for j := 0; j < shmBatch; j++ {
		if read {
			vals[j] = r.Read()
		} else {
			s.write(w, i)
		}
	}
	t1 := time.Since(epoch)
	name, kind := "core.Write", opWrite
	if read {
		name, kind = "core.Read", opRead
		st.reads += shmBatch
		s.checkReads(st, vals[:])
	} else {
		st.writes += shmBatch
	}
	st.sampled[kind].record(int64(t1 - t0))
	if len(st.spans) < cap(st.spans) {
		st.spans = append(st.spans, span{name, uint64(i)<<40 | id, int64(t0), int64(t1)})
	}
}

// write publishes writer i's next value as issued, then writes it.
func (s *shmSys) write(w *core.Writer[int64], i int) {
	st := &s.st[i]
	s.issued[i+1].n.Store(st.next + 1)
	w.Write(shmValue(i+1, st.next))
	st.next++
}

// checkReads fails every value no writer had issued by now.
func (s *shmSys) checkReads(st *shmSlot, vals []int64) {
	lim := [3]int64{1, s.issued[1].n.Load(), s.issued[2].n.Load()}
	for _, v := range vals {
		wid, k := v&3, v>>2
		if wid <= 2 && k < lim[wid] && (wid > 0 || k == 0) {
			continue
		}
		st.failed++
		if st.firstErr == nil {
			st.firstErr = fmt.Errorf("read returned %d (writer %d, value %d), which no writer had issued", v, wid, k)
		}
	}
}

// realAccesses sums both real registers' access counters: reads through
// port 0 (the writers'), reads through the reader ports, and writes.
func (s *shmSys) realAccesses() (writerReads, readerReads, writes int64) {
	for r := 0; r < 2; r++ {
		c := s.tw.Reg(r).(interface{ Counters() *register.Counters }).Counters()
		writerReads += c.Reads(0)
		readerReads += c.TotalReads() - c.Reads(0)
		writes += c.Writes()
	}
	return
}

// runShm measures shm-2w. Untraced, the budget is split into 16 trials:
// 8 with goroutine 0 alone (low) and 8 with both (mid).
func runShm(w *workload, o runOpts) (*runResult, error) {
	r := newRunResult(w, o)
	seqs := shmSeqs(o.seed, w.readFrac)
	fast := core.WithSubstrate[int64](core.FastSeqlock)
	var setups []float64
	var tw *core.TwoWriter[int64]
	for i := 0; i < shmSetups; i++ {
		runtime.GC() // every set-up starts from the same, collected heap
		t0 := time.Now()
		tw = core.New[int64](2, 0, fast)
		for j := 1; j <= 2; j++ {
			if v := tw.Reader(j).Read(); v != 0 {
				return nil, fmt.Errorf("set-up: fresh register read %d, want 0", v)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	s := &shmSys{tw: tw, seqs: seqs}
	runtime.GC()
	r.checkShm("warm-up", s.trial(2, o.warmup, false))

	if o.trace {
		traceShm(seqs, o, r, s)
	} else {
		// Low (goroutine 0 alone) and mid (both) trials alternate.
		T := o.secs(1.0 / 16)
		var low, mid latencies
		var rate, cpu []float64
		for i := 0; i < 8; i++ {
			runtime.GC()
			low.add(r.countShm("low trial", s.trial(1, T, false)).perOpUs)
			runtime.GC()
			tr := r.countShm("mid trial", s.trial(2, T, false))
			mid.add(tr.perOpUs)
			rate = append(rate, tr.opsPerSec())
			cpu = append(cpu, float64(tr.cpuNs)/float64(tr.ops)/1e3)
		}
		low.report(r, "low")
		mid.report(r, "mid")
		r.set("max_rate_ops_s", rate...)
		r.set("cpu_us_per_op", cpu...)
		r.set("setup_s", setups...)
	}

	checked, err := verifyShm(seqs, max(100, int(shmVerifyOps*o.scale)))
	if err != nil {
		r.problem("verify pass: %v", err)
	}
	if o.trace {
		r.set("verify.ops_checked", float64(checked))
	}
	return r, nil
}

// traceShm alternates three untraced mid trials with three traced ones on
// a twin register that counts its real accesses.
func traceShm(seqs [2][]bool, o runOpts, r *runResult, s *shmSys) {
	ts := newShm(seqs, core.WithSubstrate[int64](core.FastSeqlock), core.WithSubstrateCounters[int64]())
	for i := range ts.st {
		ts.st[i].spans = make([]span, 0, spanCap)
	}
	r.checkShm("traced warm-up", ts.trial(2, o.warmup, true))
	wr0, rr0, w0 := ts.realAccesses()

	T := o.secs(1.0 / 6)
	var untracedP50, tracedP50 []float64
	var reads, writes int64
	var rd, wr hist
	var rs runtimeStats
	for i := 0; i < 3; i++ {
		runtime.GC()
		rs.begin()
		u := r.countShm("untraced mid trial", s.trial(2, T, false))
		rs.end(u.ops, u.dur)
		untracedP50 = append(untracedP50, u.perOpUs(0.5))

		runtime.GC()
		t := r.countShm("traced mid trial", ts.trial(2, T, true))
		tracedP50 = append(tracedP50, t.perOpUs(0.5))
		reads, writes = reads+t.reads, writes+t.writes
		rd.merge(&t.sampledRead)
		wr.merge(&t.sampledWrite)
	}
	wr1, rr1, w1 := ts.realAccesses()
	r.set("core.read_ns", rd.quantile(0.5)/shmBatch)
	r.set("core.write_ns", wr.quantile(0.5)/shmBatch)
	r.set("core.real_reads_per_read", ratio(rr1-rr0, reads))
	r.set("core.real_reads_per_write", ratio(wr1-wr0, writes))
	r.set("core.real_writes_per_write", ratio(w1-w0, writes))
	rs.report(r)
	r.set("trace.overhead_frac", overhead(tracedP50, untracedP50))
	if err := writeSpans(o, "shm-2w", [][]span{ts.st[0].spans, ts.st[1].spans}); err != nil {
		r.problem("%v", err)
	}
}

// verifyShm runs n ops of each goroutine's sequence on the certifiable
// substrate with recording on and certifies the run with the paper's
// Section 7 proof. It returns the number of operations certified.
func verifyShm(seqs [2][]bool, n int) (int64, error) {
	s := newShm(seqs, core.WithRecording[int64]())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &s.st[i]
			w, r := s.tw.Writer(i), s.tw.Reader(i+1)
			var v [1]int64
			for j := 0; j < n; j++ {
				if s.seqs[i][j&(shmSeqLen-1)] {
					v[0] = r.Read()
					st.reads++
					s.checkReads(st, v[:])
				} else {
					s.write(w, i)
					st.writes++
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(s.st[0].firstErr, s.st[1].firstErr); err != nil {
		return 0, err
	}
	if _, err := atomicregister.Certify(s.tw); err != nil {
		return 0, fmt.Errorf("certify: %w", err)
	}
	return 2 * int64(n), nil
}
