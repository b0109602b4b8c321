package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Load shape shared by every network workload.
const (
	// handles is the number of client handles: the two writers, with
	// writer ids 1 and 2. It is at most nproc on the 2-core reference box.
	handles = 2
	// slotsPerHandle is each handle's concurrency.
	slotsPerHandle = 16
	// arrivalBuf bounds each handle's queue of due-but-unstarted arrivals,
	// far above the rate × backlogWindow a passing rung may hold; past the
	// knee a full queue makes the generator run late, which gen.lag shows.
	arrivalBuf = 1 << 15
	// drainCap bounds how long after its deadline a trial keeps serving
	// queued arrivals; what is left is counted undrained.
	drainCap = 250 * time.Millisecond
	// opTimeout bounds one client round trip or quorum phase. Concurrency
	// per handle is bounded by its slots, so even past the knee an op never
	// waits this long on a healthy system; a timeout is a failure.
	opTimeout = 5 * time.Second
	// spanEvery and spanCap bound a traced slot's span buffer: spans are
	// kept for one op in spanEvery, at most spanCap spans per slot.
	spanEvery = 16
	spanCap   = 4096
)

// Op kinds index the per-kind call histograms and span names.
const (
	opRead = iota
	opWrite
)

// ops performs one slot's register operations through a layer's public
// API. read returns the raw JSON value read.
type ops interface {
	read() ([]byte, error)
	write(val []byte) error
}

// loadSpec is one open-loop trial.
type loadSpec struct {
	rate     float64       // offered arrivals per second over all handles
	dur      time.Duration // arrivals are scheduled in [0, dur)
	readFrac float64
	seed     int64
	// paced spaces arrivals evenly instead of as a Poisson process (the
	// instrument check needs an upper bound on arrivals per connection).
	paced  bool
	traced bool
}

// span is one timed interval of a traced op; spans of one op share its id.
type span struct {
	name       string
	op         uint64
	start, end int64
}

// slot is one concurrent executor of a handle's arrivals. Its goroutine
// owns it for the length of a trial; runTrial reads it only after that
// goroutine's WaitGroup release.
//
//bloom:allowshared
type slot struct {
	ops ops
	id  int // global slot index, the trace's thread id
	wid int // the handle's writer id
	val []byte

	lat                                 hist
	wait, call                          [2]hist // by op kind: queueing, and time inside the layer call
	done, byDeadline, failed, undrained int64
	lastEnd                             int64
	firstErr                            error
	spans                               []span
}

func (sl *slot) resetTrial() {
	sl.lat.reset()
	for k := range sl.call {
		sl.wait[k].reset()
		sl.call[k].reset()
	}
	sl.done, sl.byDeadline, sl.failed, sl.undrained, sl.lastEnd = 0, 0, 0, 0, 0
	sl.firstErr = nil
	sl.spans = sl.spans[:0]
}

// trialCtx is what every goroutine of one trial shares; it is immutable
// once the trial starts.
type trialCtx struct {
	epoch      time.Time
	end, cut   int64 // arrival deadline and drain cap, ns after epoch
	traced     bool
	check      func([]byte) error
	issued     *issuedCounts
	valueBytes int
	callNames  [2]string
}

func (t *trialCtx) now() int64 { return int64(time.Since(t.epoch)) }

// trialResult is one trial, merged over its slots. The generator owns
// its lag, due and generator fields until its WaitGroup release.
//
//bloom:allowshared
type trialResult struct {
	spec                          loadSpec
	lat, lag                      hist
	wait, call                    [2]hist
	due, done, byDeadline, failed int64
	undrained                     int64
	drainNs, cpuNs, genCPUNs      int64
	firstErr                      error
	genErr                        error // the generator could not keep its schedule
}

// outstanding is the backlog at the deadline: arrivals due by then that
// had not completed by then.
func (r *trialResult) outstanding() int64 { return r.due - r.byDeadline }

// achieved is the completion rate inside the deadline, in ops/s.
func (r *trialResult) achieved() float64 { return float64(r.byDeadline) / r.spec.dur.Seconds() }

// cpuUsPerOp is process CPU per completed op, the generator's own thread
// excluded.
func (r *trialResult) cpuUsPerOp() float64 {
	if r.done == 0 {
		return 0
	}
	return float64(r.cpuNs) / float64(r.done) / 1e3
}

// passes applies the ladder's three tests to a rung: p99 within the SLO,
// no failed or undrained op, and no growing backlog (Little's law: a
// queue that keeps up holds about rate × service time, far below rate ×
// backlogWindow).
func (r *trialResult) passes() bool {
	return r.genErr == nil && r.failed == 0 && r.undrained == 0 && r.backlogOK() &&
		r.lat.quantile(0.99) <= float64(slo)
}

func (r *trialResult) backlogOK() bool {
	return float64(r.outstanding()) <= r.spec.rate*backlogWindow.Seconds()
}

// runTrial offers spec's arrivals to every handle's slots and returns once
// each slot has drained its queue or given up at the drain cap. With
// writerSlot, slot 0 of each handle serves all of the handle's writes, in
// order, and no reads.
func runTrial(slots [][]*slot, t trialCtx, spec loadSpec, writerSlot bool) *trialResult {
	t.end = int64(spec.dur)
	t.cut = t.end + int64(drainCap)
	t.traced = spec.traced
	reads := make([]chan int64, len(slots))
	writes := make([]chan int64, len(slots))
	for h := range slots {
		reads[h] = make(chan int64, arrivalBuf)
		writes[h] = reads[h]
		if writerSlot {
			writes[h] = make(chan int64, arrivalBuf)
		}
	}
	res := &trialResult{spec: spec}
	var wg sync.WaitGroup
	cpu0 := processCPU()
	t.epoch = time.Now()
	for h, hs := range slots {
		for i, sl := range hs {
			sl.resetTrial()
			wg.Add(1)
			ch := reads[h]
			if i == 0 {
				ch = writes[h]
			}
			go func() {
				defer wg.Done()
				sl.serve(ch, &t)
			}()
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		generate(&t, spec, reads, writes, res)
	}()
	wg.Wait()
	res.cpuNs = processCPU() - cpu0 - res.genCPUNs
	for _, hs := range slots {
		for _, sl := range hs {
			res.lat.merge(&sl.lat)
			for k := range sl.call {
				res.wait[k].merge(&sl.wait[k])
				res.call[k].merge(&sl.call[k])
			}
			res.done += sl.done
			res.byDeadline += sl.byDeadline
			res.failed += sl.failed
			res.undrained += sl.undrained
			res.drainNs = max(res.drainNs, sl.lastEnd-t.end)
			if res.firstErr == nil {
				res.firstErr = sl.firstErr
			}
		}
	}
	return res
}

// generate issues every handle's arrivals on schedule: a Poisson process
// per handle (or evenly spaced when paced), each arrival drawn as a read
// with probability readFrac. Arrivals carry their scheduled instant, so
// any lateness — the generator's, the queue's or the system's — is
// charged to the op (coordinated-omission correction). The generator
// keeps to one thread, whose CPU time the trial leaves out of the
// system's.
func generate(t *trialCtx, spec loadSpec, reads, writes []chan int64, res *trialResult) {
	runtime.LockOSThread()
	cpu0 := threadCPU()
	defer func() {
		for h := range reads {
			close(reads[h])
			if writes[h] != reads[h] {
				close(writes[h])
			}
		}
		res.genCPUNs = threadCPU() - cpu0
	}()
	n := len(reads)
	gap := float64(n) / spec.rate * 1e9 // mean ns between one handle's arrivals
	rngs := make([]*rand.Rand, n)
	next := make([]float64, n)
	for h := range rngs {
		rngs[h] = rand.New(rand.NewSource(spec.seed*1_000_003 + int64(h)))
		if spec.paced {
			next[h] = gap * float64(h+1) / float64(n)
		} else {
			next[h] = rngs[h].ExpFloat64() * gap
		}
	}
	w, err := newWaker()
	if err != nil {
		res.genErr = err
		return
	}
	defer w.close()
	end := float64(t.end)
	for {
		first := next[0]
		for _, x := range next[1:] {
			first = min(first, x)
		}
		if first >= end {
			return
		}
		if now := t.now(); int64(first) > now {
			if err := w.sleep(int64(first) - now); err != nil {
				res.genErr = err
				return
			}
			continue
		}
		for h := range next {
			for next[h] < end && int64(next[h]) <= t.now() {
				sched := int64(next[h])
				res.lag.record(t.now() - sched)
				if rngs[h].Float64() < spec.readFrac {
					reads[h] <- sched << 1
				} else {
					writes[h] <- sched<<1 | opWrite
				}
				res.due++
				if spec.paced {
					next[h] += gap
				} else {
					next[h] += rngs[h].ExpFloat64() * gap
				}
			}
		}
	}
}

// serve runs the arrivals of ch: each is its scheduled instant shifted
// left one bit, the low bit set for a write.
func (sl *slot) serve(ch <-chan int64, t *trialCtx) {
	for a := range ch {
		sched, kind := a>>1, int(a&1)
		start := t.now()
		if start > t.cut {
			sl.undrained++
			continue
		}
		if kind == opWrite {
			// Count the value as issued before it can be read anywhere.
			k := t.issued[sl.wid].n.Add(1) - 1
			sl.val = encodeValue(sl.val[:0], sl.wid, k, t.valueBytes)
			err := sl.ops.write(sl.val)
			sl.finish(t, kind, sched, start, t.now(), err)
			continue
		}
		val, err := sl.ops.read()
		end := t.now()
		if err == nil {
			err = t.check(val)
		}
		sl.finish(t, kind, sched, start, end, err)
	}
}

func (sl *slot) finish(t *trialCtx, kind int, sched, start, end int64, err error) {
	sl.lat.record(end - sched)
	sl.done++
	if end <= t.end {
		sl.byDeadline++
	}
	sl.lastEnd = max(sl.lastEnd, end)
	if err != nil {
		sl.failed++
		if sl.firstErr == nil {
			sl.firstErr = err
		}
	}
	if !t.traced {
		return
	}
	sl.wait[kind].record(start - sched)
	sl.call[kind].record(end - start)
	if sl.done%spanEvery == 0 && len(sl.spans)+3 <= cap(sl.spans) {
		id := uint64(sl.id)<<40 | uint64(sl.done)
		sl.spans = append(sl.spans,
			span{"op", id, sched, end},
			span{"gen.wait", id, sched, start},
			span{t.callNames[kind], id, start, end})
	}
}

// issuedCounts holds, per writer id, how many values that writer has
// started to write. Index 0 is unused: writer id 0 marks the initial
// value.
type issuedCounts [3]struct {
	n atomic.Int64
	_ [56]byte // keep the two writers' counters on separate cache lines
}

// encodeValue appends writer wid's k-th value as a JSON string of exactly
// size bytes (size ≥ 16): a quote, the writer digit, ':', a 12-digit
// counter, '.' padding and a closing quote. Every value a run writes is
// distinct, which is what lets the reads and the journals be checked.
func encodeValue(dst []byte, wid int, k int64, size int) []byte {
	dst = append(dst, '"', byte('0'+wid), ':')
	var digits [12]byte
	for i := len(digits) - 1; i >= 0; i-- {
		digits[i] = byte('0' + k%10)
		k /= 10
	}
	dst = append(dst, digits[:]...)
	for len(dst) < size-1 {
		dst = append(dst, '.')
	}
	return append(dst, '"')
}

// check returns an error unless val decodes to a value some writer had
// already started to write when check ran (or to the initial value).
func (c *issuedCounts) check(val []byte, size int) error {
	if len(val) != size || val[0] != '"' || val[2] != ':' || val[size-1] != '"' {
		return fmt.Errorf("read returned a malformed value %q", val)
	}
	var k int64
	for _, d := range val[3:15] {
		if d < '0' || d > '9' {
			return fmt.Errorf("read returned a malformed value %q", val)
		}
		k = k*10 + int64(d-'0')
	}
	switch wid := val[1]; wid {
	case '0':
		if k == 0 {
			return nil
		}
	case '1', '2':
		if k < c[wid-'0'].n.Load() {
			return nil
		}
		return fmt.Errorf("read returned writer %c's value %d before it was issued", wid, k)
	}
	return fmt.Errorf("read returned a value no writer wrote: %q", val)
}
