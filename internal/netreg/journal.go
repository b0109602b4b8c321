package netreg

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/wire"
)

// WithJournal taps every operation the server completes into j: one
// obs.Source (a lock-light SPSC ring) per connection, one fixed-size
// record per op — register key, kind, value hash, and the monotonic
// invocation/response instants bracketing the register access. The
// online checker (internal/linz.Online) drains it to certify live
// traffic. Without the option the hot path pays a single nil check.
func WithJournal(j *obs.Journal) ServeOption {
	return func(c *serveConfig) { c.journal = j }
}

// connTap journals one connection's operations.
//
// The inline worker model has exactly one operation in flight per
// connection, handled on the connection goroutine: recording is the
// journal's native wait-free SPSC protocol (beginInline / recordInline).
//
// The dispatching worker models complete operations out of order on
// worker goroutines, which breaks both the single-producer ring contract
// and the sequential-producer horizon argument (a completion must not
// advance the bound past an older, still-running invocation). Those
// models run the tap gated (beginGated / recordGated): a mutex
// serializes ring access — those models already serialize on their
// encode path — and a FIFO of in-flight invocations maintains the
// source's LowInv as the oldest running invocation, falling back to a
// fresh under-lock clock read when the connection goes idle (any later
// begin reads the clock after it, so the bound stays a true lower
// bound).
type connTap struct {
	j   *obs.Journal
	src *obs.Source

	// lastRes is the inline model's invocation stamp: the previous
	// record's response instant (see beginInline).
	lastRes int64

	mu       sync.Mutex
	base     int64
	inflight []tapSlot
}

type tapSlot struct {
	inv  int64
	done bool
}

func newConnTap(j *obs.Journal) *connTap {
	t := &connTap{j: j, src: j.Source()}
	t.lastRes = j.Now()
	return t
}

// beginInline stamps an invocation on the inline model's single
// connection goroutine — without touching the clock or the ring. The
// producer is sequential, so the previous record's response instant
// lower-bounds this operation's true invocation; using it as the stamp
// widens the recorded interval by the inter-op gap (sound: a wider
// interval only admits more linearizations, and with pipelined traffic
// the gap is the decode time). It publishes no Begin either: the bound
// the previous recordInline left (that same response instant) already
// lower-bounds every future record, so the horizon contract holds
// as-is. Net cost of journaling an op: one clock read, one record.
//
//bloom:waitfree
//bloom:noalloc
func (t *connTap) beginInline() int64 {
	return t.lastRes
}

// recordInline journals one completed operation on the inline model's
// connection goroutine.
//
//bloom:waitfree
//bloom:noalloc
func (t *connTap) recordInline(req *wire.Request, resp *wire.Response, inv int64) {
	rec := t.buildRec(req, resp, inv)
	t.lastRes = rec.Res
	t.src.Record(rec)
}

// buildRec assembles the journal record for one completed operation.
//
//bloom:waitfree
//bloom:noalloc
func (t *connTap) buildRec(req *wire.Request, resp *wire.Response, inv int64) obs.Rec {
	rec := obs.Rec{Inv: inv, Res: t.j.Now(), Key: t.src.KeyID(req.Reg)}
	switch req.Op {
	case "write", "qwrite":
		// An effective qwrite is a write of the replica's q-cell; a stale
		// one arrives here with resp.Dup set and is skipped by checkers
		// (recording it as a fresh write of an old value would fabricate
		// a new-old inversion that never happened).
		rec.Kind = obs.JWrite
		rec.Val = obs.HashVal(req.Val)
	case "qts":
		// Timestamp-only query: no value crosses the wire, so there is no
		// register effect to check — JMeta tells checkers to skip it.
		rec.Kind = obs.JRead
		rec.Flags |= obs.JMeta
	default:
		rec.Kind = obs.JRead
		rec.Val = obs.HashVal(resp.Val)
	}
	if resp.Err != "" {
		rec.Flags |= obs.JErr
	}
	if resp.Dup {
		rec.Flags |= obs.JDup
	}
	return rec
}

// beginGated stamps an invocation for the dispatching worker models,
// returning the instant and the in-flight handle recordGated needs back.
func (t *connTap) beginGated() (inv, handle int64) {
	t.mu.Lock()
	// The clock is read under the lock: it totally orders this invocation
	// against every completion's idle-bound clock read, so the bound
	// published there can never overtake an invocation it didn't see.
	inv = t.j.Now()
	if len(t.inflight) == 0 {
		t.src.Begin(inv)
	}
	t.inflight = append(t.inflight, tapSlot{inv: inv})
	handle = t.base + int64(len(t.inflight)) - 1
	t.mu.Unlock()
	return inv, handle
}

// recordGated journals one completed operation from a worker goroutine.
// The record is built under the lock too: buildRec interns the register
// name in the source's private cache, which is no safer to share between
// workers than the ring.
func (t *connTap) recordGated(req *wire.Request, resp *wire.Response, inv, handle int64) {
	t.mu.Lock()
	rec := t.buildRec(req, resp, inv)
	t.inflight[handle-t.base].done = true
	for len(t.inflight) > 0 && t.inflight[0].done {
		t.inflight = t.inflight[1:]
		t.base++
	}
	// Publish the record before advancing the bound: a checker snapshots
	// the horizon first and drains second, so whatever the bound admits
	// must already be in the ring.
	t.src.RecordOnly(rec)
	if len(t.inflight) > 0 {
		t.src.Begin(t.inflight[0].inv)
	} else {
		t.src.Begin(t.j.Now())
	}
	t.mu.Unlock()
}

// close marks the connection's source finished once no more records can
// arrive (the worker models call it after their WaitGroup drains).
func (t *connTap) close() {
	t.src.Close()
}
