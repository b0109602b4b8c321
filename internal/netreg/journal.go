package netreg

import (
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

// connTap journals one connection's operations. The server handles a
// connection's requests one at a time on the connection goroutine, so
// there is exactly one operation in flight and recording is the
// journal's native wait-free SPSC protocol (begin / record).
type connTap struct {
	j   *obs.Journal
	src *obs.Source

	// lastRes is the invocation stamp of the next operation: the
	// previous record's response instant (see begin).
	lastRes int64
}

func newConnTap(j *obs.Journal) *connTap {
	t := &connTap{j: j, src: j.Source()}
	t.lastRes = j.Now()
	return t
}

// begin stamps an invocation on the connection goroutine — without
// touching the clock or the ring. The producer is sequential, so the
// previous record's response instant lower-bounds this operation's true
// invocation; using it as the stamp widens the recorded interval by the
// inter-op gap (sound: a wider interval only admits more
// linearizations, and with pipelined traffic the gap is the decode
// time). It publishes no Begin either: the bound the previous record
// left (that same response instant) already lower-bounds every future
// record, so the horizon contract holds as-is. Net cost of journaling an
// op: one clock read, one record.
//
//bloom:waitfree
//bloom:noalloc
func (t *connTap) begin() int64 {
	return t.lastRes
}

// record journals one completed operation on the connection goroutine.
//
//bloom:waitfree
//bloom:noalloc
func (t *connTap) record(req *wire.Request, resp *wire.Response, inv int64) {
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

// close marks the connection's source finished once no more records can
// arrive.
func (t *connTap) close() {
	t.src.Close()
}
