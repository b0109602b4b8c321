// Package replica implements an ABD-style replicated atomic register: a
// quorum client (QClient) runs every read and write as majority round
// trips fanned out over persistent per-replica connections to m
// independent Store servers, so the register survives any f < m/2
// permanent server crashes with atomicity intact — the crash-prone,
// message-passing counterpart of the paper's shared-memory construction,
// scaled from two writers on one box to many writers on many boxes.
//
// # Protocol
//
// Each replica serves two wire ops against its q-cell, a monotone
// (ts, wid, value) triple (see netreg's qread/qwrite): qread returns the
// triple, and qwrite stores a triple iff it is lexicographically newer. On top of these the client runs the
// classic two-phase quorum dance [Attiya–Bar-Noy–Dolev; multi-writer per
// Lynch–Shvartsman]:
//
//	Write(v): query a majority for timestamps; pick ts = max+1 with the
//	  client's writer id as tiebreak; qwrite (ts, wid, v) to a majority.
//	  (ts also exceeds every timestamp the client has used before, so
//	  concurrent writes on one client never share a (ts, wid).)
//	Read(): query a majority for triples; pick the lexicographic max;
//	  write the max back to a majority (so a once-read value is at a
//	  majority and no later read returns anything older); return it.
//
// Any two majorities intersect, which is the whole proof sketch: a
// read's query majority intersects every completed write's write-back
// majority, so the max the read picks is at least as new as any
// completed write — and the read's own write-back hands that guarantee
// to the reads after it.
//
// # Transport
//
// QClient runs on the quorum engine (engine.go), over internal/pipe,
// the pipelined connection netreg.Client runs on too: one dispatcher
// goroutine per replica connection fed by a submission ring, pooled
// per-op records recycled through a freelist, and completion via ack
// counters and per-op doorbells — zero goroutine spawns and zero
// allocations per steady-state operation.
//
// # Modes
//
// ModeABD is the baseline above. ModeFast (after Huang–Huang–Wei,
// "Fine-grained Analysis on Fast Implementations of Distributed
// Multi-writer Atomic Registers") is toggled per client (bench/'s
// cluster-read workload runs it, cluster-write runs ModeABD): when every
// reply in a read's query majority agrees on (ts, wid), the value is
// already at a majority and the write-back phase is provably redundant —
// the read completes in ONE round. Under low write contention almost
// every read takes the fast path. The engine extends this with
// write-back ELISION: completed writes, write-backs, and unanimous
// queries raise a per-client acked watermark (the newest (ts, wid) a
// full quorum is known to hold), and a read whose candidate is covered
// by the watermark skips its write-back even when the query replies
// disagree — repeat reads of a settled register take the one-round path
// despite a lagging replica. Sound because q-cells are monotone: the
// watermark quorum holds >= that stamp forever, and every later read's
// majority intersects it, so the new-old-inversion guard is preserved.
//
// # Combining
//
// Concurrent reads on one QClient COMBINE: the first read in flight
// leads the quorum query, and reads that arrive before any of its query
// frames hit a socket join as followers, receiving the leader's
// (value, ts, wid) without issuing any quorum round of their own. The seal point — no joins after the first frame is dequeued for
// sending — is what makes a follower's result sound: every quorum
// contact happens inside the follower's own invocation interval, so the
// follower linearizes immediately after its leader. Followers journal
// their own logical ops (exactly-once) and tally as zero-round
// completions (obs.Replica's combined counter).
//
// # Failures
//
// The engine fails a replica's connection as a whole on any transport
// fault — including read silence past the op timeout while work is
// outstanding, the deterministic retirement of stalled-replica
// stragglers — fail-acking every in-flight exchange and redialing with
// capped backoff; while down, submissions fail instantly. A phase that
// cannot reach a majority fails the logical operation with a
// *QuorumError carrying every per-replica cause, errors.Is-compatible
// with ErrNoQuorum and netreg.ErrUnavailable: quorum loss is
// unavailability, never a wrong answer, and it is a fast failure, not a
// hang.
//
// # Certification
//
// A QClient can journal its LOGICAL operations (Options.Journal): one
// record per Read/Write spanning both phases, which internal/linz checks
// online like any other journal — that check is the atomicity claim for
// the replicated register. It composes with the per-replica journals
// (netreg.WithJournal on each server) through linz.NewOnlineParts, which
// namespaces each journal under a prefix and certifies all of them in
// one checker. A logical operation that fails (no quorum) is journaled
// JErr; under the supported failure model — f < m/2 permanent crashes,
// timeouts generous enough that live replicas answer within the phase
// deadline — logical operations do not fail, so no JErr record can mask
// a partially-installed write that a later read might surface. Past
// quorum loss no later read completes either, so nothing observable goes
// unexplained.
package replica

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/netreg"
	"repro/internal/obs"
)

// Mode selects the read/write variant a QClient runs (see the package
// comment).
type Mode int

const (
	// ModeABD is plain two-phase ABD: full-value quorum queries, every
	// read writes back.
	ModeABD Mode = iota
	// ModeFast skips a read's write-back when the query majority already
	// agrees on (ts, wid) — or when the client's acked watermark already
	// covers the candidate (write-back elision): a one-round read.
	ModeFast
)

// String names the mode as it appears in benchmark tables.
func (m Mode) String() string {
	switch m {
	case ModeABD:
		return "abd"
	case ModeFast:
		return "fast"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrNoQuorum marks logical operations that failed because no majority
// of replicas answered. It wraps netreg.ErrUnavailable, so transport-
// level availability tests (errors.Is(err, netreg.ErrUnavailable)) see
// quorum loss for what it is. Returned errors are *QuorumError values
// wrapping this sentinel plus the per-replica causes.
var ErrNoQuorum = fmt.Errorf("replica: quorum unavailable: %w", netreg.ErrUnavailable)

// Options configures a QClient.
type Options struct {
	// Mode selects the protocol variant. Default ModeABD.
	Mode Mode
	// WriterID breaks timestamp ties between concurrent writers and MUST
	// be distinct per writing client of one register: two clients sharing
	// an id could install different values under one (ts, wid), which no
	// linearization explains. Concurrent writes on ONE client are safe:
	// its stamp floor gives each its own timestamp.
	WriterID uint32
	// Register names the register instance on the replicas (netreg
	// AddRegister); "" is every store's default register.
	Register string
	// Journal, when set, receives one record per LOGICAL operation (see
	// the package comment on certification).
	Journal *obs.Journal
	// Tally, when set, receives quorum latency, rounds/op, fast-path,
	// combining and elision counts, no-quorum counts, and per-replica
	// exchange health. Create it with obs.NewReplica(m).
	Tally *obs.Replica

	// Timeout bounds one quorum phase (and one connection's read silence
	// while work is outstanding, times 1.5). Zero means one second.
	Timeout time.Duration
	// Dialer, when set, replaces net.Dial for replica connections — the
	// fault-injection hook (see faultnet.Plan.Dialer).
	Dialer func(addr string) (net.Conn, error)
	// Wire, when set, counts the engine's frames and socket bytes (the
	// bytes/op comparison across modes).
	Wire *obs.Wire
}

// newer reports whether (ts1, wid1) orders after (ts2, wid2) in the
// protocol's lexicographic timestamp order.
//
//bloom:waitfree
//bloom:noalloc
func newer(ts1 int64, wid1 uint32, ts2 int64, wid2 uint32) bool {
	return ts1 > ts2 || (ts1 == ts2 && wid1 > wid2)
}

// qTap journals a quorum client's logical operations. Concurrent logical
// ops complete out of order, so it uses a gated discipline: a mutex
// serializes ring access and a FIFO of in-flight invocations keeps the
// source's horizon bound at the oldest running invocation — a completion
// must never advance the bound past an older, still-running logical op.
// All methods are safe on a nil receiver (journaling disabled).
type qTap struct {
	j   *obs.Journal
	src *obs.Source
	kid uint32 // register key id, interned once: KeyID is producer-private

	mu       sync.Mutex
	base     int64
	inflight []qSlot
}

type qSlot struct {
	inv  int64
	done bool
}

func newQTap(j *obs.Journal, reg string) *qTap {
	src := j.Source()
	return &qTap{j: j, src: src, kid: src.KeyID(reg)}
}

// begin stamps a logical invocation, returning the instant and the
// in-flight handle record needs back.
func (t *qTap) begin() (inv, handle int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	inv = t.j.Now()
	if len(t.inflight) == 0 {
		t.src.Begin(inv)
	}
	t.inflight = append(t.inflight, qSlot{inv: inv})
	handle = t.base + int64(len(t.inflight)) - 1
	t.mu.Unlock()
	return inv, handle
}

// record journals one completed logical operation. failed ops carry JErr
// so checkers skip them (see the package comment for why that is sound
// under the supported failure model).
func (t *qTap) record(kind uint8, val json.RawMessage, inv, handle int64, failed bool) {
	if t == nil {
		return
	}
	rec := obs.Rec{Inv: inv, Res: t.j.Now(), Key: t.kid, Kind: kind, Val: obs.HashVal(val)}
	if failed {
		rec.Flags |= obs.JErr
	}
	t.mu.Lock()
	t.inflight[handle-t.base].done = true
	for len(t.inflight) > 0 && t.inflight[0].done {
		t.inflight = t.inflight[1:]
		t.base++
	}
	// Publish before advancing the bound: a checker snapshots the horizon
	// first and drains second, so whatever the bound admits must already
	// be in the ring.
	t.src.RecordOnly(rec)
	if len(t.inflight) > 0 {
		t.src.Begin(t.inflight[0].inv)
	} else {
		t.src.Begin(t.j.Now())
	}
	t.mu.Unlock()
}

// close marks the tap's source finished.
func (t *qTap) close() {
	if t != nil {
		t.src.Close()
	}
}
