// The quorum engine: the QClient's phases over one internal/pipe Conn
// per replica, the transport netreg.Client runs on too. Steady-state
// reads and writes spawn nothing and allocate nothing — proven statically
// by //bloom:noalloc on the hot path and at runtime by the allocs gate on
// BenchmarkQuorumRead/BenchmarkQuorumWrite.
//
// runPhase retags the op's pooled record (invalidating straggler acks of
// earlier phases), submits one item per replica, and sleeps on the
// record's doorbell with a deadline. Each ack merges the reply's
// (ts, wid, value) under the record's mutex and rings the doorbell as the
// ok count reaches the quorum, or marks the phase failed as the fail
// count passes m - quorum. What the engine keeps for itself: the
// combiner's seal, which fires as a leader's query is dequeued, before
// any byte of it is written; the read watchdog, which fails a replica
// connection after timeout-and-a-half of read silence while work is
// outstanding, retiring a silent replica's stragglers; and the reconnect
// policy, a background redial with capped backoff while submissions to
// the dead connection fail at once.
package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netreg"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/wire"
)

const (
	// defaultTimeout bounds one phase (and one connection's read silence)
	// when Options.Timeout is zero.
	defaultTimeout = time.Second
	// redialMin/redialMax bound the down-connection redial backoff.
	redialMin = time.Millisecond
	redialMax = 100 * time.Millisecond
)

// Phase kinds, indexing qOpName.
const (
	kQRead uint8 = iota
	kQWrite
)

// qOpName maps phase kinds to wire op names. The strings are package
// constants, so setting req.Op from here never allocates.
var qOpName = [...]string{kQRead: "qread", kQWrite: "qwrite"}

// opState is one pooled per-op record: phase progress, the running
// (ts, wid, value) maximum, and the combining hand-off fields, behind the
// pipe.Rec header that carries its doorbell, timer and tag.
//
// Every phase field is guarded by Mu. Helpers on the ack hot path
// (merge, and the resolve switch that calls it) run with Mu already
// held by the caller — the sharedfield pass's must-hold dataflow is
// per-function and cannot see a caller-held lock, hence the waiver.
// The race detector covers the same property dynamically: the whole
// replica test suite runs under -race in CI.
//
//bloom:allowshared
type opState struct {
	pipe.Rec

	// Current phase, guarded by Mu.
	phaseKind   uint8
	need, total int
	oks, fails  int
	phaseFailed bool
	agree       bool
	haveBest    bool
	bestTS      int64
	bestWID     uint32
	val         []byte // merged best value (owned; reused across ops)
	wval        []byte // write payload copy (owned; reused across ops)

	// Combining follower hand-off, guarded by the combiner's mutex.
	followers []*opState
	leader    *opState
	fDone     bool
	fErr      error
	fTS       int64
	fWID      uint32
}

// beginPhase retags the record for a fresh phase, invalidating straggler
// acks, and returns the phase's correlation id.
//
//bloom:noalloc
func (s *opState) beginPhase(kind uint8, need, total int) uint64 {
	s.Mu.Lock()
	id := s.Retag()
	s.phaseKind = kind
	s.need, s.total = need, total
	s.oks, s.fails = 0, 0
	s.phaseFailed = false
	s.agree, s.haveBest = true, false
	s.Mu.Unlock()
	s.Drain() // defensive: no stale token can survive a completed phase
	return id
}

// merge folds one qread reply into the running maximum. Caller holds
// s.Mu. The value copy is mandatory: resp.Val aliases the reader's frame
// buffer, which the next ReadResponse reuses.
//
//bloom:noalloc
func (s *opState) merge(resp *wire.Response) {
	if !s.haveBest {
		s.haveBest = true
		s.bestTS, s.bestWID = resp.Stamp, resp.WID
		s.val = append(s.val[:0], resp.Val...)
		return
	}
	if resp.Stamp != s.bestTS || resp.WID != s.bestWID {
		s.agree = false
	}
	if newer(resp.Stamp, resp.WID, s.bestTS, s.bestWID) {
		s.bestTS, s.bestWID = resp.Stamp, resp.WID
		s.val = append(s.val[:0], resp.Val...)
	}
}

// combiner tracks the current unsealed leader read (see tryLead).
type combiner struct {
	mu  sync.Mutex
	cur *opState
}

// econn is one replica's connection: the pipe generation phases submit
// to, and the run goroutine that replaces it when it fails. It is the
// pipe.Sink of each generation it starts.
type econn struct {
	q    *QClient
	idx  int
	addr string
	cur  atomic.Pointer[pipe.Conn]

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	mu      sync.Mutex
	dialErr error // why the latest redial failed; nil once one succeeds
}

// start runs a pipe generation over conn. The watchdog fails it after
// timeout-and-a-half of read silence while work is outstanding.
func (e *econn) start(conn net.Conn) {
	e.cur.Store(pipe.Start(conn, e, e.q.ws, e.q.timeout+e.q.timeout/2))
}

// run keeps the replica connected until Close: wait for the current
// generation to fail, redial with capped backoff, start the next.
func (e *econn) run() {
	defer close(e.done)
	for {
		g := e.cur.Load()
		select {
		case <-g.Done():
		case <-e.stop:
			g.Fail(netreg.ErrClosed)
			<-g.Done()
			return
		}
		conn := e.redial()
		if conn == nil {
			return
		}
		e.start(conn)
	}
}

// redial reconnects with capped exponential backoff. Returns nil when the
// client is closing.
func (e *econn) redial() net.Conn {
	backoff := redialMin
	for {
		conn, err := e.q.dialRaw(e.addr)
		e.mu.Lock()
		e.dialErr = err
		e.mu.Unlock()
		if err == nil {
			return conn
		}
		t := time.NewTimer(backoff)
		select {
		case <-e.stop:
			t.Stop()
			return nil
		case <-t.C:
		}
		if backoff *= 2; backoff > redialMax {
			backoff = redialMax
		}
	}
}

// lastError returns why the replica is failing, if it is (surfaced
// through QuorumError): the latest failed redial, else the current
// connection's failure.
func (e *econn) lastError() error {
	e.mu.Lock()
	err := e.dialErr
	e.mu.Unlock()
	if err != nil {
		return err
	}
	return e.cur.Load().Err()
}

// Dequeued implements pipe.Sink: a combining leader's query seals the
// combiner as the first dispatcher dequeues it.
func (e *econn) Dequeued(id uint64, seal bool) {
	if seal {
		e.q.seal(e.q.pool.At(id))
	}
}

// Ack implements pipe.Sink: it resolves one exchange of a phase. When the
// ack is current it folds the outcome into the counters, ringing the
// doorbell on the deciding transition; a reply carrying a server error
// counts as a failure.
//
//bloom:noalloc
func (e *econn) Ack(id uint64, resp *wire.Response) {
	ok := resp != nil && resp.Err == ""
	s, current := e.q.pool.Lock(id)
	if current {
		if ok {
			if s.phaseKind == kQRead {
				s.merge(resp)
			}
			s.oks++
			if s.oks >= s.need {
				s.Done = true
				s.Ring()
			}
		} else {
			s.fails++
			if s.fails > s.total-s.need {
				s.Done, s.phaseFailed = true, true
				s.Ring()
			}
		}
	}
	e.q.pool.Unlock(&s.Rec)
	e.q.tally.RecordReplica(e.idx, ok)
}

// QClient is a quorum client over m replicas, built on the persistent
// engine (see the file comment). All methods are safe for concurrent
// use, writes included; one QClient is one writer identity, and its
// stamp floor gives every write it issues its own timestamp, so
// concurrent writes never install two values under one (ts, wid).
// Concurrent same-key reads combine: followers piggyback on the leader's
// in-flight quorum query and complete in zero rounds of their own.
// ModeFast clients additionally elide a read's write-back when a quorum
// is already known to hold the candidate (ts, wid) — the watermark
// raised by earlier writes, write-backs, and unanimous queries — so
// repeat reads of a settled register take the one-round path even when a
// straggler replica lags.
type QClient struct {
	conns   []*econn
	quorum  int
	mode    Mode
	wid     uint32
	reg     string
	tally   *obs.Replica
	tap     *qTap
	timeout time.Duration
	dialer  func(addr string) (net.Conn, error)
	ws      *obs.Wire

	pool pipe.Pool[opState, *opState]
	comb combiner

	// lastTS is the stamp floor: the newest timestamp this client has
	// given a write. Raised by CAS in nextTS; monotone.
	lastTS atomic.Int64

	// Acked watermark: the newest (ts, wid) proven held by a full
	// quorum. Monotone; used by ModeFast write-back elision.
	wmMu   sync.Mutex
	wmTS   int64
	wmWID  uint32
	haveWM bool
}

// Dial connects one persistent engine connection per replica address and
// returns a quorum client over them. Dialing fails if any replica is
// unreachable at start (a cluster that begins degraded is a deployment
// error, not a fault to tolerate); after that, a crashed replica
// degrades to instant local failures while it is redialed in the
// background with backoff.
func Dial(addrs []string, o Options) (*QClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("replica: no replica addresses")
	}
	timeout := o.Timeout
	if timeout <= 0 {
		timeout = defaultTimeout
	}
	q := &QClient{
		quorum:  len(addrs)/2 + 1,
		mode:    o.Mode,
		wid:     o.WriterID,
		reg:     o.Register,
		tally:   o.Tally,
		timeout: timeout,
		dialer:  o.Dialer,
		ws:      o.Wire,
	}
	for i, a := range addrs {
		conn, err := q.dialRaw(a)
		if err != nil {
			q.Close()
			return nil, fmt.Errorf("replica: dialing %s: %w", a, err)
		}
		e := &econn{q: q, idx: i, addr: a, stop: make(chan struct{}), done: make(chan struct{})}
		// The socket is open, so the connection is live now: an op issued
		// as soon as Dial returns queues on its ring instead of failing
		// fast as if the replica were down.
		e.start(conn)
		q.conns = append(q.conns, e)
		go e.run()
	}
	// The journal source opens only once every replica is connected: a
	// failed Dial must not leave one behind, pinning the journal horizon.
	if o.Journal != nil {
		q.tap = newQTap(o.Journal, o.Register)
	}
	return q, nil
}

// dialRaw opens one replica connection, via Options.Dialer when set
// (the fault-injection hook), wrapped for byte counting when
// Options.Wire is set.
func (q *QClient) dialRaw(addr string) (net.Conn, error) {
	var c net.Conn
	var err error
	if q.dialer != nil {
		c, err = q.dialer(addr)
	} else {
		c, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	if q.ws != nil {
		c = netreg.StatConn(c, q.ws)
	}
	return c, nil
}

// Quorum returns the majority size the client waits for.
func (q *QClient) Quorum() int { return q.quorum }

// Mode returns the client's protocol variant.
func (q *QClient) Mode() Mode { return q.mode }

// Close shuts the engine down: every replica's connection is failed,
// which acks whatever is still in flight, and its run goroutine exits.
// Concurrent operations fail with ErrNoQuorum. The journal tap, if any,
// is closed so it stops holding the journal horizon back.
func (q *QClient) Close() error {
	if q.tap != nil {
		q.tap.close()
	}
	for _, e := range q.conns {
		e.stopOnce.Do(func() { close(e.stop) })
	}
	for _, e := range q.conns {
		<-e.done
	}
	return nil
}

// seal closes the combining window for s: once any dispatcher has
// dequeued one of the leader's phase-1 items (and therefore before any
// request byte hits a socket), new readers must not join — a follower's
// result is only sound if every quorum contact happened inside the
// follower's own (Inv, Res) interval, which joining before the first
// send guarantees. Idempotent across the m dispatchers.
func (q *QClient) seal(s *opState) {
	q.comb.mu.Lock()
	if q.comb.cur == s {
		q.comb.cur = nil
	}
	q.comb.mu.Unlock()
}

// runPhase runs one quorum round: fan out to every replica and wait for
// a majority. Returns false when the phase failed (no quorum within the
// deadline).
//
//bloom:noalloc
func (q *QClient) runPhase(s *opState, kind uint8, ts int64, wid uint32, val []byte, seal bool) bool {
	id := s.beginPhase(kind, q.quorum, len(q.conns))
	it := pipe.Item{
		Request: wire.Request{ID: id, Op: qOpName[kind], Reg: q.reg, TS: ts, WID: wid, Val: val},
		Seal:    seal,
	}
	deadline := time.Now().Add(q.timeout)
	for _, e := range q.conns {
		if !e.cur.Load().Submit(&s.Rec, it, deadline) {
			e.Ack(id, nil)
		}
	}
	if !s.Wait(deadline) {
		s.Mu.Lock()
		if !s.Done {
			s.Done, s.phaseFailed = true, true
		}
		s.Mu.Unlock()
	}
	s.Drain() // a completion that raced the timeout left its token behind
	s.Mu.Lock()
	failed := s.phaseFailed
	s.Mu.Unlock()
	return !failed
}

// raiseWM advances the acked watermark to (ts, wid) — called only after
// a full quorum has acked that stamp (completed write phase, completed
// write-back, or unanimous phase-1 agreement).
//
//bloom:noalloc
func (q *QClient) raiseWM(ts int64, wid uint32) {
	q.wmMu.Lock()
	if !q.haveWM || newer(ts, wid, q.wmTS, q.wmWID) {
		q.wmTS, q.wmWID, q.haveWM = ts, wid, true
	}
	q.wmMu.Unlock()
}

// wmCovers reports whether a quorum is already known to hold a stamp at
// least as new as (ts, wid) — the write-back elision condition. Sound
// because q-cells are monotone: the watermark quorum holds >= the
// watermark forever, and any later read's query majority intersects it,
// so no later read can return older than (ts, wid).
//
//bloom:noalloc
func (q *QClient) wmCovers(ts int64, wid uint32) bool {
	q.wmMu.Lock()
	ok := q.haveWM && !newer(ts, wid, q.wmTS, q.wmWID)
	q.wmMu.Unlock()
	return ok
}

// tryLead claims the combining leadership for s, or joins s as a
// follower of the current unsealed leader. Returns true when s leads.
//
//bloom:noalloc
func (q *QClient) tryLead(s *opState) bool {
	q.comb.mu.Lock()
	if cur := q.comb.cur; cur != nil {
		s.leader = cur
		s.fDone = false
		s.fErr = nil
		joinFollower(cur, s)
		q.comb.mu.Unlock()
		return false
	}
	q.comb.cur = s
	q.comb.mu.Unlock()
	return true
}

// joinFollower appends f to the leader's follower set (comb.mu held).
// Amortized: the slice is reset to length 0 at delivery, so its capacity
// tracks the high-water follower count.
//
//bloom:allowalloc
func joinFollower(leader, f *opState) {
	leader.followers = append(leader.followers, f)
}

// deliver hands the leader's read outcome to every follower that joined
// before the query was sealed, then drops leadership if the seal never
// fired (the all-connections-down case). Runs for failures too — a
// follower must never be left waiting on a leader that has given up.
//
//bloom:noalloc
func (q *QClient) deliver(s *opState, ts int64, wid uint32, err error) {
	q.comb.mu.Lock()
	if q.comb.cur == s {
		q.comb.cur = nil
	}
	for _, f := range s.followers {
		f.fTS, f.fWID, f.fErr = ts, wid, err
		if err == nil {
			f.val = appendVal(f.val[:0], s.val)
		}
		f.fDone = true
		f.Ring()
	}
	s.followers = s.followers[:0]
	q.comb.mu.Unlock()
}

// appendVal copies src into the follower's owned buffer (amortized: the
// buffer is reused across the record's lifetimes).
//
//bloom:allowalloc
func appendVal(dst, src []byte) []byte {
	return append(dst, src...)
}

// followWait parks a combining follower on its doorbell until the leader
// delivers (or the deadline passes — generous enough for the leader's
// two phases plus slack, so it only fires when the leader itself is
// stuck past its own timeouts).
//
//bloom:noalloc
func (q *QClient) followWait(s *opState, buf []byte, start time.Time, inv, handle int64) ([]byte, int64, uint32, error) {
	if !s.Wait(time.Now().Add(2*q.timeout + q.timeout/2)) {
		q.comb.mu.Lock()
		if !s.fDone {
			detachFollower(s.leader, s)
			q.comb.mu.Unlock()
			q.tally.RecordNoQuorum(obs.QRead)
			q.tap.record(obs.JRead, nil, inv, handle, true)
			q.pool.Retire(&s.Rec)
			return nil, 0, 0, errCombinedTimeout
		}
		q.comb.mu.Unlock()
		s.Drain() // delivery raced the timeout; consume its token
	}
	if s.fErr != nil {
		err := s.fErr
		q.tally.RecordNoQuorum(obs.QRead)
		q.tap.record(obs.JRead, nil, inv, handle, true)
		q.pool.Retire(&s.Rec)
		return nil, 0, 0, err
	}
	buf = appendVal(buf[:0], s.val)
	ts, wid := s.fTS, s.fWID
	q.tap.record(obs.JRead, buf, inv, handle, false)
	q.tally.RecordOp(obs.QRead, 0, time.Since(start))
	q.pool.Retire(&s.Rec)
	return buf, ts, wid, nil
}

// errCombinedTimeout is returned by a follower whose leader never
// delivered within the combined deadline; static so the path allocates
// nothing.
var errCombinedTimeout = fmt.Errorf("%w: combined read timed out waiting for its leader query", ErrNoQuorum)

// detachFollower removes f from its leader's follower set (comb.mu
// held; the leader is alive because delivery — which empties the set —
// has not happened).
//
//bloom:noalloc
func detachFollower(leader, f *opState) {
	for i, g := range leader.followers {
		if g == f {
			leader.followers[i] = leader.followers[len(leader.followers)-1]
			leader.followers = leader.followers[:len(leader.followers)-1]
			return
		}
	}
}

// ReadInto performs one logical quorum read, appending the value into
// buf[:0] and returning it with the (ts, wid) it carried. This is the
// zero-allocation read path: with a recycled record, a warm freelist,
// and a caller-owned buffer, the steady state allocates nothing and
// spawns nothing.
//
//bloom:noalloc
func (q *QClient) ReadInto(buf []byte) ([]byte, int64, uint32, error) {
	start := time.Now()
	inv, handle := q.tap.begin()
	s := q.pool.Get()
	if !q.tryLead(s) {
		return q.followWait(s, buf, start, inv, handle)
	}
	ts, wid, rounds, err := q.readEngine(s)
	q.deliver(s, ts, wid, err)
	if err != nil {
		q.tally.RecordNoQuorum(obs.QRead)
		q.tap.record(obs.JRead, nil, inv, handle, true)
		q.pool.Retire(&s.Rec)
		return nil, 0, 0, err
	}
	buf = appendVal(buf[:0], s.val)
	q.tap.record(obs.JRead, buf, inv, handle, false)
	q.tally.RecordOp(obs.QRead, rounds, time.Since(start))
	q.pool.Retire(&s.Rec)
	return buf, ts, wid, nil
}

// readEngine runs the mode's read phases on the engine, leaving the
// result in s.val / s.bestTS / s.bestWID.
//
//bloom:noalloc
func (q *QClient) readEngine(s *opState) (ts int64, wid uint32, rounds int, err error) {
	if !q.runPhase(s, kQRead, 0, 0, nil, true) {
		return 0, 0, 1, q.noQuorumErr()
	}
	ts, wid = s.bestTS, s.bestWID
	if q.mode == ModeFast {
		if s.agree {
			// Fast path: a unanimous majority already holds (ts, wid).
			q.raiseWM(ts, wid)
			return ts, wid, 1, nil
		}
		if q.wmCovers(ts, wid) {
			// Elision: the quorum acked >= (ts, wid) earlier (write,
			// write-back, or unanimous query), so the write-back below
			// would be a no-op at every intersecting majority.
			q.tally.RecordElided(obs.QRead)
			return ts, wid, 1, nil
		}
	}
	if !q.runPhase(s, kQWrite, ts, wid, s.val, false) {
		return 0, 0, 2, q.noQuorumErr()
	}
	q.raiseWM(ts, wid)
	return ts, wid, 2, nil
}

// Read performs one logical quorum read, returning the raw JSON value in
// a fresh buffer (one allocation; use ReadInto to amortize it away).
func (q *QClient) Read() (json.RawMessage, error) {
	v, _, _, err := q.ReadStamped()
	return v, err
}

// ReadStamped performs one logical quorum read and returns the value
// with the (ts, wid) it carried, in a fresh buffer (one allocation; use
// ReadInto to amortize it away).
func (q *QClient) ReadStamped() (json.RawMessage, int64, uint32, error) {
	v, ts, wid, err := q.ReadInto(nil)
	return json.RawMessage(v), ts, wid, err
}

// Write performs one logical quorum write of raw JSON value val.
func (q *QClient) Write(val json.RawMessage) error {
	_, _, err := q.WriteStamped(val)
	return err
}

// WriteStamped performs one logical quorum write and returns the
// (ts, wid) it installed. val is copied into an owned buffer before the
// phases run (amortized across the record pool), so the caller may reuse
// it immediately.
//
//bloom:noalloc
func (q *QClient) WriteStamped(val json.RawMessage) (int64, uint32, error) {
	start := time.Now()
	inv, handle := q.tap.begin()
	s := q.pool.Get()
	s.wval = appendVal(s.wval[:0], val)

	// Phase 1: learn a timestamp no completed write exceeds.
	if !q.runPhase(s, kQRead, 0, 0, nil, false) {
		err := q.noQuorumErr()
		q.tally.RecordNoQuorum(obs.QWrite)
		q.tap.record(obs.JWrite, val, inv, handle, true)
		q.pool.Retire(&s.Rec)
		return 0, 0, err
	}
	ts := q.nextTS(s.bestTS)

	// Phase 2: install (ts, wid, val) at a majority.
	if !q.runPhase(s, kQWrite, ts, q.wid, s.wval, false) {
		err := q.noQuorumErr()
		q.tally.RecordNoQuorum(obs.QWrite)
		q.tap.record(obs.JWrite, val, inv, handle, true)
		q.pool.Retire(&s.Rec)
		return 0, 0, err
	}
	q.raiseWM(ts, q.wid)
	q.tap.record(obs.JWrite, val, inv, handle, false)
	q.tally.RecordOp(obs.QWrite, 2, time.Since(start))
	q.pool.Retire(&s.Rec)
	return ts, q.wid, nil
}

// nextTS picks a write's timestamp: one past both the query's maximum
// and the client's stamp floor, which it raises to the result. Two
// concurrent writes on one client can query the same maximum; the floor
// still hands them distinct timestamps. Ordering is plain ABD's: the
// result exceeds every stamp the query majority held, so a write that
// starts after another completes still orders after it.
//
//bloom:noalloc
func (q *QClient) nextTS(best int64) int64 {
	for {
		last := q.lastTS.Load()
		ts := max(best, last) + 1
		if q.lastTS.CompareAndSwap(last, ts) {
			return ts
		}
	}
}

// noQuorumErr builds the per-replica-attributed quorum failure (cold
// path; see QuorumError).
//
//bloom:allowalloc
func (q *QClient) noQuorumErr() error {
	qe := &QuorumError{Replicas: len(q.conns), Quorum: q.quorum}
	qe.causes = append(qe.causes, ErrNoQuorum)
	for i, e := range q.conns {
		if err := e.lastError(); err != nil {
			qe.causes = append(qe.causes, fmt.Errorf("replica %d: %w", i, err))
		}
	}
	return qe
}
