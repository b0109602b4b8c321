// The quorum engine: a persistent, zero-allocation transport for the
// QClient's phases. Rather than fanning each phase out over fresh
// goroutines and channels, each replica gets ONE long-lived dispatcher
// goroutine fed by a mutex-light submission ring (a buffered channel of
// by-value items) and ONE reader goroutine per connection generation;
// per-op state lives in pooled records recycled through a freelist;
// majority completion is an ack counter plus a per-op doorbell channel.
// Steady-state reads and writes spawn nothing and allocate nothing —
// proven statically by //bloom:noalloc on the hot path and at runtime by
// the allocs gate on BenchmarkQuorumRead/BenchmarkQuorumWrite.
//
// # Lifecycle of one phase
//
// runPhase retags the op's pooled record (invalidating any straggler
// acks from earlier phases), pushes one subItem per target connection,
// and sleeps on the record's doorbell with a deadline. Each dispatcher
// dequeues the item, appends the frame to its connection's write buffer,
// pushes the request id onto the connection's pending conveyor, and
// flushes in netreg-style spin-batched bursts. The reader correlates
// responses to conveyor entries and acks the record: merge the reply's
// (ts, wid, value) under the record's mutex, bump the ok counter, and on
// crossing the quorum ring the doorbell exactly once. A failed exchange
// acks the fail counter instead; crossing the impossibility bound
// (fails > m - quorum) rings the doorbell with the phase marked failed.
//
// # Exactly-once accounting
//
// Every enqueued item holds one reference on its record, released by
// exactly one ack: the reader's response or failure path, the
// dispatcher's drain of undelivered items while a connection is down,
// or the submitter's own undo when an enqueue times out before the item
// ever enters the ring. A record returns to the freelist only when it is
// retired AND its reference count is zero, so a straggler ack can never
// touch a record that has been recycled into a different logical op —
// the tag check just makes the straggler a no-op on the counters.
//
// # Straggler retirement
//
// A replica that accepts requests but stops answering cannot leak
// resources: the reader arms a read deadline whenever work is
// outstanding (armed by the dispatcher on send when the reader is idle,
// refreshed by the reader on every response), and a deadline expiry with
// outstanding entries fails the whole connection — every in-flight item
// is fail-acked, the socket is closed, and the dispatcher redials with
// backoff. There is no per-op goroutine to leak blocked on a send, and
// per-conn state is reclaimed on a timeout bound.
package replica

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netreg"
	"repro/internal/obs"
	"repro/internal/wire"
)

const (
	// engineBufSize sizes each connection's read and write buffers
	// (matches netreg's clientBufSize).
	engineBufSize = 64 << 10
	// subDepth bounds each connection's submission ring. A full ring
	// parks the submitter in a deadline select; it never drops items.
	subDepth = 256
	// pendDepth bounds the sent-but-unanswered conveyor between a
	// dispatcher and its reader.
	pendDepth = 4096
	// engineFlushSpins mirrors netreg's flushSpins: scheduler yields
	// spent re-forming a batch before paying for a flush syscall.
	engineFlushSpins = 3
	// defaultTimeout bounds one phase (and one connection's read
	// silence) when Options.Timeout is zero.
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

// subItem is one replica's share of a phase, passed by value through the
// submission ring (no boxing, no per-item allocation).
type subItem struct {
	s    *opState
	val  []byte // qwrite payload; aliases s.wval or s.val, pinned by the item's ref
	ts   int64
	tag  uint32
	wid  uint32
	kind uint8
	seal bool // first dequeue anywhere seals the combiner (see tryLead)
}

// opState is one pooled per-op record: phase progress, the running
// (ts, wid, value) maximum, the doorbell the waiter sleeps on, and the
// combining hand-off fields. Records are recycled through the arena
// freelist; the tag distinguishes incarnations so straggler acks from a
// previous phase (or a previous op) cannot corrupt the current one.
//
// Every phase field is guarded by mu. Helpers on the ack hot path
// (merge, and the resolve switch that calls it) run with mu already
// held by the caller — the sharedfield pass's must-hold dataflow is
// per-function and cannot see a caller-held lock, hence the waiver.
// The race detector covers the same property dynamically: the whole
// replica test suite runs under -race in CI.
//
//bloom:allowshared
type opState struct {
	slot  uint32
	db    chan struct{} // doorbell, capacity 1
	timer *time.Timer   // reused for every deadline wait this op performs

	mu      sync.Mutex
	tag     uint32
	refs    int32
	retired bool

	// Current phase, guarded by mu.
	phaseKind   uint8
	need, total int
	oks, fails  int
	done        bool
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

// ring rings the doorbell without blocking. Callers hold s.mu and only
// ring on the done transition, so at most one token is ever pending.
//
//bloom:noalloc
func (s *opState) ring() {
	select {
	case s.db <- struct{}{}:
	default:
	}
}

// beginPhase retags the record for a fresh phase, invalidating straggler
// acks, and returns the new tag.
//
//bloom:noalloc
func (s *opState) beginPhase(kind uint8, need, total int) uint32 {
	s.mu.Lock()
	s.tag++
	tag := s.tag
	s.phaseKind = kind
	s.need, s.total = need, total
	s.oks, s.fails = 0, 0
	s.done, s.phaseFailed = false, false
	s.agree, s.haveBest = true, false
	s.mu.Unlock()
	select { // defensive: no stale token can survive a completed phase
	case <-s.db:
	default:
	}
	return tag
}

// merge folds one qread reply into the running maximum. Caller holds
// s.mu. The value copy is mandatory: resp.Val aliases the reader's frame
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

// arena pools opState records. Lookup by slot is lock-free (a
// copy-on-write snapshot of the slot table) because the reader resolves
// acks on the hot path; get/put take the freelist mutex.
type arena struct {
	slots atomic.Pointer[[]*opState]

	mu   sync.Mutex
	free []uint32
}

// get pops a recycled record, or grows the arena (the cold, amortized
// path: steady state always pops).
//
//bloom:allowalloc
func (a *arena) get() *opState {
	a.mu.Lock()
	if n := len(a.free); n > 0 {
		slot := a.free[n-1]
		a.free = a.free[:n-1]
		s := (*a.slots.Load())[slot]
		a.mu.Unlock()
		s.mu.Lock()
		s.retired = false
		s.mu.Unlock()
		return s
	}
	var cur []*opState
	if sp := a.slots.Load(); sp != nil {
		cur = *sp
	}
	s := &opState{slot: uint32(len(cur)), db: make(chan struct{}, 1)}
	s.timer = time.NewTimer(time.Hour)
	s.timer.Stop()
	grown := make([]*opState, len(cur)+1)
	copy(grown, cur)
	grown[len(cur)] = s
	a.slots.Store(&grown)
	a.mu.Unlock()
	return s
}

// put returns a record to the freelist. Callers guarantee retired &&
// refs == 0 (the exactly-once recycling condition).
//
//bloom:noalloc
func (a *arena) put(s *opState) {
	a.mu.Lock()
	a.free = appendSlot(a.free, s.slot)
	a.mu.Unlock()
}

// appendSlot grows the freelist; amortized (the freelist high-water mark
// is the concurrency level, reached once).
//
//bloom:allowalloc
func appendSlot(free []uint32, slot uint32) []uint32 {
	return append(free, slot)
}

// combiner tracks the current unsealed leader read (see tryLead).
type combiner struct {
	mu  sync.Mutex
	cur *opState
}

// econn is one replica's persistent connection machinery: the submission
// ring callers push phases onto, the dispatcher goroutine that owns the
// socket's write side, and one reader goroutine per connection
// generation. up gates fast-fail submission while the connection is
// down; armed coordinates the read-deadline watchdog between dispatcher
// and reader.
type econn struct {
	q    *QClient
	idx  int
	addr string

	sub   chan subItem
	pend  chan uint64
	up    atomic.Bool
	armed atomic.Bool

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	mu      sync.Mutex
	lastErr error
}

// fault records the connection's most recent transport error (surfaced
// through QuorumError).
func (e *econn) fault(err error) {
	e.mu.Lock()
	e.lastErr = err
	e.mu.Unlock()
}

// lastError returns the most recent transport error, if any.
func (e *econn) lastError() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastErr
}

// dispatch is the connection's owner goroutine: serve the submission
// ring over one connection generation, tear the generation down on any
// fault, redial with backoff, repeat. It exits only on Close. Dial marks
// the first generation up; dispatch marks each redialed one.
func (e *econn) dispatch(conn net.Conn) {
	defer close(e.done)
	bw := bufio.NewWriterSize(conn, engineBufSize)
	wr := wire.NewWriter(bw)
	var req wire.Request
	req.Reg = e.q.reg
	for {
		readerEnd := make(chan struct{})
		go e.readLoop(conn, readerEnd)
		e.serve(conn, wr, &req, readerEnd)
		e.up.Store(false)
		conn.Close()
		<-readerEnd   // reader has fail-acked everything it adopted
		e.drainPend() // fail-ack sent entries the reader never adopted
		select {
		case <-e.stop:
			e.drainSub()
			return
		default:
		}
		conn = e.redial()
		if conn == nil {
			e.drainSub()
			return
		}
		bw.Reset(conn)
		e.up.Store(true)
	}
}

// serve pumps the submission ring onto one connection generation,
// spin-batching flushes like netreg's writeLoop. It returns when the
// generation is broken (write fault or reader death) or the client is
// closing.
func (e *econn) serve(conn net.Conn, wr *wire.Writer, req *wire.Request, readerEnd chan struct{}) {
	for {
		select {
		case <-e.stop:
			return
		case <-readerEnd:
			return
		case it := <-e.sub:
			if !e.emit(wr, req, it, readerEnd) {
				return
			}
			for spin := 0; spin < engineFlushSpins; spin++ {
			drain:
				for {
					select {
					case it := <-e.sub:
						if !e.emit(wr, req, it, readerEnd) {
							return
						}
						spin = 0
					default:
						break drain
					}
				}
				runtime.Gosched()
			}
			if err := wr.Flush(); err != nil {
				e.fault(err)
				return
			}
			e.arm(conn)
		}
	}
}

// emit buffers one item's frame and pushes its id onto the pending
// conveyor. On failure the item is fail-acked here (it never reached the
// conveyor, so nobody else will).
func (e *econn) emit(wr *wire.Writer, req *wire.Request, it subItem, readerEnd chan struct{}) bool {
	if it.seal {
		e.q.seal(it.s)
	}
	id := uint64(it.tag)<<32 | uint64(it.s.slot)
	req.ID = id
	req.Op = qOpName[it.kind]
	req.TS = it.ts
	req.WID = it.wid
	req.Val = it.val
	if err := wr.WriteRequest(req); err != nil {
		e.fault(err)
		e.q.ack(id, false, nil, e.idx)
		return false
	}
	e.q.ws.FrameOut()
	select {
	case e.pend <- id:
		return true
	case <-readerEnd:
		e.q.ack(id, false, nil, e.idx)
		return false
	}
}

// arm starts the read-deadline watchdog if the reader is idle: the
// deadline covers the silence between this send and the first response.
// The reader takes the watchdog over (refreshing per response) once it
// has outstanding entries in hand.
func (e *econn) arm(conn net.Conn) {
	if e.armed.CompareAndSwap(false, true) {
		conn.SetReadDeadline(time.Now().Add(e.q.timeout + e.q.timeout/2))
	}
}

// readLoop owns the connection's read side for one generation:
// correlate responses to conveyor entries, ack them, and kill the
// connection when outstanding work sees read silence past the deadline.
// Any exit fail-acks every adopted entry exactly once.
func (e *econn) readLoop(conn net.Conn, end chan struct{}) {
	defer close(end)
	rd := wire.NewReader(bufio.NewReaderSize(conn, engineBufSize))
	var outs []uint64
	var resp wire.Response
	for {
		outs = e.adopt(outs)
		if len(outs) == 0 {
			// Disarm before the final adopt: a dispatcher that pushes
			// after that adopt sees armed == false and arms the deadline
			// itself, so there is no window where work is outstanding and
			// no deadline is set.
			e.armed.Store(false)
			conn.SetReadDeadline(time.Time{})
			if outs = e.adopt(outs); len(outs) > 0 {
				e.rearm(conn)
			}
		} else {
			e.rearm(conn)
		}
		if err := rd.ReadResponse(&resp); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if outs = e.adopt(outs); len(outs) == 0 {
					// Idle expiry with nothing outstanding: every request
					// has been answered and consumed, so no frame can be
					// mid-flight — the stream is clean, keep reading.
					continue
				}
			}
			e.fault(err)
			for _, id := range outs {
				e.q.ack(id, false, nil, e.idx)
			}
			return
		}
		e.q.ws.FrameIn()
		i := findID(outs, resp.ID)
		if i < 0 {
			outs = e.adopt(outs)
			i = findID(outs, resp.ID)
		}
		if i < 0 {
			continue // duplicate or unknown id: no entry, no ref, drop it
		}
		outs[i] = outs[len(outs)-1]
		outs = outs[:len(outs)-1]
		e.q.ack(resp.ID, resp.Err == "", &resp, e.idx)
	}
}

// rearm refreshes the watchdog: the connection is failed only after
// timeout-and-a-half of total read silence while work is outstanding.
func (e *econn) rearm(conn net.Conn) {
	e.armed.Store(true)
	conn.SetReadDeadline(time.Now().Add(e.q.timeout + e.q.timeout/2))
}

// findID locates id in outs (responses arrive near-FIFO, so the scan is
// effectively O(1)).
//
//bloom:noalloc
func findID(outs []uint64, id uint64) int {
	for i, v := range outs {
		if v == id {
			return i
		}
	}
	return -1
}

// adopt drains the pending conveyor into the reader's working set.
//
//bloom:allowalloc
func (e *econn) adopt(outs []uint64) []uint64 {
	for {
		select {
		case id := <-e.pend:
			outs = append(outs, id)
		default:
			return outs
		}
	}
}

// drainPend fail-acks sent entries the dead generation's reader never
// adopted.
func (e *econn) drainPend() {
	for {
		select {
		case id := <-e.pend:
			e.q.ack(id, false, nil, e.idx)
		default:
			return
		}
	}
}

// drainSub fail-acks items still sitting in the submission ring (the
// connection is down or closing; they were never sent). Seal flags still
// take effect — a combining leader must be sealed even if its query
// never reached a socket.
func (e *econn) drainSub() {
	for {
		select {
		case it := <-e.sub:
			if it.seal {
				e.q.seal(it.s)
			}
			e.q.ack(uint64(it.tag)<<32|uint64(it.s.slot), false, nil, e.idx)
		default:
			return
		}
	}
}

// redial reconnects with capped exponential backoff, fail-acking
// anything submitted meanwhile. Returns nil when the client is closing.
func (e *econn) redial() net.Conn {
	backoff := redialMin
	for {
		e.drainSub()
		conn, err := e.q.dialRaw(e.addr)
		if err == nil {
			return conn
		}
		e.fault(err)
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

// QClient is a quorum client over m replicas, built on the persistent
// engine (see the file comment). All methods are safe for concurrent
// use; one QClient is one writer identity. Concurrent same-key reads
// combine: followers piggyback on the leader's in-flight quorum query
// and complete in zero rounds of their own. ModeFast clients
// additionally elide a read's write-back when a quorum is already known
// to hold the candidate (ts, wid) — the watermark raised by earlier
// writes, write-backs, and unanimous queries — so repeat reads of a
// settled register take the one-round path even when a straggler
// replica lags.
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

	pool arena
	comb combiner

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
// degrades to instant local failures while its dispatcher redials with
// backoff.
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
	if o.Journal != nil {
		q.tap = newQTap(o.Journal, o.Register)
	}
	for i, a := range addrs {
		e := &econn{
			q:    q,
			idx:  i,
			addr: a,
			sub:  make(chan subItem, subDepth),
			pend: make(chan uint64, pendDepth),
			stop: make(chan struct{}),
			done: make(chan struct{}),
		}
		conn, err := q.dialRaw(a)
		if err != nil {
			for _, d := range q.conns {
				d.stopOnce.Do(func() { close(d.stop) })
			}
			for _, d := range q.conns {
				<-d.done
			}
			return nil, fmt.Errorf("replica: dialing %s: %w", a, err)
		}
		q.conns = append(q.conns, e)
		// The socket is open, so the connection is up now: an op issued
		// as soon as Dial returns queues on the ring for the dispatcher
		// instead of failing fast as if the replica were down.
		e.up.Store(true)
		go e.dispatch(conn)
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

// Close shuts the engine down: every dispatcher tears its connection
// down, fail-acks whatever is still queued, and exits. Concurrent
// operations fail with ErrNoQuorum. The journal tap, if any, is closed
// so it stops holding the journal horizon back.
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

// ack resolves one enqueued item: always releases its reference, and —
// when the tag still matches the record's current phase and the phase is
// still undecided — folds the outcome into the counters, ringing the
// doorbell on the deciding transition. Recycles the record when the last
// straggler of a retired op drains.
//
//bloom:noalloc
func (q *QClient) ack(id uint64, ok bool, resp *wire.Response, idx int) {
	slot := uint32(id)
	tag := uint32(id >> 32)
	sp := q.pool.slots.Load()
	if sp == nil || int(slot) >= len(*sp) {
		return
	}
	s := (*sp)[slot]
	s.mu.Lock()
	s.refs--
	freeNow := s.retired && s.refs == 0
	if tag == s.tag && !s.done {
		if ok {
			if s.phaseKind == kQRead {
				s.merge(resp)
			}
			s.oks++
			if s.oks >= s.need {
				s.done = true
				s.ring()
			}
		} else {
			s.fails++
			if s.fails > s.total-s.need {
				s.done, s.phaseFailed = true, true
				s.ring()
			}
		}
	}
	s.mu.Unlock()
	if freeNow {
		q.pool.put(s)
	}
	q.tally.RecordReplica(idx, ok)
}

// oneFail counts a target that could not even be submitted to (down
// connection, full ring): a phase failure with no reference attached.
//
//bloom:noalloc
func (q *QClient) oneFail(s *opState, tag uint32, idx int) {
	s.mu.Lock()
	if tag == s.tag && !s.done {
		s.fails++
		if s.fails > s.total-s.need {
			s.done, s.phaseFailed = true, true
			s.ring()
		}
	}
	s.mu.Unlock()
	q.tally.RecordReplica(idx, false)
}

// enqueue pushes one item onto a connection's submission ring: a down
// connection fails instantly, a full ring parks the submitter until the
// phase deadline. The reference is taken before the send so the ack can
// never race the increment; the timeout path undoes it because the item
// provably never entered the ring.
//
//bloom:noalloc
func (q *QClient) enqueue(e *econn, s *opState, it subItem, deadline time.Time) {
	if !e.up.Load() {
		q.oneFail(s, it.tag, e.idx)
		return
	}
	s.mu.Lock()
	s.refs++
	s.mu.Unlock()
	select {
	case e.sub <- it:
		return
	default:
	}
	s.timer.Reset(time.Until(deadline))
	select {
	case e.sub <- it:
		s.timer.Stop()
	case <-s.timer.C:
		s.mu.Lock()
		s.refs--
		s.mu.Unlock()
		q.oneFail(s, it.tag, e.idx)
	}
}

// runPhase runs one quorum round: fan out to every replica and wait for
// a majority. Returns false when the phase failed (no quorum within the
// deadline).
//
//bloom:noalloc
func (q *QClient) runPhase(s *opState, kind uint8, ts int64, wid uint32, val []byte, seal bool) bool {
	tag := s.beginPhase(kind, q.quorum, len(q.conns))
	it := subItem{s: s, tag: tag, kind: kind, seal: seal, ts: ts, wid: wid, val: val}
	deadline := time.Now().Add(q.timeout)
	for _, e := range q.conns {
		q.enqueue(e, s, it, deadline)
	}
	s.mu.Lock()
	done := s.done
	s.mu.Unlock()
	if !done {
		s.timer.Reset(time.Until(deadline))
		select {
		case <-s.db:
			s.timer.Stop()
		case <-s.timer.C:
			s.mu.Lock()
			if !s.done {
				s.done, s.phaseFailed = true, true
			}
			s.mu.Unlock()
		}
	}
	select { // a completion that raced the timeout left its token behind
	case <-s.db:
	default:
	}
	s.mu.Lock()
	failed := s.phaseFailed
	s.mu.Unlock()
	return !failed
}

// retire returns a finished op's record to the pool — immediately when
// no straggler acks are outstanding, otherwise the last straggler does
// it. The tag bump makes any still-queued item a counted no-op.
//
//bloom:noalloc
func (q *QClient) retire(s *opState) {
	select {
	case <-s.db:
	default:
	}
	s.mu.Lock()
	s.tag++
	freeNow := s.refs == 0
	if !freeNow {
		s.retired = true
	}
	s.mu.Unlock()
	if freeNow {
		q.pool.put(s)
	}
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
		f.ring()
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
	s.timer.Reset(2*q.timeout + q.timeout/2)
	select {
	case <-s.db:
		s.timer.Stop()
	case <-s.timer.C:
		q.comb.mu.Lock()
		if !s.fDone {
			detachFollower(s.leader, s)
			q.comb.mu.Unlock()
			q.tally.RecordNoQuorum(obs.QRead)
			q.tap.record(obs.JRead, nil, inv, handle, true)
			q.retire(s)
			return nil, 0, 0, errCombinedTimeout
		}
		q.comb.mu.Unlock()
		select { // delivery raced the timeout; consume its token
		case <-s.db:
		default:
		}
	}
	if s.fErr != nil {
		err := s.fErr
		q.tally.RecordNoQuorum(obs.QRead)
		q.tap.record(obs.JRead, nil, inv, handle, true)
		q.retire(s)
		return nil, 0, 0, err
	}
	buf = appendVal(buf[:0], s.val)
	ts, wid := s.fTS, s.fWID
	q.tap.record(obs.JRead, buf, inv, handle, false)
	q.tally.RecordOp(obs.QRead, 0, time.Since(start))
	q.retire(s)
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
	s := q.pool.get()
	if !q.tryLead(s) {
		return q.followWait(s, buf, start, inv, handle)
	}
	ts, wid, rounds, err := q.readEngine(s)
	q.deliver(s, ts, wid, err)
	if err != nil {
		q.tally.RecordNoQuorum(obs.QRead)
		q.tap.record(obs.JRead, nil, inv, handle, true)
		q.retire(s)
		return nil, 0, 0, err
	}
	buf = appendVal(buf[:0], s.val)
	q.tap.record(obs.JRead, buf, inv, handle, false)
	q.tally.RecordOp(obs.QRead, rounds, time.Since(start))
	q.retire(s)
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
	s := q.pool.get()
	s.wval = appendVal(s.wval[:0], val)

	// Phase 1: learn a timestamp no completed write exceeds.
	if !q.runPhase(s, kQRead, 0, 0, nil, false) {
		err := q.noQuorumErr()
		q.tally.RecordNoQuorum(obs.QWrite)
		q.tap.record(obs.JWrite, val, inv, handle, true)
		q.retire(s)
		return 0, 0, err
	}
	ts := s.bestTS + 1

	// Phase 2: install (ts, wid, val) at a majority.
	if !q.runPhase(s, kQWrite, ts, q.wid, s.wval, false) {
		err := q.noQuorumErr()
		q.tally.RecordNoQuorum(obs.QWrite)
		q.tap.record(obs.JWrite, val, inv, handle, true)
		q.retire(s)
		return 0, 0, err
	}
	q.raiseWM(ts, q.wid)
	q.tap.record(obs.JWrite, val, inv, handle, false)
	q.tally.RecordOp(obs.QWrite, 2, time.Since(start))
	q.retire(s)
	return ts, q.wid, nil
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
