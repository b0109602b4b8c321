package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Journal is the live history journal behind online linearizability
// checking: every served register operation is recorded as one fixed-size
// completion record — client, register key, op kind, value hash, and the
// invocation/response instants on the server's monotonic clock — into a
// per-connection lock-light ring buffer. The netreg server taps it from
// the hot path behind a nil check (see netreg.WithJournal); the checker
// (internal/linz) drains the rings from a background goroutine.
//
// # Design
//
// Each producer goroutine owns a Source: a single-producer single-consumer
// ring of records published through one atomic head store, so recording is
// wait-free and never contends with other connections. A full ring drops
// the record and counts the drop — the journal is an observability tap,
// and a tap must never apply backpressure to the traffic it observes. The
// consumer side (Drain) owns the tail; producer and consumer fields live
// on separate cache lines.
//
// # The horizon protocol
//
// A windowed checker may only cut a history at an instant no operation
// spans — including operations that have been invoked but not yet
// recorded. Each source therefore maintains LowInv, a lower bound on the
// invocation time of any record it will ever publish in the future:
//
//   - Begin(inv) sets it to the in-flight operation's actual invocation;
//   - Record sets it to the completed operation's response instant (the
//     producer is sequential, so its next invocation cannot be earlier);
//   - Close sets it to +inf (no further records, ever).
//
// The minimum of LowInv over all live sources is the journal's Horizon:
// every record not yet drained — present or future — has Inv ≥ Horizon,
// so any quiescent instant before the horizon is a sound cut. The
// protocol involves no clock comparison between goroutines, only values
// the producer itself observed in program order.
type Journal struct {
	epoch time.Time

	mu      sync.Mutex
	sources []*Source
	nextID  uint32 // the next source's id: ids outlive removed sources
	dropped uint64 // drops of the sources already removed
	keys    map[string]uint32
	names   []string
	ring    int
}

// DefaultJournalRing is the per-source ring capacity in records. At 40
// bytes per record a source costs ~640 KiB; a checker draining every few
// milliseconds keeps the ring nearly empty even at millions of ops/s.
const DefaultJournalRing = 1 << 14

// JournalOption configures a Journal.
type JournalOption func(*Journal)

// WithJournalRing overrides the per-source ring capacity (rounded up to a
// power of two). Bigger rings tolerate a slower drainer before dropping.
func WithJournalRing(n int) JournalOption {
	return func(j *Journal) {
		if n > 0 {
			j.ring = n
		}
	}
}

// NewJournal returns an empty journal. Its epoch is the zero instant of
// every timestamp it records.
func NewJournal(opts ...JournalOption) *Journal {
	j := &Journal{
		epoch: time.Now(),
		keys:  make(map[string]uint32),
		ring:  DefaultJournalRing,
	}
	for _, o := range opts {
		o(j)
	}
	return j
}

// Now returns the journal's monotonic clock: nanoseconds since its epoch.
//
//bloom:waitfree
//bloom:noalloc
func (j *Journal) Now() int64 { return int64(time.Since(j.epoch)) }

// JRead and JWrite classify a journal record's operation.
const (
	JRead uint8 = iota + 1
	JWrite
)

// Record flags. A flagged record describes a reply that was not one
// fresh register effect, so history checkers must skip it:
//
//   - JErr: the operation was refused (an error reply) and took no
//     effect on the register.
//   - JDup: the reply answered a retransmitted write from the server's
//     dedup window; the original application was already journaled with
//     its true interval, and counting the replay as a second write
//     would fabricate an effect that never happened. Stale replica
//     write-backs (a qwrite the q-cell already supersedes) carry it for
//     the same reason: they ack without effect.
const (
	JErr uint8 = 1 << iota
	JDup
)

// Rec is one completed operation in the journal. Records are fixed-size
// and self-contained: a checker needs no other state to interpret one.
type Rec struct {
	// Inv and Res are the operation's invocation and response instants in
	// journal time (Journal.Now). Inv < Res always; both are taken on the
	// serving goroutine, bracketing the register access.
	Inv, Res int64
	// Val is the operation's value hash (HashVal): the value written, or
	// the value a read returned.
	Val uint64
	// Key identifies the register (Journal.KeyName recovers the name).
	Key uint32
	// Client identifies the recording source, one lane per connection in
	// timeline renderings.
	Client uint32
	// Kind is JRead or JWrite.
	Kind uint8
	// Flags carries JErr for refused operations.
	Flags uint8
	_     [6]byte // pad Rec to 40 bytes: full words, no straggling tail
}

// lowInvClosed is the LowInv sentinel of a closed source: orders after
// every real timestamp, so closed sources never hold the horizon back.
const lowInvClosed = int64(^uint64(0) >> 1)

// Source is one producer's journal ring. All recording methods must be
// called from a single goroutine (or under one external serialization,
// as the quorum client's journal tap does); Drain must likewise have a
// single consumer. The hot producer words and the consumer tail live on separate
// cache lines, and the struct must only move by pointer.
//
//bloom:sharded
type Source struct {
	j    *Journal
	recs []Rec
	mask uint64
	id   uint32

	// interned is the producer-private key cache: name → journal key id.
	// Misses fall back to the journal's locked table; hits are free.
	interned map[string]uint32

	head   atomic.Uint64 // producer: next slot to publish
	lowInv atomic.Int64  // producer: lower bound on any future record's Inv
	drops  atomic.Uint64 // producer: records lost to a full ring
	closed atomic.Bool
	_      [cacheLine]byte

	tail atomic.Uint64 // consumer: next slot to drain
	_    [cacheLine]byte
}

// Source registers and returns a new producer ring. Sources are cheap but
// not free (~40 bytes per ring slot); one per connection is the intended
// grain. A source leaves the journal once it is closed and drained (see
// Sources), so a journal's footprint follows its live producers.
func (j *Journal) Source() *Source {
	n := 1
	for n < j.ring {
		n <<= 1
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	s := &Source{
		j:        j,
		recs:     make([]Rec, n),
		mask:     uint64(n - 1),
		id:       j.nextID,
		interned: make(map[string]uint32),
	}
	j.nextID++
	// A fresh source's first operation is invoked after this instant (its
	// producer obtains the source before taking any timestamp), so the
	// creation time is already a sound horizon bound — without it a source
	// that never records would pin the horizon at zero forever.
	s.lowInv.Store(j.Now())
	j.sources = append(j.sources, s)
	return s
}

// ID returns the source's journal-unique id (the Client field of its
// records).
func (s *Source) ID() uint32 { return s.id }

// KeyID interns a register name, returning the id Rec.Key carries. The
// first lookup of a name on a source takes the journal lock; every later
// one hits the producer-private cache, so the hot path stays lock-free
// for the handful of keys a connection actually touches. That first-touch
// lock is why this leaf is excused rather than wait-free, and the
// first-touch cache inserts are likewise excused from the no-alloc claim:
// amortized to zero over a connection's lifetime.
//
//bloom:allowblocking
//bloom:allowalloc
func (s *Source) KeyID(name string) uint32 {
	if id, ok := s.interned[name]; ok {
		return id
	}
	s.j.mu.Lock()
	id, ok := s.j.keys[name]
	if !ok {
		id = uint32(len(s.j.names))
		s.j.keys[name] = id
		s.j.names = append(s.j.names, name)
	}
	s.j.mu.Unlock()
	s.interned[name] = id
	return id
}

// KeyName recovers a register name from a record's Key id.
func (j *Journal) KeyName(id uint32) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	if int(id) >= len(j.names) {
		return ""
	}
	return j.names[id]
}

// Begin publishes the invocation instant of the operation the producer is
// about to serve, pinning the journal horizon at inv until the matching
// Record. Call it after taking inv from Journal.Now and before touching
// the register.
//
//bloom:waitfree
//bloom:noalloc
func (s *Source) Begin(inv int64) {
	s.lowInv.Store(inv)
}

// Record publishes one completed operation. If the ring is full the
// record is dropped and counted — recording never blocks the serving
// goroutine. The horizon advances to rec.Res: the producer is sequential,
// so nothing it records later can have been invoked earlier.
//
//bloom:waitfree
//bloom:noalloc
func (s *Source) Record(rec Rec) {
	s.RecordOnly(rec)
	s.lowInv.Store(rec.Res)
}

// RecordOnly publishes one completed operation WITHOUT advancing the
// horizon bound. Multi-producer taps that serialize through a lock and
// track their own in-flight minimum (see replica's qTap) use it so a
// completion cannot overclaim past a still-in-flight older invocation;
// they must pair it with their own Begin calls. The ring publication
// still precedes any subsequent bound advance in program order, which is
// what keeps a horizon-then-drain reader from missing the record.
//
//bloom:waitfree
//bloom:noalloc
func (s *Source) RecordOnly(rec Rec) {
	rec.Client = s.id
	h := s.head.Load()
	if h-s.tail.Load() < uint64(len(s.recs)) {
		s.recs[h&s.mask] = rec
		s.head.Store(h + 1)
	} else {
		s.drops.Add(1)
	}
}

// Close marks the source finished: it will never record again, so it no
// longer holds the journal horizon back. Records already in the ring
// remain drainable; once they are drained, the source leaves the journal.
func (s *Source) Close() {
	s.closed.Store(true)
	s.lowInv.Store(lowInvClosed)
}

// Drops returns the number of records lost to a full ring.
func (s *Source) Drops() uint64 { return s.drops.Load() }

// LowInv returns the source's lower bound on any future record's Inv (see
// the horizon protocol). A fresh source starts at its creation instant.
func (s *Source) LowInv() int64 { return s.lowInv.Load() }

// Pending returns how many records are buffered in the ring.
func (s *Source) Pending() int { return int(s.head.Load() - s.tail.Load()) }

// Drain hands every buffered record to fn in publication order and
// returns how many were drained. Single consumer only.
func (s *Source) Drain(fn func(Rec)) int {
	t := s.tail.Load()
	h := s.head.Load()
	for i := t; i < h; i++ {
		fn(s.recs[i&s.mask])
	}
	if h != t {
		s.tail.Store(h)
	}
	return int(h - t)
}

// Sources snapshots the journal's source list, first removing every
// source that is closed and fully drained: it can never hold a record
// again, and keeping it would keep its ring alive for the journal's life.
func (j *Journal) Sources() []*Source {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.prune()
	return append([]*Source(nil), j.sources...)
}

// prune removes the finished sources, keeping their drops in the
// journal's count. The caller holds mu.
func (j *Journal) prune() {
	live := j.sources[:0]
	for _, s := range j.sources {
		// closed is loaded first: the producer publishes its last record
		// before it closes, so the head compared here is final.
		if s.closed.Load() && s.head.Load() == s.tail.Load() {
			j.dropped += s.Drops()
			continue
		}
		live = append(live, s)
	}
	clear(j.sources[len(live):]) // the backing array must not keep removed rings alive
	j.sources = live
}

// Horizon returns the journal's safe-cut bound: every record any live
// source will ever publish from now on has Inv ≥ Horizon. A journal with
// no sources (or only closed ones) has an unbounded horizon.
func (j *Journal) Horizon() int64 {
	h := int64(lowInvClosed)
	for _, s := range j.Sources() {
		if low := s.lowInv.Load(); low < h {
			h = low
		}
	}
	return h
}

// Drops sums record drops across all sources, removed ones included.
func (j *Journal) Drops() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.prune()
	n := j.dropped
	for _, s := range j.sources {
		n += s.Drops()
	}
	return n
}

// Backlog sums buffered records across all sources: the drainer's lag in
// operations.
func (j *Journal) Backlog() int {
	var n int
	for _, s := range j.Sources() {
		n += s.Pending()
	}
	return n
}

// hashCap bounds how much of a value HashVal digests. Hashing is on the
// serving hot path and large values would dominate it; a 128-byte prefix
// plus the length distinguishes every value the generators produce, and a
// collision beyond it can only mask a violation, never invent one.
const hashCap = 128

// HashVal hashes a value's bytes for journal records: FNV-1a over the
// first hashCap bytes, folded with the full length. Equal values always
// hash equal, which is the property the checker's correctness rests on.
//
//bloom:waitfree
//bloom:noalloc
func HashVal(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	n := len(b)
	if n > hashCap {
		b = b[:hashCap]
	}
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime64
	}
	h ^= uint64(n)
	h *= prime64
	return h
}
