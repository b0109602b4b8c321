package pipe

import (
	"sync"
	"sync/atomic"
	"time"
)

// Rec is the header every pooled op record embeds: its slot in the pool,
// the doorbell its waiter sleeps on, a reused timer, and the tag and
// reference count that make recycling safe (see the package comment).
//
// Done and the client's own fields are guarded by Mu. Helpers that run
// with Mu already held by the caller (Retag, and Lock to Unlock) are
// beyond the sharedfield pass's per-function must-hold dataflow, hence
// the waiver. The race detector covers the same property dynamically.
//
//bloom:allowshared
type Rec struct {
	slot  uint32
	db    chan struct{} // doorbell, capacity 1
	timer *time.Timer   // stopped between waits

	Mu      sync.Mutex
	Done    bool // the current tag's outcome is decided
	tag     uint32
	refs    int32
	retired bool
}

func (r *Rec) header() *Rec { return r }

// Retag starts a fresh incarnation and returns the correlation id of
// items sent under it (its tag and the record's slot): acks of items
// sent under earlier tags become no-ops. The caller holds Mu.
//
//bloom:noalloc
func (r *Rec) Retag() uint64 {
	r.tag++
	r.Done = false
	return uint64(r.tag)<<32 | uint64(r.slot)
}

// Ring rings the doorbell without blocking. Callers ring once per
// decided outcome, under the lock that guards it, so at most one token
// is ever pending.
//
//bloom:noalloc
func (r *Rec) Ring() {
	select {
	case r.db <- struct{}{}:
	default:
	}
}

// Drain consumes a token left behind by a completion that raced its
// waiter's deadline.
//
//bloom:noalloc
func (r *Rec) Drain() {
	select {
	case <-r.db:
	default:
	}
}

// Wait sleeps on the doorbell until it rings or deadline passes; a zero
// deadline waits for the ring alone. It reports whether the doorbell
// rang.
//
//bloom:noalloc
func (r *Rec) Wait(deadline time.Time) bool {
	if deadline.IsZero() {
		<-r.db
		return true
	}
	r.timer.Reset(time.Until(deadline))
	select {
	case <-r.db:
		r.timer.Stop()
		return true
	case <-r.timer.C:
		return false
	}
}

// Pool recycles a client's op records, each a T that embeds Rec, through
// a freelist. Lookup by id is lock-free, through a copy-on-write slot
// table, because the reader resolves acks on the hot path; Get and the
// recycling paths take the freelist mutex.
type Pool[T any, P interface {
	*T
	header() *Rec
}] struct {
	slots atomic.Pointer[[]entry[T]]

	mu   sync.Mutex
	free []uint32
}

type entry[T any] struct {
	rec *Rec
	v   *T
}

// Get pops a recycled record, or grows the pool: the cold, amortized
// path, since the steady state always pops.
//
//bloom:allowalloc
func (p *Pool[T, P]) Get() *T {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		e := (*p.slots.Load())[p.free[n-1]]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		e.rec.Mu.Lock()
		e.rec.retired = false
		e.rec.Mu.Unlock()
		return e.v
	}
	var cur []entry[T]
	if sp := p.slots.Load(); sp != nil {
		cur = *sp
	}
	v := new(T)
	r := P(v).header()
	r.slot = uint32(len(cur))
	r.db = make(chan struct{}, 1)
	r.timer = time.NewTimer(time.Hour)
	r.timer.Stop()
	grown := make([]entry[T], len(cur)+1)
	copy(grown, cur)
	grown[len(cur)] = entry[T]{rec: r, v: v}
	p.slots.Store(&grown)
	p.mu.Unlock()
	return v
}

// At returns the record an id names.
//
//bloom:noalloc
func (p *Pool[T, P]) At(id uint64) *T { return (*p.slots.Load())[uint32(id)].v }

// Lock starts resolving one item's ack: it locks the record the id
// names, drops the item's reference, and returns the record still
// locked, with whether the ack is current (sent under the record's tag,
// outcome still undecided). The caller folds a current ack in, then
// calls Unlock.
//
//bloom:noalloc
func (p *Pool[T, P]) Lock(id uint64) (*T, bool) {
	e := (*p.slots.Load())[uint32(id)]
	e.rec.Mu.Lock()
	e.rec.refs--
	return e.v, uint32(id>>32) == e.rec.tag && !e.rec.Done
}

// Unlock unlocks a record Lock returned, recycling it when it was
// retired and that ack dropped its last reference.
//
//bloom:noalloc
func (p *Pool[T, P]) Unlock(r *Rec) {
	free := r.retired && r.refs == 0
	r.Mu.Unlock()
	if free {
		p.put(r.slot)
	}
}

// Retire hands a finished op's record back: at once when no item still
// holds a reference, otherwise the last straggler's ack does it. The tag
// bump makes any still-queued item a counted no-op.
//
//bloom:noalloc
func (p *Pool[T, P]) Retire(r *Rec) {
	r.Drain()
	r.Mu.Lock()
	r.tag++
	free := r.refs == 0
	r.retired = !free
	r.Mu.Unlock()
	if free {
		p.put(r.slot)
	}
}

//bloom:noalloc
func (p *Pool[T, P]) put(slot uint32) {
	p.mu.Lock()
	p.free = appendSlot(p.free, slot)
	p.mu.Unlock()
}

// appendSlot grows the freelist; amortized, since its high-water mark is
// the concurrency level, reached once.
//
//bloom:allowalloc
func appendSlot(free []uint32, slot uint32) []uint32 {
	return append(free, slot)
}
