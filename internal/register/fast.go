// Lock-free "real" registers: the fast substrate family.
//
// The mutex-backed Atomic register realizes atomicity by serializing every
// access through one lock and drawing a global stamp inside the critical
// section — which is exactly what makes its runs certifiable, and exactly
// what caps its throughput: the paper's protocol is wait-free, but a
// substrate whose every real access takes a mutex is not.
//
// The two registers here keep the 1-writer, n-reader interface and the
// atomicity guarantee while touching no lock and no sequencer:
//
//   - Pointer[T] publishes each write as a fresh immutable snapshot behind
//     an atomic.Pointer. A write is one slot fill plus one atomic store
//     (the allocator is visited once per chunk of snapshots); a read is
//     one atomic load plus a dereference. Both are wait-free for any T.
//   - Seqlock[T] keeps the value inline in two alternating slots of atomic
//     words packed behind a version counter (a double-buffered seqlock),
//     so a register of up to three words is one cache line. Writes are
//     alloc-free and wait-free; reads are alloc-free and retry only when
//     two writes land inside one read, which the single-writer discipline
//     makes rare and bounded in practice. T must be pointer-free (checked
//     at construction).
//
// Neither register can stamp its accesses, so runs over them are checked
// with the exhaustive checker (CheckAtomic) rather than certified by
// package proof — see the cross-substrate conformance tests in
// internal/core.
package register

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// FastOption configures a lock-free register.
type FastOption func(*fastConfig)

type fastConfig struct {
	counters bool
}

// WithCounters enables per-port access counting on a lock-free register.
// Counting costs one padded atomic increment per access; it is off by
// default so the hot path stays a bare load or store.
func WithCounters() FastOption {
	return func(c *fastConfig) { c.counters = true }
}

// pointerChunk is how many snapshot slots a Pointer writer carves out of
// one allocation. Each write still publishes a fresh, never-reused slot;
// chunking only amortizes the allocator visit. A reader holding an old
// snapshot pins its whole chunk until the reader moves on — bounded, since
// the writer abandons a chunk after pointerChunk writes.
const pointerChunk = 64

// Pointer is a 1-writer, n-reader atomic register that publishes values
// behind an atomic.Pointer. Every write installs a pointer to a private
// copy of the value, so readers always dereference an immutable snapshot:
// the store instant is the access's single serialization point, which
// realizes atomicity with no lock, no retry, and no shared sequencer.
// Snapshots are allocated pointerChunk at a time from a writer-private
// chunk, so the allocator is visited once per chunk, not once per write.
//
// Unlike the mutex substrate, Pointer does not police the single-writer
// discipline (the check would put two atomic RMWs on an otherwise
// store-only hot path). Concurrent writes are a harness bug; they are
// memory-safe here (atomic stores simply interleave) and the conformance
// suite runs the protocol on top under -race.
//
// The zero value is not usable; use NewPointer.
type Pointer[T any] struct {
	p atomic.Pointer[T]
	c *Counters // nil unless WithCounters

	// Writer-private snapshot arena; never touched by readers except
	// through published pointers into it.
	chunk []T
	next  int
}

var _ Reg[int] = (*Pointer[int])(nil)
var _ Counted = (*Pointer[int])(nil)

// NewPointer returns a pointer-publishing register over ports read ports,
// initialized to initial.
func NewPointer[T any](ports int, initial T, opts ...FastOption) *Pointer[T] {
	var cfg fastConfig
	for _, o := range opts {
		o(&cfg)
	}
	r := &Pointer[T]{}
	if cfg.counters {
		r.c = newCounters(ports)
	}
	v := initial
	r.p.Store(&v)
	return r
}

// Read returns the register's value as seen through port.
//
//bloom:waitfree
//bloom:noalloc
func (r *Pointer[T]) Read(port int) T {
	if r.c != nil {
		r.c.reads[port].v.Add(1)
	}
	return *r.p.Load()
}

// Write stores v: fill the next snapshot slot, then one atomic store to
// publish it. The slot is never written again, so the plain fill is
// ordered before every reader's dereference by the publishing store. Only
// the owning writer may call Write. The chunked slot arena allocates once
// per pointerChunk writes by design — amortized, hence excused from the
// no-alloc claim rather than claiming it.
//
//bloom:waitfree
//bloom:allowalloc
func (r *Pointer[T]) Write(v T) {
	if r.c != nil {
		r.c.writes.Add(1)
	}
	if r.next == len(r.chunk) {
		r.chunk = make([]T, pointerChunk)
		r.next = 0
	}
	slot := &r.chunk[r.next]
	r.next++
	*slot = v
	r.p.Store(slot)
}

// Counters exposes the access counters, or nil if counting is off.
func (r *Pointer[T]) Counters() *Counters { return r.c }

// seqlockMaxWords bounds the inline value size (in 8-byte words) a
// Seqlock supports; larger values belong behind a Pointer anyway.
const seqlockMaxWords = 32

// Seqlock is a 1-writer, n-reader atomic register holding its value
// inline in two slots of atomic 8-byte words, alternated by a version
// counter (a double-buffered seqlock):
//
//	write: store words into slot[(version+1) & 1] → version++
//	read:  v1 := version
//	       load words from slot[v1 & 1]
//	       if version != v1, retry (slot may have been reused) else return
//
// The writer only ever mutates the slot readers are NOT directed to, so a
// read is torn only when it straddles TWO writes (the second write reuses
// the slot the read is in, and the version check catches it). Writes are
// alloc-free and wait-free — one plain load, the word stores, one atomic
// increment; reads are alloc-free and lock-free, with retries bounded by
// the writer's progress.
//
// The version word is followed directly by both slots, packed into one
// word array: slot s is words[s*nwords : (s+1)*nwords]. On 64-bit
// platforms a Seqlock's 536 bytes round up to the allocator's 576-byte
// size class, nine whole cache lines, so every Seqlock starts on a line
// boundary, and for values of up to three words the version and both
// slots share that first line. One real access then moves exactly one
// line between cores: a write dirties one line, and a read after a
// foreign write misses once. Giving the version and the slots lines of
// their own would keep the writer's stores off the line a reader is
// copying from, but every access would then miss twice instead of once.
// The layout is the same for every value size; larger values run on into
// the following lines.
//
// Because readers copy raw words while a writer may be mid-store, the
// value type must be pointer-free (a torn pointer must never materialize,
// even transiently); NewSeqlock rejects types containing pointers, and the
// word-wise atomics keep the race detector satisfied.
//
// The zero value is not usable; use NewSeqlock.
type Seqlock[T any] struct {
	version atomic.Uint64
	words   [2 * seqlockMaxWords]atomic.Uint64 // slot 0, then slot 1
	nwords  int
	c       *Counters // nil unless WithCounters
}

// wordBuf is a word-aligned staging area big enough to read or write T
// through 8-byte windows: the zero-width leading field forces 8-byte
// alignment, and the trailing pad keeps the last (partial) word's access
// inside the buffer. Being exactly sizeof(T)+8 bytes, it costs only that
// much stack zeroing per access, not the worst-case value size.
type wordBuf[T any] struct {
	_   [0]uint64
	val T
	_   [8]byte
}

var _ Reg[int] = (*Seqlock[int])(nil)
var _ Counted = (*Seqlock[int])(nil)

// NewSeqlock returns a seqlock register over ports read ports, initialized
// to initial. It fails if T contains pointers (strings, slices, maps,
// interfaces, ...) or exceeds 8*seqlockMaxWords bytes; use Pointer for
// such types.
func NewSeqlock[T any](ports int, initial T, opts ...FastOption) (*Seqlock[T], error) {
	var cfg fastConfig
	for _, o := range opts {
		o(&cfg)
	}
	t := reflect.TypeOf(&initial).Elem()
	if hasPointers(t) {
		return nil, fmt.Errorf("register: seqlock value type %v contains pointers; use the Pointer substrate", t)
	}
	size := int(unsafe.Sizeof(initial))
	nwords := (size + 7) / 8
	if nwords > seqlockMaxWords {
		return nil, fmt.Errorf("register: seqlock value type %v is %d bytes, max %d", t, size, 8*seqlockMaxWords)
	}
	r := &Seqlock[T]{nwords: nwords}
	if cfg.counters {
		r.c = newCounters(ports)
	}
	var buf wordBuf[T]
	buf.val = initial
	p := unsafe.Pointer(&buf)
	for i := 0; i < nwords; i++ {
		// Version starts at 0, so readers start on slot 0.
		r.words[i].Store(*(*uint64)(unsafe.Add(p, i*8)))
	}
	return r, nil
}

// MustSeqlock is NewSeqlock that panics on error, for contexts (such as
// substrate selection in core.New) with no error return.
func MustSeqlock[T any](ports int, initial T, opts ...FastOption) *Seqlock[T] {
	r, err := NewSeqlock(ports, initial, opts...)
	if err != nil {
		panic(err)
	}
	return r
}

// Read returns the register's value as seen through port, retrying while
// torn by an in-flight write. (Lock-free rather than wait-free in the
// strict sense — the retry loop is bounded by writer progress — but it
// never parks the goroutine, which is the property the annotation
// certifies; runtime.Gosched is a courtesy yield, not a block.)
//
//bloom:waitfree
//bloom:noalloc
func (r *Seqlock[T]) Read(port int) T {
	if r.c != nil {
		r.c.reads[port].v.Add(1)
	}
	var buf wordBuf[T]
	p := unsafe.Pointer(&buf)
	n := r.nwords
	for spins := 0; ; spins++ {
		v1 := r.version.Load()
		base := int(v1&1) * n
		for i := 0; i < n; i++ {
			*(*uint64)(unsafe.Add(p, i*8)) = r.words[base+i].Load()
		}
		if r.version.Load() == v1 {
			return buf.val
		}
		if spins > 64 {
			// Two writes landed inside this read and the second is
			// apparently descheduled mid-store; let it run rather
			// than burning the core.
			runtime.Gosched()
		}
	}
}

// Write stores v. Only the owning writer may call Write; a racing second
// writer is detected by the version counter moving under us (each write
// must advance it by exactly one) and panics.
//
//bloom:waitfree
//bloom:noalloc
func (r *Seqlock[T]) Write(v T) {
	if r.c != nil {
		r.c.writes.Add(1)
	}
	var buf wordBuf[T]
	buf.val = v
	p := unsafe.Pointer(&buf)
	n := r.nwords
	v1 := r.version.Load()
	base := int((v1+1)&1) * n // the slot readers are not directed to
	for i := 0; i < n; i++ {
		r.words[base+i].Store(*(*uint64)(unsafe.Add(p, i*8)))
	}
	if r.version.Add(1) != v1+1 {
		panic("register: concurrent writes to a single-writer register")
	}
}

// Counters exposes the access counters, or nil if counting is off.
func (r *Seqlock[T]) Counters() *Counters { return r.c }

// hasPointers reports whether values of t contain pointers anywhere
// (including strings, slices, maps, channels, funcs, and interfaces).
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		// Pointer, UnsafePointer, String, Slice, Map, Chan, Func,
		// Interface — and anything exotic: assume pointers.
		return true
	}
}
