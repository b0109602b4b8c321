// Package core implements the paper's contribution: a 2-writer, n-reader
// atomic register built from two 1-writer, (n+1)-reader atomic registers
// (Bloom, "Constructing Two-Writer Atomic Registers", PODC 1987).
//
// # Architecture (Figure 2 of the paper)
//
// The simulated register consists of n+4 automata: two real registers Reg0
// and Reg1, two writers Wr0 and Wr1, and readers Rd1..Rdn. Writer Wri can
// write Regi and read (but not write) Reg¬i; every reader can read both
// real registers. Each real register therefore has n+1 read ports: port 0
// for the opposite writer and ports 1..n for the readers.
//
// # Protocol (Section 5)
//
// Each real register holds the user value plus a single tag bit. A writer
// with index i writes value v by:
//
//	read t', v' from Reg¬i
//	t := i ⊕ t'
//	write (t, v) to Regi
//
// i.e. it tries to make the sum (mod 2) of the two tag bits equal to its
// own index. A reader reads by:
//
//	read t0, v0 from Reg0
//	read t1, v1 from Reg1
//	r := t0 ⊕ t1
//	read t2, v2 from Regr
//	return v2
//
// A writer that also reads keeps a local copy of its own real register and
// needs only one or two real reads per simulated read (Section 5, last
// paragraph); see WriterReader.
//
// The protocol is wait-free: no loops, no waiting, and a writer touches
// shared memory exactly once per write (at the very end), so a crash
// mid-protocol leaves the register consistent — the write either occurred
// entirely or not at all.
package core

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/register"
)

// Tagged is the content of a real register: a user value plus the protocol
// tag bit (Section 5: "enough space to hold one value in Val and a single
// tag bit").
type Tagged[V comparable] struct {
	// Val is the user value.
	Val V
	// Tag is the protocol tag bit (0 or 1).
	Tag uint8
}

// Channel identifiers for the simulated register's history. Writers write
// on channels 0 and 1; reader j uses channel 1+j; a writer-as-reader's read
// channel is -(i+1) (a combined automaton has one read and one write
// channel, cf. Section 5).
const (
	// ChanWriter0 is writer 0's write channel.
	ChanWriter0 = history.ProcID(0)
	// ChanWriter1 is writer 1's write channel.
	ChanWriter1 = history.ProcID(1)
)

// ChanReader returns the channel ID of reader j (1-based).
func ChanReader(j int) history.ProcID { return history.ProcID(1 + j) }

// ChanWriterRead returns the read-channel ID of writer i's combined
// writer/reader automaton.
func ChanWriterRead(i int) history.ProcID { return history.ProcID(-(i + 1)) }

// TwoWriter is the simulated 2-writer, n-reader atomic register.
//
// Obtain per-processor handles with Writer, Reader, and WriterReader; each
// handle models one sequential automaton and must not be used from more
// than one goroutine at a time (the paper's processors are sequential; two
// concurrent calls on one handle would be a non-input-correct schedule).
// Distinct handles are free to run fully concurrently — that is the point.
type TwoWriter[V comparable] struct {
	regs    [2]register.Reg[Tagged[V]]
	stamped [2]register.Stamped[Tagged[V]] // non-nil when regs[i] supports stamps
	// Devirtualized handles to the lock-free substrates: readReg,
	// writeReg and the handles' snapshot reads dispatch through these
	// concrete pointers when set, so the hot path is a direct call
	// instead of an interface call.
	fastP [2]*register.Pointer[Tagged[V]]
	fastS [2]*register.Seqlock[Tagged[V]]

	n    int // number of dedicated readers
	init V
	seq  *history.Sequencer
	rec  *Recorder[V]
	ob   *obs.Observer

	writers [2]*Writer[V]
	readers []*Reader[V]
}

// Substrate selects the family of real registers New builds when none are
// supplied via WithRegisters. The protocol on top is identical in every
// case; the substrates trade certifiability against raw speed.
type Substrate int

const (
	// Certifiable is the default: mutex-backed registers that draw a
	// global stamp inside every access's critical section, which is what
	// lets proof.Certify machine-check arbitrarily long runs. Every real
	// access pays a lock and a shared sequencer increment.
	Certifiable Substrate = iota
	// FastPointer publishes each real write behind an atomic.Pointer:
	// one allocation per write, a single atomic load per read, no lock,
	// no sequencer — wait-free in the exact sense the paper claims, for
	// any value type. Runs cannot be certified (no stamps); use the
	// exhaustive checker or the conformance suite instead.
	FastPointer
	// FastSeqlock keeps each real register's value inline behind an
	// odd/even version counter: alloc-free wait-free writes, alloc-free
	// reads that retry only while torn by an in-flight write. The value
	// type (including the tag bit wrapper) must be pointer-free; New
	// panics otherwise — use FastPointer for strings and friends.
	FastSeqlock
)

// String names the substrate.
func (s Substrate) String() string {
	switch s {
	case Certifiable:
		return "certifiable"
	case FastPointer:
		return "pointer"
	case FastSeqlock:
		return "seqlock"
	default:
		return fmt.Sprintf("Substrate(%d)", int(s))
	}
}

type config[V comparable] struct {
	regs      [2]register.Reg[Tagged[V]]
	seq       *history.Sequencer
	record    bool
	substrate Substrate
	counters  bool
	ob        *obs.Observer
}

// Option configures a TwoWriter.
type Option[V comparable] func(*config[V])

// WithRegisters supplies the two underlying real registers. Each must be a
// 1-writer, (n+1)-reader register initialized to (v0, tag 0) — per Section
// 5 the initial tag bits must both be 0 while Reg1's initial value is
// irrelevant. If the registers implement register.Stamped, runs can be
// certified by package proof.
func WithRegisters[V comparable](r0, r1 register.Reg[Tagged[V]]) Option[V] {
	return func(c *config[V]) { c.regs = [2]register.Reg[Tagged[V]]{r0, r1} }
}

// WithRecording enables history and trace recording, required for post-run
// atomicity checking and certification. Recording adds one mutex-protected
// append per event.
func WithRecording[V comparable]() Option[V] {
	return func(c *config[V]) { c.record = true }
}

// WithSubstrate selects the real-register family New builds: Certifiable
// (the default), FastPointer, or FastSeqlock. It is ignored when
// WithRegisters supplies explicit registers.
func WithSubstrate[V comparable](s Substrate) Option[V] {
	return func(c *config[V]) { c.substrate = s }
}

// WithSubstrateCounters enables per-port access counting on the fast
// substrates (the certifiable substrate always counts). Counting costs one
// cache-line-padded atomic increment per real access.
func WithSubstrateCounters[V comparable]() Option[V] {
	return func(c *config[V]) { c.counters = true }
}

// WithSequencer shares an externally owned sequencer, so that several
// components (for example the two default real registers and the recorder)
// agree on one global order. Rarely needed directly; New wires a shared
// sequencer by default.
func WithSequencer[V comparable](seq *history.Sequencer) Option[V] {
	return func(c *config[V]) { c.seq = seq }
}

// New constructs a two-writer register with n dedicated readers,
// initialized to v0. By default it builds its own mutex-backed atomic real
// registers on a shared sequencer; WithRegisters substitutes any other
// substrate (for example the Lamport construction stack).
func New[V comparable](n int, v0 V, opts ...Option[V]) *TwoWriter[V] {
	if n < 0 {
		panic("core: negative reader count")
	}
	var c config[V]
	for _, o := range opts {
		o(&c)
	}
	if c.seq == nil {
		c.seq = new(history.Sequencer)
	}
	if c.regs[0] == nil {
		// Port 0 is the opposite writer, ports 1..n the readers.
		init := Tagged[V]{Val: v0}
		var fastOpts []register.FastOption
		if c.counters {
			fastOpts = append(fastOpts, register.WithCounters())
		}
		switch c.substrate {
		case Certifiable:
			c.regs[0] = register.NewAtomic(n+1, init, c.seq)
			c.regs[1] = register.NewAtomic(n+1, init, c.seq)
		case FastPointer:
			c.regs[0] = register.NewPointer(n+1, init, fastOpts...)
			c.regs[1] = register.NewPointer(n+1, init, fastOpts...)
		case FastSeqlock:
			// MustSeqlock panics when Tagged[V] contains pointers;
			// that is deliberate — the caller picked a substrate the
			// value type cannot ride on, and FastPointer is the fix.
			c.regs[0] = register.MustSeqlock(n+1, init, fastOpts...)
			c.regs[1] = register.MustSeqlock(n+1, init, fastOpts...)
		default:
			panic(fmt.Sprintf("core: unknown substrate %v", c.substrate))
		}
	}
	if c.ob != nil && c.ob.NumReaders() < n {
		panic(fmt.Sprintf("core: observer covers %d readers, register has %d", c.ob.NumReaders(), n))
	}
	t := &TwoWriter[V]{
		regs: c.regs,
		n:    n,
		init: v0,
		seq:  c.seq,
		ob:   c.ob,
	}
	for i := 0; i < 2; i++ {
		switch r := c.regs[i].(type) {
		case register.Stamped[Tagged[V]]:
			t.stamped[i] = r
		case *register.Pointer[Tagged[V]]:
			t.fastP[i] = r
		case *register.Seqlock[Tagged[V]]:
			t.fastS[i] = r
		}
	}
	if c.record {
		t.rec = newRecorder[V](c.seq)
	}
	for i := range t.writers {
		t.writers[i] = &Writer[V]{tw: t, i: i, local: Tagged[V]{Val: v0}, otherVer: register.NoSnapshot}
	}
	t.readers = make([]*Reader[V], n)
	for j := 1; j <= n; j++ {
		t.readers[j-1] = &Reader[V]{tw: t, j: j, ver: [2]uint64{register.NoSnapshot, register.NoSnapshot}}
	}
	return t
}

// Writer returns the handle for writer i (0 or 1).
func (t *TwoWriter[V]) Writer(i int) *Writer[V] {
	if i != 0 && i != 1 {
		panic(fmt.Sprintf("core: writer index %d out of range", i))
	}
	return t.writers[i]
}

// Reader returns the handle for reader j (1-based, 1..n).
func (t *TwoWriter[V]) Reader(j int) *Reader[V] {
	if j < 1 || j > t.n {
		panic(fmt.Sprintf("core: reader index %d out of range [1,%d]", j, t.n))
	}
	return t.readers[j-1]
}

// WriterReader returns a combined handle for writer i that can also read,
// using the local-copy optimization (1–2 real reads per simulated read
// instead of 3). The combined handle is one sequential automaton: its Read
// and Write must not be invoked concurrently with each other.
func (t *TwoWriter[V]) WriterReader(i int) *WriterReader[V] {
	return &WriterReader[V]{w: t.Writer(i)}
}

// NumReaders returns n, the number of dedicated reader ports.
func (t *TwoWriter[V]) NumReaders() int { return t.n }

// InitialValue returns v0.
func (t *TwoWriter[V]) InitialValue() V { return t.init }

// Recorder returns the attached recorder, or nil if recording is off.
func (t *TwoWriter[V]) Recorder() *Recorder[V] { return t.rec }

// Reg exposes real register i for inspection in tests and tools
// (architecture checks, access accounting); production code has no
// business touching it.
func (t *TwoWriter[V]) Reg(i int) register.Reg[Tagged[V]] { return t.regs[i] }

// Certifiable reports whether both real registers can stamp their accesses
// (a prerequisite for certification by package proof).
func (t *TwoWriter[V]) Certifiable() bool {
	return t.stamped[0] != nil && t.stamped[1] != nil
}

// stamp draws a sequence number for a virtual access (one served from a
// writer's local copy). Virtual accesses are instantaneous local actions,
// so the drawn number is a valid placement of their *-action.
func (t *TwoWriter[V]) stamp() int64 { return t.seq.Next() }

// readReg performs a (possibly stamped) read of real register r through
// port, returning the content and the stamp (0 when unstamped). The fast
// substrates are dispatched through concrete pointers so the access
// inlines to a bare atomic load.
func (t *TwoWriter[V]) readReg(r, port int) (Tagged[V], int64) {
	if p := t.fastP[r]; p != nil {
		return p.Read(port), 0
	}
	if s := t.fastS[r]; s != nil {
		return s.Read(port), 0
	}
	if s := t.stamped[r]; s != nil {
		return s.ReadStamped(port)
	}
	return t.regs[r].Read(port), 0
}

// writeReg performs a (possibly stamped) write of real register r.
func (t *TwoWriter[V]) writeReg(r int, v Tagged[V]) int64 {
	if p := t.fastP[r]; p != nil {
		p.Write(v)
		return 0
	}
	if s := t.fastS[r]; s != nil {
		s.Write(v)
		return 0
	}
	if s := t.stamped[r]; s != nil {
		return s.WriteStamped(v)
	}
	t.regs[r].Write(v)
	return 0
}
