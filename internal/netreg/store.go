package netreg

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/history"
	"repro/internal/register"
	"repro/internal/wire"
)

// storeShards is the bucket count of the register-name map. Lookups take a
// shard read lock only; independent registers on one server never contend
// on shared map state.
const storeShards = 16

// DefaultDedupWindow is how many applied writes per client each register
// remembers for at-most-once dedup. A retransmission inside the window is
// answered with its original stamp; a sequence number older than anything
// retained is refused. The window must comfortably exceed a client's
// maximum in-flight pipeline depth plus its retry budget, which in
// practice is a few dozen.
const DefaultDedupWindow = 4096

// clientWindow is one client's recent applied writes on one register.
// Pipelined clients issue sequence numbers concurrently, so first
// arrivals may be out of order; the window therefore remembers a set of
// applied seqs (not just a high-water mark) and refuses only what it has
// already evicted and can no longer verify.
type clientWindow struct {
	stamps     map[uint64]int64 // applied seq → its original stamp
	order      []uint64         // applied seqs in arrival order, for eviction
	evicted    bool
	evictedMax uint64 // highest seq evicted; anything ≤ it is unverifiable
}

// regState is one named register instance: the register itself plus its
// private dedup table.
type regState struct {
	reg *register.Atomic[string]

	// The replica q-cell: the timestamped value the ABD quorum ops
	// (qread/qwrite) serve. It is deliberately separate from reg —
	// the paper's two-writer register has its own port discipline and
	// sequencer, while the q-cell is a plain (ts, wid, val) triple whose
	// only invariant is monotone lexicographic growth under qwrite
	// max-merge. qMu serializes the compare with the overwrite it guards;
	// the critical section is a comparison and at most one copy, so the
	// lock is never held across I/O.
	qMu  sync.Mutex
	qTS  int64
	qWID uint32
	qVal []byte

	// writeMu serializes the dedup check with the write it guards;
	// without it a retransmitted write racing its original (possible when
	// a client times out while the server is merely slow) could be
	// applied twice — or trip the register's single-writer panic.
	writeMu sync.Mutex
	applied map[string]*clientWindow
}

// storeShard is one bucket of the register-name map. The trailing pad
// keeps adjacent shards on separate cache lines, so lookups of
// independent registers never false-share.
type storeShard struct {
	mu   sync.RWMutex
	regs map[string]*regState
	_    [64]byte
}

// Store is the durable state behind a register server: a sharded map of
// named register instances, each with its own write-dedup table. It
// outlives any one Server, so a crashed-and-restarted server (Serve on
// the same Store) presents the same registers — state survives the way
// the scenario's file system survives a crashed file server — and
// in-flight retries still deduplicate correctly across the restart. One
// Store behind one listener is how a single server hosts many simulated
// registers: requests carry a register name, "" being the default
// register every Store starts with.
type Store struct {
	// window is the dedup window per client per register. Atomic because
	// SetDedupWindow may race with serving goroutines reading it on the
	// write path; a torn plain int would silently corrupt eviction.
	window atomic.Int64
	shards [storeShards]storeShard
}

// newStore returns an empty store with the default dedup window.
func newStore() *Store {
	st := &Store{}
	st.window.Store(DefaultDedupWindow)
	for i := range st.shards {
		st.shards[i].regs = make(map[string]*regState)
	}
	return st
}

// NewStore builds a server store holding one default register (name "")
// over ports read ports, initialized to initial's JSON, drawing stamps
// from seq (nil for a private sequencer). Add more named registers with
// AddRegister.
func NewStore[V any](initial V, ports int, seq *history.Sequencer) (*Store, error) {
	st := newStore()
	if err := AddRegister(st, "", initial, ports, seq); err != nil {
		return nil, err
	}
	return st, nil
}

// AddRegister adds a named register instance to the store: a register
// over ports read ports initialized to initial's JSON, drawing stamps
// from seq (nil for a private sequencer), with a fresh dedup table.
// Adding a name twice is an error.
func AddRegister[V any](st *Store, name string, initial V, ports int, seq *history.Sequencer) error {
	raw, err := json.Marshal(initial)
	if err != nil {
		return fmt.Errorf("netreg: encoding initial value for register %q: %w", name, err)
	}
	rs := &regState{
		reg:     register.NewAtomic(ports, string(raw), seq),
		applied: make(map[string]*clientWindow),
		// The q-cell starts at (0, 0, initial): every replica of a cluster
		// seeded with the same initial value agrees before the first
		// qwrite, so a quorum read of the untouched register is well
		// defined.
		qVal: append([]byte(nil), raw...),
	}
	sh := st.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.regs[name]; dup {
		return fmt.Errorf("netreg: register %q already exists", name)
	}
	sh.regs[name] = rs
	return nil
}

// SetDedupWindow overrides the per-client dedup window (see
// DefaultDedupWindow). Call before serving; tests use tiny windows to
// exercise eviction.
func (st *Store) SetDedupWindow(n int) {
	if n > 0 {
		st.window.Store(int64(n))
	}
}

// shard returns the bucket for a register name. The FNV-1a hash is
// inlined rather than taken from hash/fnv: the Hash object and the
// string→[]byte conversion both allocate, and this is on every
// request's path.
//
//bloom:waitfree
//bloom:noalloc
func (st *Store) shard(name string) *storeShard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= prime32
	}
	return &st.shards[h%storeShards]
}

// lookup returns the named register, or nil.
//
//bloom:noalloc
func (st *Store) lookup(name string) *regState {
	sh := st.shard(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.regs[name]
}

// Registers returns the store's register names, sorted.
func (st *Store) Registers() []string {
	var names []string
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for name := range sh.regs {
			names = append(names, name)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(names)
	return names
}

// Counters exposes the default register's access counters, so tests and
// benchmarks can assert at-most-once application (writes issued == writes
// applied) directly against the authoritative state.
func (st *Store) Counters() *register.Counters { return st.RegisterCounters("") }

// RegisterCounters exposes a named register's access counters, or nil if
// no such register exists.
func (st *Store) RegisterCounters(name string) *register.Counters {
	rs := st.lookup(name)
	if rs == nil {
		return nil
	}
	return rs.reg.Counters()
}

// valBufKeep is the capacity up to which a connection always keeps its
// response value buffer between requests (see keepValBuf).
const valBufKeep = 64 << 10

// keepValBuf decides whether a connection keeps its response value
// buffer after a read that copied n value bytes into it: always when the
// buffer is at most valBufKeep, and past that only while it is at most
// twice the value just served. Steady reads of any size therefore reuse
// one buffer (no allocation per op), while one giant value followed by
// small reads releases its capacity on the next read instead of pinning
// it for the connection's lifetime.
//
//bloom:waitfree
//bloom:noalloc
func keepValBuf(buf []byte, n int) []byte {
	if c := cap(buf); c > valBufKeep && c > 2*n {
		return nil
	}
	return buf
}

// The fail* helpers format survivable error replies. Error construction
// is the cold path — a malformed or refused request — so its fmt
// allocations are deliberately excused from the hot-path no-alloc claim.
// They take concrete (non-variadic) arguments so the callers do not pay
// for the ...any boxing either.

//bloom:allowalloc
func failUnknownOp(resp *wire.Response, op string) {
	resp.Err = fmt.Sprintf("unknown op %q", op)
}

//bloom:allowalloc
func failUnknownReg(resp *wire.Response, name string) {
	resp.Err = fmt.Sprintf("unknown register %q", name)
}

//bloom:allowalloc
func failBadValue(resp *wire.Response, n int) {
	resp.Err = fmt.Sprintf("invalid write value: %d bytes, not a JSON document", n)
}

//bloom:allowalloc
func failStaleSeq(resp *wire.Response, seq uint64, client string, evictedMax uint64) {
	resp.Err = fmt.Sprintf("stale write seq %d from client %s (dedup window passed %d)", seq, client, evictedMax)
}

//bloom:allowalloc
func failBadPort(resp *wire.Response, port int) {
	resp.Err = fmt.Sprintf("port %d out of range", port)
}

// handle serves one request into resp, which it fully overwrites. valBuf
// is the connection's reusable value buffer: a read's response value is
// copied into it (resp.Val aliases it, valid until the next handle call
// on the same buffer), and the possibly-grown buffer is returned — the
// encode-immediately loop this feeds never holds a response across
// requests, so reuse is safe and keeps the read path allocation-free.
//
//bloom:noalloc
func (st *Store) handle(req *wire.Request, resp *wire.Response, valBuf []byte) []byte {
	*resp = wire.Response{}
	switch req.Op {
	case "read":
		valBuf = st.readInto(req, resp, valBuf)
	case "write":
		st.writeReq(req, resp)
	case "qread":
		valBuf = st.qReadInto(req, resp, valBuf)
	case "qwrite":
		st.qWriteBack(req, resp)
	default:
		failUnknownOp(resp, req.Op)
	}
	resp.ID = req.ID
	return valBuf
}

// writeReq validates and applies one write request into resp under the
// register's write lock, deduplicating retries.
//
//bloom:noalloc
func (st *Store) writeReq(req *wire.Request, resp *wire.Response) {
	rs := st.lookup(req.Reg)
	if rs == nil {
		failUnknownReg(resp, req.Reg)
		return
	}
	// Reject values that are not one valid JSON document: stored garbage
	// would make every later read of this register fail client-side —
	// better to refuse the one bad write with a survivable error reply.
	if len(req.Val) == 0 || !json.Valid(req.Val) {
		failBadValue(resp, len(req.Val))
		return
	}
	rs.writeMu.Lock()
	st.applyWriteLocked(rs, req, resp)
	rs.writeMu.Unlock()
}

// applyWriteLocked deduplicates and applies one validated write under
// rs.writeMu. Its allocations are deliberate: the stored value must
// outlive the connection's frame buffer (one string copy per applied
// write), and the dedup window's map and order slice grow only until a
// client's window fills, then reuse their capacity.
//
//bloom:allowalloc
func (st *Store) applyWriteLocked(rs *regState, req *wire.Request, resp *wire.Response) {
	var w *clientWindow
	if req.Client != "" {
		w = rs.applied[req.Client]
		if w != nil {
			if stamp, ok := w.stamps[req.Seq]; ok {
				// A retransmission of an applied write: answer with the
				// original outcome, do not apply again. Dup tells the
				// journal tap this reply is not a second write effect.
				resp.Stamp = stamp
				resp.Dup = true
				return
			}
			if w.evicted && req.Seq <= w.evictedMax {
				// Beyond the window we can no longer tell a replay from a
				// fresh-but-ancient write; refusing is the only answer
				// that cannot double-apply.
				failStaleSeq(resp, req.Seq, req.Client, w.evictedMax)
				return
			}
		}
	}
	resp.Stamp = rs.reg.WriteStamped(string(req.Val))
	if req.Client != "" {
		if w == nil {
			w = &clientWindow{stamps: make(map[uint64]int64)}
			rs.applied[req.Client] = w
		}
		w.stamps[req.Seq] = resp.Stamp
		w.order = append(w.order, req.Seq)
		if int64(len(w.order)) > st.window.Load() {
			old := w.order[0]
			w.order = w.order[1:]
			delete(w.stamps, old)
			w.evicted = true
			if old > w.evictedMax {
				w.evictedMax = old
			}
		}
	}
}

// readInto serves one read request into resp, copying the value into
// valBuf (see handle) and returning the possibly-grown buffer.
//
//bloom:noalloc
func (st *Store) readInto(req *wire.Request, resp *wire.Response, valBuf []byte) []byte {
	rs := st.lookup(req.Reg)
	if rs == nil {
		failUnknownReg(resp, req.Reg)
		return valBuf
	}
	if req.Port < 0 || req.Port >= rs.reg.Counters().Ports() {
		failBadPort(resp, req.Port)
		return valBuf
	}
	v, stamp := rs.reg.ReadStamped(req.Port)
	valBuf = append(valBuf[:0], v...)
	resp.Val = valBuf
	resp.Stamp = stamp
	return keepValBuf(valBuf, len(v))
}

// qReadInto serves one quorum read: the q-cell's (ts, wid, val), the
// value copied into valBuf like readInto (resp.Val aliases it, valid
// until the next handle call on the same connection).
//
//bloom:noalloc
func (st *Store) qReadInto(req *wire.Request, resp *wire.Response, valBuf []byte) []byte {
	rs := st.lookup(req.Reg)
	if rs == nil {
		failUnknownReg(resp, req.Reg)
		return valBuf
	}
	rs.qMu.Lock()
	valBuf = append(valBuf[:0], rs.qVal...)
	resp.Stamp = rs.qTS
	resp.WID = rs.qWID
	rs.qMu.Unlock()
	resp.Val = valBuf
	return keepValBuf(valBuf, len(valBuf))
}

// qWriteBack applies one ABD write-back: store (ts, wid, val) iff it is
// lexicographically newer than the q-cell. The merge is idempotent —
// replaying a qwrite can never regress the cell, so unlike plain writes
// it needs no dedup window. A stale qwrite (the cell already holds
// something at least as new) is acked with the cell's current (ts, wid)
// and resp.Dup set: the ack is what the quorum client counts, and Dup is
// what keeps the journal tap from recording a write effect that did not
// happen (a stale write-back of an old value would otherwise fabricate a
// new-old inversion in the merged history).
//
// allowalloc, not noalloc: the q-cell buffer append amortizes — it grows
// only when an incoming value exceeds every earlier one, then is reused
// in place. The buffer roots in the long-lived register state rather
// than a caller-owned parameter, which the static analyzer cannot
// credit; BenchmarkStoreValBuf is the runtime cross-check that the
// steady state stays at 0 allocs/op.
//
//bloom:allowalloc
func (st *Store) qWriteBack(req *wire.Request, resp *wire.Response) {
	rs := st.lookup(req.Reg)
	if rs == nil {
		failUnknownReg(resp, req.Reg)
		return
	}
	if len(req.Val) == 0 || !json.Valid(req.Val) {
		failBadValue(resp, len(req.Val))
		return
	}
	rs.qMu.Lock()
	if req.TS > rs.qTS || (req.TS == rs.qTS && req.WID > rs.qWID) {
		rs.qTS = req.TS
		rs.qWID = req.WID
		rs.qVal = append(rs.qVal[:0], req.Val...)
	} else {
		resp.Dup = true
	}
	resp.Stamp = rs.qTS
	resp.WID = rs.qWID
	rs.qMu.Unlock()
}
