package core

import (
	"fmt"

	"repro/internal/history"
)

// ReaderSteps is the number of protocol steps in a simulated read: three
// real reads plus the acknowledgment.
const ReaderSteps = 4

// Reader is the handle for one of the n dedicated readers. A Reader models
// a sequential automaton: calls on one Reader must not overlap.
//
// On FastSeqlock every read may store a snapshot, so the handle is padded
// like Writer: no other object shares a line with its fields.
type Reader[V comparable] struct {
	_  [cacheLine]byte
	tw *TwoWriter[V]
	j  int // reader index, 1..n; also the read port on each real register
	// snap[k] is this reader's last copy of Regk and ver[k] the version
	// it was validated at (FastSeqlock only; see register.ReadSince).
	snap [2]Tagged[V]
	ver  [2]uint64
	_    [cacheLine]byte
}

// Index returns the reader's index j (1-based).
func (r *Reader[V]) Index() int { return r.j }

// Read performs one simulated read:
//
//	read t0, v0 from Reg0
//	read t1, v1 from Reg1
//	r := t0 ⊕ t1
//	read t2, v2 from Regr
//	return v2
func (r *Reader[V]) Read() V {
	// Dispatch straight to the bookkeeping-free path when unrecorded.
	if r.tw.ob != nil {
		return r.readObserved()
	}
	if r.tw.rec == nil {
		return r.readFast()
	}
	v, _ := r.read(ReaderSteps)
	return v
}

// ReadCrashing performs a read that halts after the given number of
// protocol steps (0 ≤ steps < ReaderSteps, counting the three real reads
// and then the acknowledgment). A crashed read returns nothing and places
// no constraint on the register; the Reader must not be used again.
func (r *Reader[V]) ReadCrashing(steps int) {
	if steps < 0 || steps >= ReaderSteps {
		panic(fmt.Sprintf("core: crash step %d out of range [0,%d)", steps, ReaderSteps))
	}
	r.read(steps)
}

func (r *Reader[V]) read(steps int) (V, bool) {
	tw := r.tw
	rec := tw.rec
	if rec == nil && steps == ReaderSteps {
		return r.readFast(), true
	}
	ch := ChanReader(r.j)

	var rr ReadRec[V]
	var zero V
	if rec != nil {
		rr.Proc = ch
		rr.ReaderIndex = r.j
		rr.OpID, rr.InvokeSeq = rec.hist.InvokeRead(ch)
		rr.RespondSeq = history.PendingSeq
	}
	if steps < 1 {
		rr.Crashed = true
		rec.addRead(rr)
		return zero, false
	}

	a, s0 := tw.readReg(0, r.j)
	rr.R0Seq, rr.T0 = s0, a.Tag
	if rec != nil {
		rec.addReal(RealEvent[V]{Seq: s0, Reg: 0, Port: r.j, Content: a, Chan: ch, OpID: rr.OpID})
	}
	if steps < 2 {
		rr.Crashed = true
		rec.addRead(rr)
		return zero, false
	}

	b, s1 := tw.readReg(1, r.j)
	rr.R1Seq, rr.T1 = s1, b.Tag
	if rec != nil {
		rec.addReal(RealEvent[V]{Seq: s1, Reg: 1, Port: r.j, Content: b, Chan: ch, OpID: rr.OpID})
	}
	if steps < 3 {
		rr.Crashed = true
		rec.addRead(rr)
		return zero, false
	}

	target := int(a.Tag ^ b.Tag)
	c, s2 := tw.readReg(target, r.j)
	rr.R2Seq, rr.R2Reg, rr.Ret = s2, target, c.Val
	if rec != nil {
		rec.addReal(RealEvent[V]{Seq: s2, Reg: target, Port: r.j, Content: c, Chan: ch, OpID: rr.OpID})
	}
	if steps < 4 {
		rr.Crashed = true
		rec.addRead(rr)
		return zero, false
	}

	if rec != nil {
		rr.RespondSeq = rec.hist.RespondRead(ch, rr.OpID, c.Val)
		rec.addRead(rr)
	}
	return c.Val, true
}

// readFast is the complete read with recording off: the three protocol
// reads and nothing else (building a ReadRec costs more than the protocol
// itself on the lock-free substrates). On FastSeqlock each real read goes
// through the reader's snapshot of that register, so the third read, of a
// register read one step earlier, is usually a single load.
//
//bloom:waitfree
func (r *Reader[V]) readFast() V {
	tw := r.tw
	if s := &tw.fastS; s[0] != nil && s[1] != nil {
		a := s[0].ReadSince(r.j, &r.snap[0], &r.ver[0])
		b := s[1].ReadSince(r.j, &r.snap[1], &r.ver[1])
		t := a.Tag ^ b.Tag
		return s[t].ReadSince(r.j, &r.snap[t], &r.ver[t]).Val
	}
	a, _ := tw.readReg(0, r.j)
	b, _ := tw.readReg(1, r.j)
	c, _ := tw.readReg(int(a.Tag^b.Tag), r.j)
	return c.Val
}
