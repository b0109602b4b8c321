package core

import (
	"fmt"

	"repro/internal/history"
)

// WriterSteps is the number of protocol steps in a simulated write: the
// real read of Reg¬i, the real write of Regi, and the acknowledgment.
const WriterSteps = 3

// cacheLine is the assumed coherence granularity (the same constant as
// internal/register).
const cacheLine = 64

// Writer is the handle for one of the two writers. A Writer models a
// sequential automaton: calls on one Writer must not overlap (calls on the
// two distinct writers, and on any readers, run fully concurrently).
//
// Every write stores local, and New allocates the two handles back to
// back. The pads on both sides keep a handle's fields off every line that
// holds another object, so one writer's store never invalidates the line
// the other writer reads its own handle from.
type Writer[V comparable] struct {
	_     [cacheLine]byte
	tw    *TwoWriter[V]
	i     int       // writer index, 0 or 1
	local Tagged[V] // copy of own real register's content
	// virtualReads counts simulated-read register accesses served from
	// the local copy instead of shared memory (writer-as-reader
	// optimization).
	virtualReads int64
	_            [cacheLine]byte
}

// Index returns the writer's identity i (0 or 1).
func (w *Writer[V]) Index() int { return w.i }

// Write performs one simulated write of v:
//
//	read t', v' from Reg¬i
//	t := i ⊕ t'
//	write (t, v) to Regi
//
// The single real write at the end is the only shared-memory mutation, so
// the simulated write takes effect entirely or not at all.
func (w *Writer[V]) Write(v V) {
	// Dispatch straight to the bookkeeping-free path when unrecorded;
	// going through write() would re-test this per step.
	if w.tw.ob != nil {
		w.writeObserved(v)
		return
	}
	if w.tw.rec == nil {
		w.writeFast(v)
		return
	}
	w.write(v, WriterSteps)
}

// WriteCrashing performs a write that halts after completing the given
// number of protocol steps (0 ≤ steps < WriterSteps): 0 crashes before the
// real read, 1 after the read but before the real write, 2 after the real
// write but before acknowledging. It returns whether the real write
// occurred, i.e. whether the simulated write took effect. The Writer must
// not be used again afterwards — the automaton has crashed.
func (w *Writer[V]) WriteCrashing(v V, steps int) bool {
	if steps < 0 || steps >= WriterSteps {
		panic(fmt.Sprintf("core: crash step %d out of range [0,%d)", steps, WriterSteps))
	}
	return w.write(v, steps)
}

func (w *Writer[V]) write(v V, steps int) bool {
	rec := w.tw.rec
	if rec == nil && steps == WriterSteps {
		return w.writeFast(v)
	}
	var wr WriteRec[V]
	if rec != nil {
		wr.Writer = w.i
		wr.Val = v
		wr.OpID, wr.InvokeSeq = rec.hist.InvokeWrite(history.ProcID(w.i), v)
		wr.RespondSeq = history.PendingSeq
	}
	if steps < 1 {
		wr.Crashed = true
		rec.addWrite(wr)
		return false
	}

	// read t', v' from Reg¬i
	tv, rs := w.tw.readReg(1-w.i, 0)
	if rec != nil {
		wr.DidRead = true
		wr.ReadSeq = rs
		wr.ReadTag = tv.Tag
		wr.ReadVal = tv.Val
		rec.addReal(RealEvent[V]{
			Seq: rs, Reg: 1 - w.i, Port: 0,
			Content: tv, Chan: history.ProcID(w.i), OpID: wr.OpID,
		})
	}
	if steps < 2 {
		wr.Crashed = true
		rec.addWrite(wr)
		return false
	}

	// t := i ⊕ t'; write (t, v) to Regi
	t := uint8(w.i) ^ tv.Tag
	content := Tagged[V]{Val: v, Tag: t}
	ws := w.tw.writeReg(w.i, content)
	w.local = content
	if rec != nil {
		wr.DidWrite = true
		wr.WriteSeq = ws
		wr.WriteTag = t
		rec.addReal(RealEvent[V]{
			Seq: ws, Reg: w.i, IsWrite: true,
			Content: content, Chan: history.ProcID(w.i), OpID: wr.OpID,
		})
	}
	if steps < 3 {
		wr.Crashed = true
		rec.addWrite(wr)
		return true
	}

	if rec != nil {
		wr.RespondSeq = rec.hist.RespondWrite(history.ProcID(w.i), wr.OpID)
		rec.addWrite(wr)
	}
	return true
}

// writeFast is the complete, uncrashed write with recording off: exactly
// the three protocol steps, none of the record bookkeeping (building a
// WriteRec costs more than the protocol itself on the lock-free
// substrates).
//
//bloom:waitfree
func (w *Writer[V]) writeFast(v V) bool {
	tw := w.tw
	// read t', v' from Reg¬i
	tv, _ := tw.readReg(1-w.i, 0)
	// t := i ⊕ t'; write (t, v) to Regi
	content := Tagged[V]{Val: v, Tag: uint8(w.i) ^ tv.Tag}
	tw.writeReg(w.i, content)
	w.local = content
	return true
}

// VirtualReads returns how many register accesses this writer's combined
// writer/reader handle served from its local copy.
func (w *Writer[V]) VirtualReads() int64 { return w.virtualReads }

// WriterReader is a combined writer/reader automaton: a single sequential
// processor connected to one write port and one read port (Section 5).
// Because the writer is the only process writing its own real register, it
// keeps a local copy and serves reads of that register locally, so a
// simulated read costs one or two real reads instead of three.
type WriterReader[V comparable] struct {
	w *Writer[V]
}

// Index returns the underlying writer's identity.
func (wr *WriterReader[V]) Index() int { return wr.w.i }

// Write performs a simulated write (see Writer.Write).
func (wr *WriterReader[V]) Write(v V) { wr.w.Write(v) }

// Read performs a simulated read using the local-copy optimization. The
// read of the writer's own register is virtual: the local copy equals the
// register's content at every instant outside the writer's own real write,
// and the automaton is sequential, so a *-action for the virtual read can
// be placed at the moment its stamp is drawn.
func (wr *WriterReader[V]) Read() V {
	if wr.w.tw.ob != nil {
		return wr.readObserved()
	}
	v, _ := wr.read()
	return v
}

// read performs the simulated read and reports whether the final read took
// the fast path (served from the local copy: one real read total, the
// observability layer's fast/slow-path signal).
func (wr *WriterReader[V]) read() (V, bool) {
	w := wr.w
	tw := w.tw
	rec := tw.rec
	ch := ChanWriterRead(w.i)

	var rr ReadRec[V]
	if rec != nil {
		rr.Proc = ch
		rr.ReaderIndex = -1
		rr.OpID, rr.InvokeSeq = rec.hist.InvokeRead(ch)
		rr.RespondSeq = history.PendingSeq
	}

	// Virtual reads only need a *-action stamp when the run is being
	// recorded; with recording off the draw would be a pure shared-
	// sequencer increment on the hot path, so skip it.
	var own, other Tagged[V]
	var sOwn, sOther int64
	if w.i == 0 {
		// R0 is the virtual read of Reg0 (own), R1 the real read of Reg1.
		own = w.local
		if rec != nil {
			sOwn = tw.stamp()
		}
		w.virtualReads++
		other, sOther = tw.readReg(1, 0)
		rr.R0Seq, rr.T0, rr.Virtual0 = sOwn, own.Tag, true
		rr.R1Seq, rr.T1 = sOther, other.Tag
	} else {
		// R0 is the real read of Reg0, R1 the virtual read of Reg1 (own).
		other, sOther = tw.readReg(0, 0)
		own = w.local
		if rec != nil {
			sOwn = tw.stamp()
		}
		w.virtualReads++
		rr.R0Seq, rr.T0 = sOther, other.Tag
		rr.R1Seq, rr.T1, rr.Virtual1 = sOwn, own.Tag, true
	}
	if rec != nil {
		if w.i == 0 {
			rec.addReal(RealEvent[V]{Seq: sOwn, Reg: 0, Port: 0, Content: own, Chan: ch, OpID: rr.OpID, Virtual: true})
			rec.addReal(RealEvent[V]{Seq: sOther, Reg: 1, Port: 0, Content: other, Chan: ch, OpID: rr.OpID})
		} else {
			rec.addReal(RealEvent[V]{Seq: sOther, Reg: 0, Port: 0, Content: other, Chan: ch, OpID: rr.OpID})
			rec.addReal(RealEvent[V]{Seq: sOwn, Reg: 1, Port: 0, Content: own, Chan: ch, OpID: rr.OpID, Virtual: true})
		}
	}

	r := int(rr.T0 ^ rr.T1)
	var ret V
	if r == w.i {
		// The target is the writer's own register: serve locally.
		var s2 int64
		if rec != nil {
			s2 = tw.stamp()
		}
		w.virtualReads++
		ret = w.local.Val
		rr.R2Seq, rr.R2Reg, rr.Virtual2, rr.Ret = s2, r, true, ret
		if rec != nil {
			rec.addReal(RealEvent[V]{Seq: s2, Reg: r, Port: 0, Content: w.local, Chan: ch, OpID: rr.OpID, Virtual: true})
		}
	} else {
		c, s2 := tw.readReg(r, 0)
		ret = c.Val
		rr.R2Seq, rr.R2Reg, rr.Ret = s2, r, ret
		if rec != nil {
			rec.addReal(RealEvent[V]{Seq: s2, Reg: r, Port: 0, Content: c, Chan: ch, OpID: rr.OpID})
		}
	}
	if rec != nil {
		rr.RespondSeq = rec.hist.RespondRead(ch, rr.OpID, ret)
		rec.addRead(rr)
	}
	return ret, rr.Virtual2
}
