// Package pipe is the pipelined client connection both wire clients run
// on: netreg.Client against one server, and replica.QClient's quorum
// engine against each replica. Steady-state round trips spawn nothing and
// allocate nothing.
//
// A Conn is one socket's life. Callers submit Items by value onto its
// ring; its dispatcher writes their frames, queues their ids on the
// pending conveyor and flushes in spin-batched bursts; its reader hands
// each response to the client's Sink. A Conn fails as a whole, because a
// stream with a torn frame can only be abandoned, and its teardown acks
// every item exactly once: queued, conveyed or adopted. When to dial the
// next Conn is the client's policy.
//
// Per-op state lives in records recycled through a Pool, each embedding
// a Rec: doorbell, reused timer, tag and reference count. Every item
// holds a reference on its record until its ack, and a record is recycled
// only when retired with no reference left, so a straggler ack never
// touches another op's record; its stale tag makes it a no-op.
package pipe

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

const (
	// bufSize sizes each connection's read and write buffers.
	bufSize = 64 << 10
	// subDepth bounds the submission ring. It is backpressure, not a
	// pipeline limit: a full ring parks the submitter until its deadline
	// and never drops an item.
	subDepth = 256
	// pendDepth bounds the sent-but-unanswered conveyor between the
	// dispatcher and the reader.
	pendDepth = 4096
	// flushSpins is how many scheduler yields the dispatcher spends
	// re-forming a batch before paying for a flush (see serve).
	flushSpins = 3
)

// Item is one request on its way to the socket. Request.ID is the
// correlation id the reply's ack resolves (see Rec.Retag), and Request.Val
// must stay valid until that ack. Seal is handed back to Sink.Dequeued
// untouched: the quorum engine sets it on a combining leader's query.
type Item struct {
	wire.Request
	Seal bool
}

// Sink is the client behind a Conn.
type Sink interface {
	// Dequeued is called as the dispatcher takes an item off the ring,
	// before any byte of its frame is written, and for an item drained
	// unsent at teardown.
	Dequeued(id uint64, seal bool)
	// Ack resolves the item with this id, exactly once: resp is its
	// reply, or nil when the exchange failed. resp and its value alias
	// the reader's frame buffer and are valid only during the call.
	Ack(id uint64, resp *wire.Response)
}

// Conn is one pipelined connection (see the package comment).
type Conn struct {
	conn  net.Conn
	sink  Sink
	ws    *obs.Wire
	watch time.Duration

	sub   chan Item
	pend  chan uint64
	armed atomic.Bool

	// err, set by the first failure, refuses new submissions. busy counts
	// submitters between their err check and their push, so teardown can
	// wait them out: an item pushed after the final drain would never be
	// acked.
	err  atomic.Pointer[error]
	busy atomic.Int32
	down chan struct{} // closed by the first failure
	end  chan struct{} // closed once every item has been acked
}

// Start runs a pipelined connection over conn for sink, counting frames
// into ws (which may be nil). A positive watch arms the read watchdog:
// the connection fails after watch of read silence while work is
// outstanding. Zero leaves reads without a deadline.
func Start(conn net.Conn, sink Sink, ws *obs.Wire, watch time.Duration) *Conn {
	c := &Conn{
		conn:  conn,
		sink:  sink,
		ws:    ws,
		watch: watch,
		sub:   make(chan Item, subDepth),
		pend:  make(chan uint64, pendDepth),
		down:  make(chan struct{}),
		end:   make(chan struct{}),
	}
	go c.dispatch()
	return c
}

// Submit queues it with a reference on its record r, to be acked exactly
// once. A full ring parks the caller until deadline (a zero deadline
// waits without bound). It returns true when the item is queued, and
// Sink.Ack will resolve it. It returns false when the connection refuses
// the item, because it has failed or its ring stayed full past the
// deadline; the caller then acks it as failed itself.
//
//bloom:noalloc
func (c *Conn) Submit(r *Rec, it Item, deadline time.Time) bool {
	r.Mu.Lock()
	r.refs++
	r.Mu.Unlock()
	c.busy.Add(1)
	defer c.busy.Add(-1)
	if c.err.Load() != nil {
		return false
	}
	select {
	case c.sub <- it:
		return true
	default:
	}
	var expired <-chan time.Time
	if !deadline.IsZero() {
		r.timer.Reset(time.Until(deadline))
		expired = r.timer.C
	}
	ok := false
	select {
	case c.sub <- it:
		ok = true
	case <-c.down:
	case <-expired:
	}
	r.timer.Stop()
	return ok
}

// Fail breaks the connection with err; the first failure wins. It
// refuses new submissions, wakes submitters parked on a full ring and
// closes the socket, which ends both loops. Teardown then acks every
// item in flight.
func (c *Conn) Fail(err error) {
	if c.err.CompareAndSwap(nil, &err) {
		close(c.down)
		c.conn.Close()
	}
}

// Err returns the error the connection failed with, or nil while it is
// live.
func (c *Conn) Err() error {
	if p := c.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Done is closed once the connection has failed and every item
// submitted to it has been acked.
func (c *Conn) Done() <-chan struct{} { return c.end }

// dispatch owns the socket's write side, then tears the connection down:
// the reader acks what it adopted, then the conveyor's leftovers are
// acked, then the ring is drained until no submitter can still push onto
// it. An unsent item is still announced to Dequeued: a combining leader
// must be sealed even if its query never reached a socket.
func (c *Conn) dispatch() {
	defer close(c.end)
	readerEnd := make(chan struct{})
	go c.readLoop(readerEnd)
	c.serve(readerEnd)
	<-readerEnd
	for len(c.pend) > 0 { // both loops are done: nothing else touches it
		c.sink.Ack(<-c.pend, nil)
	}
	for {
		idle := c.busy.Load() == 0 // no push can follow a zero read
		for len(c.sub) > 0 {
			it := <-c.sub
			c.sink.Dequeued(it.ID, it.Seal)
			c.sink.Ack(it.ID, nil)
		}
		if idle {
			return
		}
		runtime.Gosched()
	}
}

// serve pumps the submission ring onto the socket until the connection
// fails. Whatever queued while the previous flush was on the wire goes
// out as one batch.
//
// Before paying for a flush, the loop yields the processor a few times
// while the ring is empty. A batch of responses wakes a batch of callers,
// but the scheduler delivers them one by one. Without the yields the
// first caller's next request would flush alone, the server would answer
// it alone, and a deep pipeline would collapse into near-lockstep with a
// syscall per frame. The yields give the just-woken callers their turn to
// submit, re-forming the batch. When nothing else is runnable (a serial
// caller) they return at once and cost nanoseconds.
func (c *Conn) serve(readerEnd chan struct{}) {
	wr := wire.NewWriter(bufio.NewWriterSize(c.conn, bufSize))
	var req wire.Request
	for {
		select {
		case <-c.down:
			return
		case <-readerEnd:
			return
		case it := <-c.sub:
			if !c.emit(wr, &req, &it, readerEnd) {
				return
			}
			for spin := 0; spin < flushSpins; spin++ {
			drain:
				for {
					select {
					case it := <-c.sub:
						if !c.emit(wr, &req, &it, readerEnd) {
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
				c.Fail(fmt.Errorf("pipe: send: %w", err))
				return
			}
			// An idle reader leaves the watchdog to the sender: the
			// deadline covers the silence before the first response.
			if c.watch > 0 && c.armed.CompareAndSwap(false, true) {
				c.conn.SetReadDeadline(time.Now().Add(c.watch))
			}
		}
	}
}

// emit buffers one item's frame and pushes its id onto the conveyor. On
// failure it acks the item itself: it never reached the conveyor, so
// nothing else will.
func (c *Conn) emit(wr *wire.Writer, req *wire.Request, it *Item, readerEnd chan struct{}) bool {
	c.sink.Dequeued(it.ID, it.Seal)
	*req = it.Request
	if err := wr.WriteRequest(req); err != nil {
		c.Fail(fmt.Errorf("pipe: send: %w", err))
		c.sink.Ack(it.ID, nil)
		return false
	}
	c.ws.FrameOut()
	select {
	case c.pend <- it.ID:
		return true
	case <-readerEnd:
		c.sink.Ack(it.ID, nil)
		return false
	}
}

// watchdog keeps the read deadline in step with the reader's working set
// and returns it, topped up: disarmed while nothing is outstanding,
// refreshed before every read while something is. It disarms before a
// final adopt, so a dispatcher that pushes after that adopt sees armed
// false and arms the deadline itself: there is no window with work
// outstanding and no deadline set.
func (c *Conn) watchdog(outs []uint64) []uint64 {
	if c.watch <= 0 {
		return outs
	}
	if len(outs) == 0 {
		c.armed.Store(false)
		c.conn.SetReadDeadline(time.Time{})
		if outs = c.adopt(outs); len(outs) == 0 {
			return outs
		}
	}
	c.armed.Store(true)
	c.conn.SetReadDeadline(time.Now().Add(c.watch))
	return outs
}

// readLoop owns the socket's read side: match responses to conveyor
// entries and ack them. Any exit fails the connection and acks every
// adopted entry exactly once.
func (c *Conn) readLoop(end chan struct{}) {
	defer close(end)
	rd := wire.NewReader(bufio.NewReaderSize(c.conn, bufSize))
	var outs []uint64
	var resp wire.Response
	for {
		outs = c.watchdog(c.adopt(outs))
		if err := rd.ReadResponse(&resp); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if outs = c.adopt(outs); len(outs) == 0 {
					// Idle expiry with nothing outstanding: every request
					// has been answered, so no frame can be mid-flight.
					// The stream is clean; keep reading.
					continue
				}
			}
			c.Fail(fmt.Errorf("pipe: receive: %w", err))
			for _, id := range outs {
				c.sink.Ack(id, nil)
			}
			return
		}
		c.ws.FrameIn()
		i := findID(outs, resp.ID)
		if i < 0 {
			outs = c.adopt(outs)
			i = findID(outs, resp.ID)
		}
		if i < 0 {
			continue // duplicate or unknown id: no entry, no reference
		}
		outs[i] = outs[len(outs)-1]
		outs = outs[:len(outs)-1]
		c.sink.Ack(resp.ID, &resp)
	}
}

// findID locates id in outs. Responses arrive near-FIFO, so the scan is
// effectively O(1).
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

// adopt drains the conveyor into the reader's working set.
//
//bloom:allowalloc
func (c *Conn) adopt(outs []uint64) []uint64 {
	for {
		select {
		case id := <-c.pend:
			outs = append(outs, id)
		default:
			return outs
		}
	}
}
