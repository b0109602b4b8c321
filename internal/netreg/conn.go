package netreg

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/wire"
)

// clientBufSize sizes the client's per-connection buffers; see
// serverBufSize.
const clientBufSize = 64 << 10

// sendQueueDepth bounds how many requests can sit between the callers and
// the writer goroutine. It is backpressure, not a pipeline limit: a full
// queue parks the caller in its enqueue select, it never drops requests.
const sendQueueDepth = 256

// flushSpins is how many scheduler yields the write loop spends waiting
// for more frames before flushing a batch (see writeLoop).
const flushSpins = 3

// call is one in-flight request: the frame to send and the channel its
// response (or the connection's failure) comes back on. done is buffered
// so a delivery never blocks on a caller that has already timed out and
// left.
type call struct {
	req  *wire.Request
	done chan callResult
}

type callResult struct {
	resp wire.Response
	err  error
}

// clientConn is one pipelined connection: a writer goroutine multiplexes
// every caller's frames onto the socket (batching bursts into one flush),
// and a reader goroutine dispatches responses to the in-flight calls by
// request id. A connection that fails in any way is failed as a whole —
// every in-flight call gets the error, and the Client dials a fresh
// connection on demand — because a byte stream with a torn frame cannot
// be resynchronized, only abandoned.
type clientConn struct {
	conn net.Conn
	wr   *wire.Writer
	rd   *wire.Reader
	ws   *obs.Wire

	sendq chan *call
	down  chan struct{} // closed when the conn is failed

	mu      sync.Mutex
	pending map[uint64]*call
	dead    bool
	err     error
}

// newClientConn wraps an established connection and starts its writer and
// reader goroutines.
func newClientConn(conn net.Conn, ws *obs.Wire) *clientConn {
	rwc := StatConn(conn, ws)
	cc := &clientConn{
		conn:    conn,
		wr:      wire.NewWriter(bufio.NewWriterSize(rwc, clientBufSize)),
		rd:      wire.NewReader(bufio.NewReaderSize(rwc, clientBufSize)),
		ws:      ws,
		sendq:   make(chan *call, sendQueueDepth),
		down:    make(chan struct{}),
		pending: make(map[uint64]*call),
	}
	go cc.writeLoop()
	go cc.readLoop()
	return cc
}

// enqueue registers the call as pending. The caller then pushes it onto
// sendq itself (so it can select against its own timeout).
func (cc *clientConn) enqueue(ca *call) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.dead {
		return cc.err
	}
	cc.pending[ca.req.ID] = ca
	return nil
}

// forget abandons a pending call (its caller timed out); a late response
// with this id is dropped by the read loop.
func (cc *clientConn) forget(id uint64) {
	cc.mu.Lock()
	delete(cc.pending, id)
	cc.mu.Unlock()
}

// failErr returns the error the connection died with (ErrClosed before
// any is recorded, for the window between close and teardown).
func (cc *clientConn) failErr() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.err != nil {
		return cc.err
	}
	return ErrClosed
}

// fail tears the connection down exactly once: marks it dead, releases
// the writer goroutine, closes the socket (which unblocks the reader),
// and delivers err to every in-flight call. The delivery sends cannot
// actually block — every call's done channel has capacity 1 and receives
// exactly one result — so callers may invoke fail while holding locks.
//
//bloom:allowblocking
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return
	}
	cc.dead = true
	cc.err = err
	pend := cc.pending
	cc.pending = make(map[uint64]*call)
	cc.mu.Unlock()
	close(cc.down)
	cc.conn.Close()
	for _, ca := range pend {
		ca.done <- callResult{err: err}
	}
}

// writeLoop drains the send queue onto the socket. Whatever has queued up
// while the previous flush was on the wire goes out as one batch: under a
// serial caller every frame flushes immediately, under concurrent callers
// the flush syscall amortizes across the burst.
//
// Before paying for a flush, the loop yields the processor a few times
// while the queue is empty. A batch of responses wakes a batch of callers,
// but the scheduler delivers them one by one — without the yields the
// first caller's re-issued request would flush alone, the server would
// answer it alone, and a deep pipeline would collapse into near-lockstep
// with a syscall per frame. The yields give the just-woken callers their
// turn to enqueue, re-forming the batch; when nothing else is runnable
// (a serial caller) they return immediately and cost nanoseconds.
func (cc *clientConn) writeLoop() {
	for {
		select {
		case ca := <-cc.sendq:
			if err := cc.write(ca); err != nil {
				cc.fail(err)
				return
			}
			for spin := 0; spin < flushSpins; spin++ {
			drain:
				for {
					select {
					case ca := <-cc.sendq:
						if err := cc.write(ca); err != nil {
							cc.fail(err)
							return
						}
						spin = 0
					default:
						break drain
					}
				}
				runtime.Gosched()
			}
			if err := cc.wr.Flush(); err != nil {
				cc.fail(fmt.Errorf("netreg: send: %w", wrapTimeout(err)))
				return
			}
		case <-cc.down:
			return
		}
	}
}

// write buffers one request frame.
func (cc *clientConn) write(ca *call) error {
	if err := cc.wr.WriteRequest(ca.req); err != nil {
		return fmt.Errorf("netreg: send: %w", wrapTimeout(err))
	}
	cc.ws.FrameOut()
	return nil
}

// readLoop dispatches response frames to their in-flight calls. Any read
// failure fails the whole connection: frames after a torn one cannot be
// trusted.
func (cc *clientConn) readLoop() {
	for {
		var resp wire.Response
		if err := cc.rd.ReadResponse(&resp); err != nil {
			cc.fail(fmt.Errorf("netreg: receive: %w", wrapTimeout(err)))
			return
		}
		cc.ws.FrameIn()
		cc.mu.Lock()
		ca := cc.pending[resp.ID]
		delete(cc.pending, resp.ID)
		cc.mu.Unlock()
		if ca != nil {
			// The decoded Val aliases the reader's frame buffer, which the
			// next ReadResponse reuses; the caller consumes it after this
			// loop has moved on, so it must get its own copy.
			if len(resp.Val) > 0 {
				resp.Val = append([]byte(nil), resp.Val...)
			}
			ca.done <- callResult{resp: resp}
		}
	}
}

// StatConn wraps conn so every byte read and written counts into ws —
// the same wrapper the client and server connections use internally,
// exported for other transports over the same wire protocol (the
// replica quorum engine counts its sockets with it). A nil tally
// returns conn unchanged. Deadline and close calls pass through to the
// wrapped connection.
func StatConn(conn net.Conn, ws *obs.Wire) net.Conn {
	if ws == nil {
		return conn
	}
	return statConn{Conn: conn, ws: ws}
}

// statConn counts a connection's bytes into a Wire tally. Frames are
// counted at the codec layer; this sees what actually hit the socket,
// length prefixes, batching and all.
type statConn struct {
	net.Conn
	ws *obs.Wire
}

func (c statConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.ws.AddBytesIn(n)
	return n, err
}

func (c statConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.ws.AddBytesOut(n)
	return n, err
}
