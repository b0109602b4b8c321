// Package netreg hosts the paper's "real" registers on the network,
// realizing the introduction's motivating scenario: each node exposes the
// register it alone writes, every other node reads it remotely, and the
// two-writer protocol on top turns the pair into one shared atomic
// register — no locks held across machines, no node ever waiting on a
// peer's progress to finish its own operation.
//
// The transport is built for throughput (see internal/wire): compact
// length-prefixed binary frames, assembled in pooled buffers and written
// through buffered writers so a batch of frames costs one syscall. The
// server reads binary frames from a connection's first byte and handles
// each request inline on the connection's goroutine; a connection that
// sends anything else fails framing and is dropped. Clients pipeline:
// every request carries an id, a writer goroutine multiplexes all
// in-flight operations of a connection, and a reader goroutine dispatches
// responses back to the waiting callers — the connection is never idle
// waiting for one round trip to finish before the next may start. The server assigns each access's *-action stamp
// inside its register's critical section, so runs over the network remain
// certifiable by package proof when the servers share a sequencer (as
// in-process tests do), pipelined or not.
//
// One listener hosts many simulated registers: requests name a register
// instance, and the Store behind the server holds a sharded map of them
// ("" is the default register, so single-register deployments never think
// about names).
//
// Failure semantics: the register state and the write-dedup tables live
// in the Store, which survives server incarnations (the analog of the
// scenario's file system surviving a crashed file server), so a killed
// listener can be restarted over the same Store and retrying clients pick
// up where they left off. Writes carry the client's id and sequence
// number and are applied AT MOST ONCE: a write whose response was lost
// and which the client re-sends is answered from the dedup window with
// its original stamp instead of being applied again — a replayed write
// must never become two *-actions, or atomicity certification breaks.
package netreg

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/wire"
)

// serverBufSize sizes the per-connection read and write buffers: large
// enough that a deep pipelined burst of small frames coalesces into one
// syscall each way.
const serverBufSize = 64 << 10

// ServeOption configures a Server incarnation.
type ServeOption func(*serveConfig)

type serveConfig struct {
	wire    *obs.Wire
	journal *obs.Journal
}

// WithServerWire attaches a transport tally to the server: frames and
// bytes in each direction across all connections. One tally may be shared
// by several server incarnations.
func WithServerWire(w *obs.Wire) ServeOption {
	return func(c *serveConfig) { c.wire = w }
}

// Server hosts a Store's registers behind a listener. Values travel and
// are stored as canonical JSON, so the server is value-type agnostic.
type Server struct {
	st  *Store
	ws  *obs.Wire
	jnl *obs.Journal

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	handlers sync.WaitGroup
}

// NewServer starts a register server on addr (use "127.0.0.1:0" for an
// ephemeral test port) over a fresh Store. The default register is
// initialized to initial's JSON and draws stamps from seq (nil for a
// private sequencer).
func NewServer[V any](addr string, initial V, ports int, seq *history.Sequencer, opts ...ServeOption) (*Server, error) {
	st, err := NewStore(initial, ports, seq)
	if err != nil {
		return nil, err
	}
	return Serve(addr, st, opts...)
}

// Serve starts a server incarnation on addr over an existing Store. Use
// it to restart a crashed/closed server on the state it left behind.
func Serve(addr string, st *Store, opts ...ServeOption) (*Server, error) {
	var cfg serveConfig
	for _, o := range opts {
		o(&cfg)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netreg: listen: %w", err)
	}
	s := &Server{
		st:    st,
		ws:    cfg.wire,
		jnl:   cfg.journal,
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
	}
	s.handlers.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Store returns the server's backing store, for restarting a new
// incarnation after Close.
func (s *Server) Store() *Store { return s.st }

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and its connections, waiting for handlers to
// drain. The Store survives and can back a new incarnation via Serve.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.handlers.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.handlers.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.handlers.Add(1)
		s.mu.Unlock()
		go s.serve(conn)
	}
}

// serve pumps one connection: decode, handle, and encode on the one
// connection goroutine. Responses are buffered and flushed only when no
// received request remains — so a pipelined burst is answered with one
// syscall, while a serial client still gets every reply immediately (its
// next request hasn't arrived yet, so the buffer is empty and the flush
// fires). The request, the response value buffer, and the encoder
// scratch are all reused across iterations: the loop allocates nothing
// in steady state. A frame that fails to decode — a foreign protocol, an
// oversized length prefix, an unknown kind byte — ends the connection
// without a reply.
// The journal tap (WithJournal) brackets the handle call: one clock read
// and one record when enabled, a single nil check when not.
func (s *Server) serve(conn net.Conn) {
	defer s.handlers.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	rwc := StatConn(conn, s.ws)
	rd := wire.NewReader(bufio.NewReaderSize(rwc, serverBufSize))
	wr := wire.NewWriter(bufio.NewWriterSize(rwc, serverBufSize))
	var tap *connTap
	if s.jnl != nil {
		tap = newConnTap(s.jnl)
		defer tap.close()
	}
	var (
		req    wire.Request
		resp   wire.Response
		valBuf []byte
	)
	for {
		if rd.Buffered() == 0 {
			if err := wr.Flush(); err != nil {
				return
			}
		}
		if err := rd.ReadRequest(&req); err != nil {
			wr.Flush()
			return // client went away (or sent garbage; drop the link)
		}
		s.ws.FrameIn()
		if tap == nil {
			valBuf = s.st.handle(&req, &resp, valBuf)
		} else {
			inv := tap.begin()
			valBuf = s.st.handle(&req, &resp, valBuf)
			tap.record(&req, &resp, inv)
		}
		if err := wr.WriteResponse(&resp); err != nil {
			return
		}
		s.ws.FrameOut()
	}
}

// ErrClosed is returned by clients after Close.
var ErrClosed = errors.New("netreg: client closed")
