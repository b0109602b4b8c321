// Package wire is the framing layer of the networked registers
// (internal/netreg): the request/response message types and the compact
// length-prefixed binary codec that puts them on a TCP stream.
//
// The codec is built for throughput — one length word plus a flat field
// encoding, written through a bufio.Writer so a pipelined batch of frames
// costs one syscall. Encode and decode are zero-allocation in steady
// state: frames are assembled in a per-Writer scratch buffer reused
// across flushes, decoded payloads live in pooled buffers each Reader
// holds until its next frame (decoded byte fields alias them — see
// Reader), and repeated name strings are interned per connection.
//
// # Binary frame layout
//
// Every frame is a 4-byte big-endian payload length followed by the
// payload. Payloads are < MaxFrame (16 MiB); a longer length prefix is a
// framing error, as is a payload whose kind byte or fields do not parse,
// and the peer drops the connection rather than guess where the next
// frame starts.
//
// Request payload:
//
//	kind     1 byte  (0x01 read, 0x02 write, 0x03 qread, 0x04 qwrite)
//	id       uvarint request id (pipelining correlation)
//	reg      uvarint length + bytes (register name, "" = default)
//	port     uvarint (reads)
//	client   uvarint length + bytes (dedup client id)
//	seq      uvarint (dedup sequence number)
//	val      uvarint length + bytes (JSON value, writes)
//	ts       zigzag varint (replica timestamp, qwrite)
//	wid      uvarint (writer id, qwrite timestamp tiebreak)
//
// Response payload:
//
//	kind     1 byte  (0x81)
//	id       uvarint (echoes the request id)
//	stamp    zigzag varint (*-action stamp, or replica timestamp for q-ops)
//	err      uvarint length + bytes
//	val      uvarint length + bytes (JSON value, reads)
//	wid      uvarint (writer id paired with stamp, q-ops)
//
// All integers are unsigned varints except stamp and ts, which are
// zigzag-encoded (both are int64 and could in principle go negative on a
// foreign sequencer). The q-ops carry the ABD quorum protocol
// (internal/replica): qread returns the replica's (timestamp, writer id,
// value), and qwrite stores (ts, wid, val) iff it is newer than what the
// replica holds (a stale qwrite is acked without effect). ts/wid ride at
// the tail of every request frame and wid at the tail of every response
// frame so the layout stays uniform across kinds; for plain reads and
// writes they encode as two zero bytes.
package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// MaxFrame bounds a binary payload. It keeps a corrupted length prefix
// (e.g. a garbled high byte) from provoking a giant allocation: oversized
// frames are a framing error and drop the connection.
const MaxFrame = 16 << 20

// Request is one access on the wire.
type Request struct {
	// ID correlates the response on a pipelined connection; it is echoed
	// verbatim.
	ID uint64
	// Op is "read", "write", or one of the replica quorum ops: "qread"
	// (query a replica's timestamped value) or "qwrite" (store-if-newer
	// write-back). Any other op is refused by WriteRequest.
	Op string
	// Reg names the register instance on a multi-register server; "" is
	// the default register.
	Reg string
	// Port is the reader's port (reads only).
	Port int
	// Val is the value written (writes only), as raw JSON.
	Val json.RawMessage
	// Client identifies the sending client for write dedup.
	Client string
	// Seq is the client's per-request sequence number; a retried request
	// re-sends the same Seq, which is how the server recognizes it.
	Seq uint64
	// TS is the replica timestamp a qwrite carries (the ABD write-back
	// phase); unused by other ops.
	TS int64
	// WID is the writer id paired with TS: (TS, WID) order
	// lexicographically, so concurrent writers with equal timestamps are
	// broken deterministically.
	WID uint32
}

// Response is one access result on the wire.
type Response struct {
	// ID echoes the request's id.
	ID uint64
	// Val is the value read (reads only), as raw JSON.
	Val json.RawMessage
	// Stamp is the access's *-action stamp; for the replica quorum ops it
	// carries the replica's current timestamp instead.
	Stamp int64
	// WID is the writer id paired with Stamp on quorum-op replies (qread,
	// qwrite); zero otherwise.
	WID uint32
	// Err reports a server-side failure.
	Err string
	// Dup marks a write answered from the dedup window (a retransmission
	// of an already-applied write). Server-side only: it never crosses the
	// wire, but lets the journal tap flag the record so history checkers
	// don't count one write effect twice.
	Dup bool
}

// ErrUnknownOp is returned by Writer.WriteRequest for a Request.Op the
// frame layout has no kind byte for. Nothing is buffered: an unknown op
// is refused rather than sent as some other op.
var ErrUnknownOp = errors.New("wire: unknown request op")

// Reader decodes frames from one connection. Not safe for concurrent use;
// a connection has one reading goroutine.
//
// Decode is zero-allocation in steady state, which comes with an
// ALIASING CONTRACT: the byte fields of a decoded Request or Response
// (Val) point into a buffer the Reader reuses, and are valid only until
// the next ReadRequest/ReadResponse call. A caller that lets a value
// outlive the frame — handing it to another goroutine, storing it —
// must copy it first. Name strings (Reg, Client) are interned per
// connection and safe to retain.
type Reader struct {
	br *bufio.Reader

	// held is the pooled buffer backing the last decoded frame; it is
	// released back to the pool when the next frame replaces it, which
	// is what keeps the aliased fields above valid between reads.
	held  *[]byte
	names interner
}

// NewReader returns a frame reader over br.
func NewReader(br *bufio.Reader) *Reader {
	return &Reader{br: br, names: interner{m: make(map[string]string)}}
}

// Buffered reports how many received-but-undecoded bytes are sitting in
// the reader's buffer. The server flushes its response buffer only when
// this hits zero — i.e. when the next ReadRequest would block — which is
// what batches a pipelined burst's responses into one syscall.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// ReadRequest decodes the next request frame into req. Decoded byte
// fields alias the Reader's frame buffer; see the Reader contract.
func (r *Reader) ReadRequest(req *Request) error {
	p, err := r.readBinary()
	if err != nil {
		return err
	}
	return parseRequest(p, req, &r.names)
}

// ReadResponse decodes the next response frame into resp. Decoded byte
// fields alias the Reader's frame buffer; see the Reader contract.
func (r *Reader) ReadResponse(resp *Response) error {
	p, err := r.readBinary()
	if err != nil {
		return err
	}
	return parseResponse(p, resp)
}

// readBinary reads one length-prefixed payload into a pooled buffer and
// returns it. The Reader holds the buffer until the NEXT readBinary call
// releases it, so decoded fields may alias the payload between reads —
// that deferred hand-back is what makes steady-state decode allocation
// free.
func (r *Reader) readBinary() ([]byte, error) {
	if r.held != nil {
		putBuf(r.held)
		r.held = nil
	}
	// The length prefix is peeked out of bufio's own buffer rather than
	// read into a local array: a local passed down through io.Reader
	// escapes to the heap, and this is the per-frame hot path.
	hdr, err := r.br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3]))
	if _, err := r.br.Discard(4); err != nil {
		return nil, err
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame length %d exceeds limit %d (corrupt stream?)", n, MaxFrame)
	}
	buf := getBuf(n)
	if _, err := io.ReadFull(r.br, (*buf)[:n]); err != nil {
		putBuf(buf)
		return nil, err
	}
	r.held = buf
	return (*buf)[:n], nil
}

// Writer encodes frames onto one connection through a bufio.Writer. Write
// calls buffer; nothing reaches the wire until Flush. Not safe for
// concurrent use; a connection has one writing goroutine.
//
// Encode is zero-allocation in steady state: frames are assembled in a
// scratch buffer the Writer reuses across flushes (shrunk back after an
// oversized value so one large frame doesn't pin its capacity forever).
type Writer struct {
	bw      *bufio.Writer
	scratch []byte
}

// NewWriter returns a frame writer over bw.
func NewWriter(bw *bufio.Writer) *Writer { return &Writer{bw: bw} }

// WriteRequest buffers one request frame. A request whose Op has no
// kind byte fails with ErrUnknownOp and buffers nothing.
func (w *Writer) WriteRequest(req *Request) error {
	kind := requestKind(req.Op)
	if kind == 0 {
		return ErrUnknownOp
	}
	w.scratch = appendRequest(append(w.scratch[:0], 0, 0, 0, 0), kind, req)
	return w.writeScratch()
}

// WriteResponse buffers one response frame.
func (w *Writer) WriteResponse(resp *Response) error {
	w.scratch = appendResponse(append(w.scratch[:0], 0, 0, 0, 0), resp)
	return w.writeScratch()
}

// writeScratch fills in the length prefix over the scratch's 4-byte
// placeholder and buffers the whole frame with one write (a separate
// header write would escape its array to the heap through the io.Writer
// interface — one of the hot path's chased-out allocations). The scratch
// is dropped if one oversized value grew it past the steady-state cap.
func (w *Writer) writeScratch() error {
	n := len(w.scratch) - 4
	if n > MaxFrame {
		return fmt.Errorf("wire: frame length %d exceeds limit %d", n, MaxFrame)
	}
	w.scratch[0], w.scratch[1], w.scratch[2], w.scratch[3] =
		byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	_, err := w.bw.Write(w.scratch)
	if cap(w.scratch) > maxPooledBuf {
		w.scratch = nil
	}
	return err
}

// Flush pushes every buffered frame to the wire.
func (w *Writer) Flush() error { return w.bw.Flush() }
