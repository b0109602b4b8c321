package wire

import (
	"encoding/binary"
	"errors"
	"sync"
)

// Payload kind bytes. 0 is no kind: requestKind returns it for an op the
// layout cannot carry.
const (
	kindRead     = 0x01
	kindWrite    = 0x02
	kindQRead    = 0x03 // replica quorum read: (ts, wid, val) query
	kindQWrite   = 0x04 // replica write-back: store (ts, wid, val) if newer
	kindResponse = 0x81
)

// bufPool recycles frame parse buffers; steady-state decode allocates
// nothing (decoded fields alias the pooled buffer, which its Reader holds
// until the next frame).
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// maxPooledBuf caps the capacity of a buffer recycled into bufPool. A
// single large value must not permanently inflate the pool: a buffer that
// grew past the cap while serving one oversized frame is dropped for the
// garbage collector instead of being re-pooled, so steady-state pool
// residency stays bounded by the cap regardless of bursts.
const maxPooledBuf = 64 << 10

// getBuf returns a pooled buffer with capacity ≥ n and length n. The
// make is the pool-miss cold path: steady state hits the pool and
// allocates nothing, which is what the runtime allocs/op gate measures.
//
//bloom:allowalloc
func getBuf(n int) *[]byte {
	b := bufPool.Get().(*[]byte)
	if cap(*b) < n {
		*b = make([]byte, n)
	}
	*b = (*b)[:n]
	return b
}

// putBuf recycles a buffer obtained from getBuf, unless serving an
// oversized frame grew it past maxPooledBuf.
//
//bloom:noalloc
func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	bufPool.Put(b)
}

// requestKind maps a request op to its kind byte, or 0 for an op the
// layout has no kind for.
//
//bloom:waitfree
//bloom:noalloc
func requestKind(op string) byte {
	switch op {
	case "read":
		return kindRead
	case "write":
		return kindWrite
	case "qread":
		return kindQRead
	case "qwrite":
		return kindQWrite
	}
	return 0
}

// appendRequest encodes req onto b in the binary payload layout under
// the given kind byte (see requestKind). It is a pure append — one of the
// hot-path leaves the static wait-free and no-alloc checks cover (the
// appends reuse the caller's buffer).
//
//bloom:waitfree
//bloom:noalloc
func appendRequest(b []byte, kind byte, req *Request) []byte {
	b = append(b, kind)
	b = binary.AppendUvarint(b, req.ID)
	b = appendString(b, req.Reg)
	b = binary.AppendUvarint(b, uint64(uint(req.Port)))
	b = appendString(b, req.Client)
	b = binary.AppendUvarint(b, req.Seq)
	b = appendBytes(b, req.Val)
	b = binary.AppendVarint(b, req.TS)
	return binary.AppendUvarint(b, uint64(req.WID))
}

// appendResponse encodes resp onto b in the binary payload layout.
//
//bloom:waitfree
//bloom:noalloc
func appendResponse(b []byte, resp *Response) []byte {
	b = append(b, byte(kindResponse))
	b = binary.AppendUvarint(b, resp.ID)
	b = binary.AppendVarint(b, resp.Stamp)
	b = appendString(b, resp.Err)
	b = appendBytes(b, resp.Val)
	return binary.AppendUvarint(b, uint64(resp.WID))
}

// appendString appends a uvarint length followed by the string bytes.
//
//bloom:noalloc
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendBytes appends a uvarint length followed by the slice bytes.
//
//bloom:noalloc
func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// parseError reports a truncated or malformed field. It is a dedicated
// type (rather than fmt.Errorf) so the parse functions keep their
// //bloom:waitfree discipline: fmt's printer state comes from a
// sync.Pool, whose slow path takes a mutex, and error construction sits
// on the frame-decode hot path. The message is assembled only when the
// error is actually printed.
type parseError struct{ what string }

func (e *parseError) Error() string { return "wire: truncated or malformed " + e.what }

// Frame-shape errors, preallocated for the same reason.
var (
	errUnknownRequestKind  = errors.New("wire: unknown request kind byte")
	errUnknownResponseKind = errors.New("wire: unknown response kind byte")
	errTrailingBytes       = errors.New("wire: trailing bytes after frame payload")
)

// maxInterned bounds a Reader's string-intern cache. A connection sees a
// handful of distinct register names and client ids over and over; past
// the bound (an adversarial peer cycling names) the cache stops growing
// and decode falls back to a per-frame allocation.
const maxInterned = 1024

// interner caches the small strings decoded off one connection — register
// names, client ids — so steady-state decode of a repeated name costs a
// map probe instead of an allocation. Not safe for concurrent use; it
// belongs to a single Reader.
type interner struct {
	m map[string]string
}

// intern returns a string equal to b, reusing a previously decoded one
// when the connection has seen these bytes before. The map probe with a
// []byte key does not allocate; only the first sight of a name does.
//
//bloom:waitfree
func (in *interner) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(in.m) < maxInterned {
		in.m[s] = s
	}
	return s
}

// parser walks a binary payload. Every accessor reports malformation by
// setting err; the caller checks once at the end. Decoded byte fields
// ALIAS the payload (see Reader: the buffer stays valid until the next
// frame is read); decoded name strings go through the interner.
type parser struct {
	p   []byte
	in  *interner
	err error
}

// fail records the first malformation. Constructing the parseError is
// the malformed-frame cold path, off the steady-state decode budget.
//
//bloom:allowalloc
func (d *parser) fail(what string) {
	if d.err == nil {
		d.err = &parseError{what}
	}
}

func (d *parser) byte(what string) byte {
	if d.err != nil || len(d.p) == 0 {
		d.fail(what)
		return 0
	}
	b := d.p[0]
	d.p = d.p[1:]
	return b
}

func (d *parser) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *parser) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.p)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.p = d.p[n:]
	return v
}

// bytes returns the next length-prefixed field WITHOUT copying: the
// returned slice aliases the frame buffer, which the owning Reader keeps
// stable until its next Read call. Callers that let a field outlive the
// frame must copy it themselves (see Reader).
func (d *parser) bytes(what string) []byte {
	n := d.uvarint(what)
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.p)) {
		d.fail(what)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := d.p[:n:n]
	d.p = d.p[n:]
	return out
}

// name decodes a length-prefixed string through the intern cache: a
// repeated register name or client id costs a map probe, not an
// allocation. Excused rather than claimed alloc-free: the interner-less
// fallback and the intern cache's first sight of a name do allocate.
//
//bloom:allowalloc
func (d *parser) name(what string) string {
	n := d.uvarint(what)
	if d.err != nil || n > uint64(len(d.p)) {
		d.fail(what)
		return ""
	}
	b := d.p[:n]
	d.p = d.p[n:]
	if d.in != nil {
		return d.in.intern(b)
	}
	return string(b)
}

// string decodes a length-prefixed string as a fresh allocation (free when
// empty). Used for fields that vary per frame, like error messages, where
// interning would only churn the cache: an allocation here is deliberate,
// hence excused.
//
//bloom:allowalloc
func (d *parser) string(what string) string {
	n := d.uvarint(what)
	if d.err != nil || n > uint64(len(d.p)) {
		d.fail(what)
		return ""
	}
	s := string(d.p[:n])
	d.p = d.p[n:]
	return s
}

// parseRequest decodes one binary request payload into req. req.Val
// aliases p; req.Reg and req.Client come from the intern cache. The
// steady-state decode of a well-formed frame allocates nothing; the
// excused leaves (fail, name) allocate only on malformed frames or
// first-seen names.
//
//bloom:waitfree
//bloom:noalloc
func parseRequest(p []byte, req *Request, in *interner) error {
	d := parser{p: p, in: in}
	switch d.byte("kind") {
	case kindRead:
		req.Op = "read"
	case kindWrite:
		req.Op = "write"
	case kindQRead:
		req.Op = "qread"
	case kindQWrite:
		req.Op = "qwrite"
	default:
		if d.err == nil {
			d.err = errUnknownRequestKind
		}
	}
	req.ID = d.uvarint("id")
	req.Reg = d.name("reg")
	req.Port = int(d.uvarint("port"))
	req.Client = d.name("client")
	req.Seq = d.uvarint("seq")
	req.Val = d.bytes("val")
	req.TS = d.varint("ts")
	req.WID = uint32(d.uvarint("wid"))
	if d.err == nil && len(d.p) != 0 {
		d.err = errTrailingBytes
	}
	return d.err
}

// parseResponse decodes one binary response payload into resp. resp.Val
// aliases p.
//
//bloom:waitfree
//bloom:noalloc
func parseResponse(p []byte, resp *Response) error {
	d := parser{p: p}
	if k := d.byte("kind"); k != kindResponse && d.err == nil {
		d.err = errUnknownResponseKind
	}
	resp.ID = d.uvarint("id")
	resp.Stamp = d.varint("stamp")
	resp.Err = d.string("err")
	resp.Val = d.bytes("val")
	resp.WID = uint32(d.uvarint("wid"))
	if d.err == nil && len(d.p) != 0 {
		d.err = errTrailingBytes
	}
	return d.err
}
