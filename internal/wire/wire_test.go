package wire_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/wire"
)

// pipe returns a Writer feeding a buffer and a Reader over that buffer's
// eventual contents (call flush first).
func pipe() (*wire.Writer, func() *wire.Reader) {
	var buf bytes.Buffer
	w := wire.NewWriter(bufio.NewWriter(&buf))
	return w, func() *wire.Reader { return wire.NewReader(bufio.NewReader(&buf)) }
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []wire.Request{
		{ID: 1, Op: "read", Port: 3},
		{ID: 2, Op: "write", Val: json.RawMessage(`"hello"`), Client: "c1", Seq: 9},
		{ID: 1<<63 + 5, Op: "write", Reg: "shard-7", Val: json.RawMessage(`{"x":1}`), Client: "deadbeef01234567", Seq: 1 << 40},
		{Op: "read"}, // all-zero fields
		{ID: 4, Op: "write", Val: json.RawMessage(`"line1\nline2 ünïcødé"`), Client: "c", Seq: 2},
		{ID: 5, Op: "qread", Reg: "q"},
		{ID: 6, Op: "qwrite", Val: json.RawMessage(`"q"`), TS: -3, WID: 7},
	}
	w, rd := pipe()
	for i := range reqs {
		if err := w.WriteRequest(&reqs[i]); err != nil {
			t.Fatalf("WriteRequest(%d): %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := rd()
	for i := range reqs {
		var got wire.Request
		if err := r.ReadRequest(&got); err != nil {
			t.Fatalf("ReadRequest(%d): %v", i, err)
		}
		want := reqs[i]
		if got.ID != want.ID || got.Op != want.Op || got.Reg != want.Reg ||
			got.Port != want.Port || got.Client != want.Client || got.Seq != want.Seq ||
			!bytes.Equal(got.Val, want.Val) || got.TS != want.TS || got.WID != want.WID {
			t.Fatalf("request %d round-tripped to %+v, want %+v", i, got, want)
		}
	}
}

// TestUnknownOpRefused checks the encoder refuses an op it has no kind
// byte for, buffering nothing, instead of sending it as some other op: a
// misspelled "write" must never reach a server as a read.
func TestUnknownOpRefused(t *testing.T) {
	w, rd := pipe()
	for _, op := range []string{"wrtie", "", "READ", "cas"} {
		if err := w.WriteRequest(&wire.Request{ID: 1, Op: op, Val: json.RawMessage(`"v"`)}); !errors.Is(err, wire.ErrUnknownOp) {
			t.Fatalf("WriteRequest(op %q) = %v, want ErrUnknownOp", op, err)
		}
	}
	if err := w.WriteRequest(&wire.Request{ID: 2, Op: "write", Val: json.RawMessage(`"v"`)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := rd()
	var got wire.Request
	if err := r.ReadRequest(&got); err != nil {
		t.Fatal(err)
	}
	if got.ID != 2 || got.Op != "write" {
		t.Fatalf("first frame on the wire = %+v, want the write (refused ops must buffer nothing)", got)
	}
	if n := r.Buffered(); n != 0 {
		t.Fatalf("%d bytes follow the only valid frame", n)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []wire.Response{
		{ID: 1, Stamp: 42, Val: json.RawMessage(`"v"`)},
		{ID: 2, Stamp: -7, Err: "port 9 out of range"},
		{Stamp: 0},
		{ID: 1 << 50, Stamp: 1<<62 + 3, Val: json.RawMessage(`{"nested":["a","b"]}`)},
		{ID: 3, Stamp: 11, WID: 4, Val: json.RawMessage(`"q"`)},
	}
	w, rd := pipe()
	for i := range resps {
		if err := w.WriteResponse(&resps[i]); err != nil {
			t.Fatalf("WriteResponse(%d): %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := rd()
	for i := range resps {
		var got wire.Response
		if err := r.ReadResponse(&got); err != nil {
			t.Fatalf("ReadResponse(%d): %v", i, err)
		}
		want := resps[i]
		if got.ID != want.ID || got.Stamp != want.Stamp || got.Err != want.Err ||
			!bytes.Equal(got.Val, want.Val) || got.WID != want.WID {
			t.Fatalf("response %d round-tripped to %+v, want %+v", i, got, want)
		}
	}
}

// TestRandomRoundTrip hammers the binary codec with seeded random frames:
// whatever goes in must come out, across a wide range of field sizes.
func TestRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	w, rd := pipe()
	var want []wire.Request
	for i := 0; i < 200; i++ {
		op := "read"
		if rng.Intn(2) == 1 {
			op = "write"
		}
		req := wire.Request{
			ID:     rng.Uint64(),
			Op:     op,
			Reg:    string(randBytes(rng.Intn(20))),
			Port:   rng.Intn(1 << 16),
			Client: string(randBytes(rng.Intn(32))),
			Seq:    rng.Uint64(),
			Val:    randBytes(rng.Intn(4096)),
		}
		if len(req.Val) == 0 {
			req.Val = nil
		}
		want = append(want, req)
		if err := w.WriteRequest(&req); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := rd()
	for i := range want {
		var got wire.Request
		if err := r.ReadRequest(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.ID != want[i].ID || got.Op != want[i].Op || got.Reg != want[i].Reg ||
			got.Port != want[i].Port || got.Client != want[i].Client ||
			got.Seq != want[i].Seq || !bytes.Equal(got.Val, want[i].Val) {
			t.Fatalf("frame %d mismatch: %+v vs %+v", i, got, want[i])
		}
	}
}

// TestOversizedFrameRejected checks the framing guard: a corrupted length
// prefix (as a garbled link produces) must be a clean error, not a 500 MB
// allocation.
func TestOversizedFrameRejected(t *testing.T) {
	raw := []byte{0x20, 0x00, 0x00, 0x01, 0xff} // garbled high byte: length 537 MB
	r := wire.NewReader(bufio.NewReader(bytes.NewReader(raw)))
	var req wire.Request
	err := r.ReadRequest(&req)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame error = %v, want a frame-limit error", err)
	}
}

// TestTruncatedFrameRejected checks every truncation point of a valid
// frame errors rather than hanging or mis-parsing.
func TestTruncatedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	w := wire.NewWriter(bufio.NewWriter(&buf))
	if err := w.WriteRequest(&wire.Request{ID: 7, Op: "write", Val: json.RawMessage(`"x"`), Client: "c", Seq: 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		r := wire.NewReader(bufio.NewReader(bytes.NewReader(full[:n])))
		var req wire.Request
		if err := r.ReadRequest(&req); err == nil {
			t.Fatalf("frame truncated to %d/%d bytes decoded successfully: %+v", n, len(full), req)
		}
	}
}

// TestBufferedTracksBothLayers checks the flush heuristic's input: after a
// partial read, Buffered must see the remaining frames still sitting in
// the bufio layer below the decoder, and report zero once the decoder
// has consumed them all.
func TestBufferedTracksBothLayers(t *testing.T) {
	var buf bytes.Buffer
	w := wire.NewWriter(bufio.NewWriter(&buf))
	for i := 0; i < 3; i++ {
		if err := w.WriteRequest(&wire.Request{ID: uint64(i + 1), Op: "read"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(bufio.NewReader(&buf))
	var req wire.Request
	if err := r.ReadRequest(&req); err != nil {
		t.Fatal(err)
	}
	if r.Buffered() == 0 {
		t.Fatal("two frames remain but Buffered() = 0")
	}
	for i := 0; i < 2; i++ {
		if err := r.ReadRequest(&req); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.Buffered(); n != 0 {
		t.Fatalf("stream drained but Buffered() = %d", n)
	}
}

func BenchmarkEncodeRequest(b *testing.B) {
	req := wire.Request{ID: 12345, Op: "write", Val: json.RawMessage(`"w0-17"`), Client: "deadbeef01234567", Seq: 12345}
	var buf bytes.Buffer
	buf.Grow(1 << 20)
	w := wire.NewWriter(bufio.NewWriter(&buf))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			buf.Reset()
		}
		if err := w.WriteRequest(&req); err != nil {
			b.Fatal(err)
		}
	}
}
