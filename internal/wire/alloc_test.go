package wire_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"repro/internal/wire"
)

// loopReader replays one byte sequence forever, so a decode loop can run
// an unbounded number of frames without the test harness allocating.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// encodeFrames returns the wire bytes of req repeated once and resp
// repeated once, in binary framing.
func encodeFrames(t testing.TB, req *wire.Request, resp *wire.Response) (reqFrame, respFrame []byte) {
	t.Helper()
	encode := func(write func(w *wire.Writer) error) []byte {
		var buf bytes.Buffer
		w := wire.NewWriter(bufio.NewWriter(&buf))
		if err := write(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	return encode(func(w *wire.Writer) error { return w.WriteRequest(req) }),
		encode(func(w *wire.Writer) error { return w.WriteResponse(resp) })
}

var allocReq = wire.Request{
	ID: 123456, Op: "write", Reg: "shard-7",
	Val: json.RawMessage(`"w0-17"`), Client: "deadbeef01234567", Seq: 123456,
}

var allocResp = wire.Response{ID: 123456, Stamp: 987654, Val: json.RawMessage(`"w0-17"`)}

// TestEncodeZeroAllocs is the hard gate on the binary encode path: steady
// state, a request or response frame must not allocate at all.
func TestEncodeZeroAllocs(t *testing.T) {
	w := wire.NewWriter(bufio.NewWriterSize(io.Discard, 1<<16))
	// Warm the scratch buffer.
	for i := 0; i < 8; i++ {
		if err := w.WriteRequest(&allocReq); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteResponse(&allocResp); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := w.WriteRequest(&allocReq); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteResponse(&allocResp); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("binary encode allocates %.1f allocs per request+response, want 0", allocs)
	}
}

// TestDecodeZeroAllocs is the hard gate on the binary decode path: steady
// state (names already interned), decoding a request or response frame
// must not allocate at all.
func TestDecodeZeroAllocs(t *testing.T) {
	reqFrame, respFrame := encodeFrames(t, &allocReq, &allocResp)

	rr := wire.NewReader(bufio.NewReaderSize(&loopReader{data: reqFrame}, 1<<16))
	var req wire.Request
	for i := 0; i < 8; i++ { // warm the intern cache and frame buffer
		if err := rr.ReadRequest(&req); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := rr.ReadRequest(&req); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("binary request decode allocates %.1f allocs/op, want 0", allocs)
	}
	if req.Reg != allocReq.Reg || req.Client != allocReq.Client || !bytes.Equal(req.Val, allocReq.Val) {
		t.Fatalf("steady-state decode corrupted the frame: %+v", req)
	}

	pr := wire.NewReader(bufio.NewReaderSize(&loopReader{data: respFrame}, 1<<16))
	var resp wire.Response
	for i := 0; i < 8; i++ {
		if err := pr.ReadResponse(&resp); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := pr.ReadResponse(&resp); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("binary response decode allocates %.1f allocs/op, want 0", allocs)
	}
	if resp.Stamp != allocResp.Stamp || !bytes.Equal(resp.Val, allocResp.Val) {
		t.Fatalf("steady-state decode corrupted the frame: %+v", resp)
	}
}

// TestDecodedFieldsAliasFrameBuffer pins the documented contract: a
// decoded Val is valid until the next read, and the next read replaces it.
func TestDecodedFieldsAliasFrameBuffer(t *testing.T) {
	var buf bytes.Buffer
	w := wire.NewWriter(bufio.NewWriter(&buf))
	first := wire.Request{ID: 1, Op: "write", Val: json.RawMessage(`"first"`)}
	second := wire.Request{ID: 2, Op: "write", Val: json.RawMessage(`"second-longer"`)}
	if err := w.WriteRequest(&first); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRequest(&second); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(bufio.NewReader(&buf))
	var req wire.Request
	if err := r.ReadRequest(&req); err != nil {
		t.Fatal(err)
	}
	held := req.Val // aliases the frame buffer
	if !bytes.Equal(held, first.Val) {
		t.Fatalf("first Val = %q", held)
	}
	if err := r.ReadRequest(&req); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(req.Val, second.Val) {
		t.Fatalf("second Val = %q", req.Val)
	}
}

// TestPoolDropsOversizedBuffers is the regression test for the pool
// inflation bug: a buffer grown past MaxPooledBuf while serving one large
// value must NOT be recycled, so a burst of large frames cannot
// permanently inflate the pool's steady-state residency.
func TestPoolDropsOversizedBuffers(t *testing.T) {
	big := wire.GetBuf(4 << 20) // a 4 MiB value's parse buffer
	wire.PutBuf(big)
	got := wire.GetBuf(0)
	defer wire.PutBuf(got)
	if cap(*got) > wire.MaxPooledBuf {
		t.Fatalf("pool recycled a %d-byte buffer; cap above %d must be dropped", cap(*got), wire.MaxPooledBuf)
	}
}

// TestSteadyStateHeapAfterLargeValueBurst drives the full codec through a
// burst of large-value frames, then checks that steady small-frame
// traffic is allocation-free again — i.e. neither the writer scratch nor
// the reader pool kept multi-megabyte buffers alive per frame, and small
// frames after the burst don't keep paying for it.
func TestSteadyStateHeapAfterLargeValueBurst(t *testing.T) {
	bigVal := bytes.Repeat([]byte("x"), 2<<20)
	bigVal[0], bigVal[len(bigVal)-1] = '"', '"'
	big := wire.Request{ID: 9, Op: "write", Val: bigVal, Client: "c"}

	var buf bytes.Buffer
	w := wire.NewWriter(bufio.NewWriter(&buf))
	r := wire.NewReader(bufio.NewReader(&buf))
	var req wire.Request
	for i := 0; i < 4; i++ { // the burst
		if err := w.WriteRequest(&big); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := r.ReadRequest(&req); err != nil {
			t.Fatal(err)
		}
	}
	buf.Reset()

	// Steady state after the burst: small frames, zero allocs, through the
	// same Writer and Reader.
	small := allocReq
	for i := 0; i < 8; i++ {
		if err := w.WriteRequest(&small); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := r.ReadRequest(&req); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := w.WriteRequest(&small); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := r.ReadRequest(&req); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("post-burst steady state allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkFrameEncode and BenchmarkFrameDecode are the CI allocs/op
// gates: `go test -run=NONE -bench=BenchmarkFrame -benchmem` must report
// 0 allocs/op for both, enforced by the workflow.
func BenchmarkFrameEncode(b *testing.B) {
	w := wire.NewWriter(bufio.NewWriterSize(io.Discard, 1<<16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteRequest(&allocReq); err != nil {
			b.Fatal(err)
		}
		if err := w.WriteResponse(&allocResp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	reqFrame, respFrame := encodeFrames(b, &allocReq, &allocResp)
	stream := append(append([]byte{}, reqFrame...), respFrame...)
	r := wire.NewReader(bufio.NewReaderSize(&loopReader{data: stream}, 1<<16))
	var req wire.Request
	var resp wire.Response
	if err := r.ReadRequest(&req); err != nil { // warm intern cache
		b.Fatal(err)
	}
	if err := r.ReadResponse(&resp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.ReadRequest(&req); err != nil {
			b.Fatal(err)
		}
		if err := r.ReadResponse(&resp); err != nil {
			b.Fatal(err)
		}
	}
}
