package netreg

import (
	"testing"

	"repro/internal/wire"
)

// bigJSONVal returns a JSON string value whose encoding is roughly n
// bytes — comfortably past any cap the tests set below it.
func bigJSONVal(n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = 'a' + byte(i%26)
	}
	v[0], v[n-1] = '"', '"'
	return v
}

// TestValBufCapRetainsLargeValues pins the connection value-buffer rule
// on both read paths (plain and quorum): steady reads of a value larger
// than 64 KiB keep their buffer and allocate nothing (the per-read
// thrashing a fixed cap caused), while one giant value followed by a
// small read releases the giant buffer instead of pinning it.
func TestValBufCapRetainsLargeValues(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(val []byte, ts int64) *wire.Request
		read  *wire.Request
	}{
		{"read", func(val []byte, _ int64) *wire.Request {
			return &wire.Request{Op: "write", Val: val}
		}, &wire.Request{Op: "read"}},
		{"qread", func(val []byte, ts int64) *wire.Request {
			return &wire.Request{Op: "qwrite", TS: ts, WID: 1, Val: val}
		}, &wire.Request{Op: "qread"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewStore("x", 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			var (
				resp wire.Response
				ts   int64
			)
			install := func(val []byte) {
				ts++
				st.handle(tc.write(val, ts), &resp, nil)
				if resp.Err != "" || resp.Dup {
					t.Fatalf("installing a %d-byte value: err %q dup %v", len(val), resp.Err, resp.Dup)
				}
			}
			big := bigJSONVal(128 << 10) // 2× the always-kept size
			install(big)
			valBuf := st.handle(tc.read, &resp, nil) // grow once
			if valBuf == nil {
				t.Fatalf("a %d-byte read dropped its own buffer", len(big))
			}
			if allocs := testing.AllocsPerRun(100, func() {
				valBuf = st.handle(tc.read, &resp, valBuf)
			}); allocs != 0 {
				t.Fatalf("reads of a %d-byte value allocate %.1f allocs/op, want 0", len(big), allocs)
			}
			if string(resp.Val) != string(big) {
				t.Fatal("retained-buffer read corrupted the value")
			}

			small := bigJSONVal(1 << 10)
			install(small)
			if buf := st.handle(tc.read, &resp, valBuf); buf != nil {
				t.Fatalf("a %d-byte read kept the %d-byte buffer of an earlier giant value", len(small), cap(buf))
			}
			if string(resp.Val) != string(small) {
				t.Fatal("read through the released buffer corrupted the value")
			}
			if buf := st.handle(tc.read, &resp, nil); buf == nil {
				t.Fatal("a small read dropped its own buffer")
			}
		})
	}
}

// BenchmarkStoreValBuf is a CI allocs/op gate (with BenchmarkFrame):
// `go test -run=NONE -bench=BenchmarkStoreValBuf -benchmem` must report
// 0 allocs/op for both sizes — val128Ki is past the 64 KiB always-kept
// size and is allocation-free only because the buffer rule retains a
// buffer sized to the value being served.
func BenchmarkStoreValBuf(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
	}{
		{"val1Ki", 1 << 10},
		{"val128Ki", 128 << 10},
	} {
		b.Run(bc.name, func(b *testing.B) {
			st, err := NewStore("x", 1, nil)
			if err != nil {
				b.Fatal(err)
			}
			val := bigJSONVal(bc.size)
			var resp wire.Response
			st.handle(&wire.Request{Op: "qwrite", TS: 1, WID: 1, Val: val}, &resp, nil)
			if resp.Err != "" {
				b.Fatalf("installing the value: %s", resp.Err)
			}
			read := &wire.Request{Op: "qread"}
			valBuf := st.handle(read, &resp, nil)
			b.SetBytes(int64(bc.size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				valBuf = st.handle(read, &resp, valBuf)
			}
			if valBuf == nil {
				b.Fatal("buffer dropped mid-benchmark")
			}
		})
	}
}
