package netreg_test

import (
	"testing"
	"time"

	"repro/internal/netreg"
	"repro/internal/wire"
)

// BenchmarkClientDo measures serial Client.Do round trips over loopback
// with a deadline, reusing one request across iterations the way
// bench/'s net-single slots do. CI gates each sub-benchmark at 1
// allocs/op. A read's one allocation is the returned copy of the value,
// which Do's contract lets the caller keep. A write's is the value the
// server stores, since the server runs in the same process.
func BenchmarkClientDo(b *testing.B) {
	const val = `"0123456789abcd"` // 16 B, net-single's value size
	srv, err := netreg.NewServer("127.0.0.1:0", "0123456789abcd", 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := netreg.Dial[string](srv.Addr(), netreg.WithTimeout(5*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	for _, bc := range []struct {
		name string
		req  wire.Request
	}{
		{"read", wire.Request{Op: "read"}},
		{"write", wire.Request{Op: "write", Val: []byte(val)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var req wire.Request
			for i := 0; i < 100; i++ { // warm the client's pooled state
				req = bc.req
				if _, err := c.Do(&req); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req = bc.req
				if _, err := c.Do(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
