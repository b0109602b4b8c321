package replica_test

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/netreg"
	"repro/internal/replica"
)

// benchCluster starts an in-process m-replica cluster for the allocation
// benchmarks: no journals, no wire stats — nothing that isn't the quorum
// path itself.
func benchCluster(b *testing.B, m int) []string {
	b.Helper()
	var addrs []string
	for i := 0; i < m; i++ {
		st, err := netreg.NewStore("v0", 1, new(history.Sequencer))
		if err != nil {
			b.Fatal(err)
		}
		srv, err := netreg.Serve("127.0.0.1:0", st)
		if err != nil {
			b.Fatal(err)
		}
		addrs = append(addrs, srv.Addr())
		b.Cleanup(func() { srv.Close() })
	}
	return addrs
}

// benchClient dials a quorum client for the benchmarks and warms the
// engine: the record pool, the per-connection rings, and the value
// buffers all reach steady state before the measured loop, so the
// reported allocs/op is the steady-state figure the allocs gate enforces
// (zero).
func benchClient(b *testing.B, mode replica.Mode, warm []byte) *replica.QClient {
	b.Helper()
	addrs := benchCluster(b, 3)
	q, err := replica.Dial(addrs, replica.Options{Mode: mode, WriterID: 1, Timeout: time.Second})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { q.Close() })
	var buf []byte
	for i := 0; i < 100; i++ {
		if err := q.Write(warm); err != nil {
			b.Fatal(err)
		}
		if buf, _, _, err = q.ReadInto(buf); err != nil {
			b.Fatal(err)
		}
	}
	return q
}

// BenchmarkQuorumRead is the engine's steady-state read path: ReadInto
// with a caller-owned buffer over a warm 3-replica cluster. CI gates this
// at 0 allocs/op — the runtime counterpart of //bloom:noalloc on the
// path.
func BenchmarkQuorumRead(b *testing.B) {
	val, _ := json.Marshal("bench-value")
	for _, mode := range []replica.Mode{replica.ModeABD, replica.ModeFast} {
		b.Run(mode.String(), func(b *testing.B) {
			q := benchClient(b, mode, val)
			var buf []byte
			var err error
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, _, _, err = q.ReadInto(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuorumWrite is the engine's steady-state write path: two
// quorum phases per op, gated at 0 allocs/op like the read.
func BenchmarkQuorumWrite(b *testing.B) {
	val, _ := json.Marshal("bench-value")
	q := benchClient(b, replica.ModeABD, val)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.Write(val); err != nil {
			b.Fatal(err)
		}
	}
}
