package netreg_test

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/netreg"
	"repro/internal/obs"
)

// stalledServer accepts connections and reads their requests but never
// replies — the pathological peer a deadline exists for.
func stalledServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestTimeoutStalledServer is the regression test for hung round trips: a
// client with a deadline against a server that never replies must return a
// counted ErrTimeout promptly instead of blocking forever.
func TestTimeoutStalledServer(t *testing.T) {
	addr := stalledServer(t)
	rpc := obs.NewRPC()
	c, err := netreg.Dial[string](addr, netreg.WithTimeout(100*time.Millisecond), netreg.WithRPCStats(rpc))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, _, err = c.ReadErr(0)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("read against a stalled server succeeded")
	}
	if !errors.Is(err, netreg.ErrTimeout) {
		t.Fatalf("read error = %v; want errors.Is(err, ErrTimeout)", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timed-out read took %v; deadline was 100ms", elapsed)
	}
	if got := rpc.Timeouts(obs.RPCRead); got != 1 {
		t.Fatalf("read timeouts counted = %d, want 1", got)
	}
	if got := rpc.Ok(obs.RPCRead); got != 0 {
		t.Fatalf("read oks counted = %d, want 0", got)
	}

	// The broken connection (a partial frame may be in flight) is
	// discarded, never resynchronized: the next round trip reconnects —
	// and against a still-stalled server times out afresh rather than
	// silently succeeding on a desynchronized stream.
	if _, err := c.WriteErr("x"); err == nil {
		t.Fatal("round trip against a still-stalled server succeeded")
	}
	if ok, _ := rpc.Reconnects(); ok != 1 {
		t.Fatalf("reconnects recorded = %d, want 1 (the discarded conn's replacement)", ok)
	}
}

// TestTimeoutCountsWrites covers the write path's timeout accounting.
func TestTimeoutCountsWrites(t *testing.T) {
	addr := stalledServer(t)
	rpc := obs.NewRPC()
	c, err := netreg.Dial[int](addr, netreg.WithTimeout(100*time.Millisecond), netreg.WithRPCStats(rpc))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.WriteErr(7); !errors.Is(err, netreg.ErrTimeout) {
		t.Fatalf("write error = %v; want ErrTimeout", err)
	}
	if got := rpc.Timeouts(obs.RPCWrite); got != 1 {
		t.Fatalf("write timeouts counted = %d, want 1", got)
	}
}

// TestRPCStatsHealthyPath checks that instrumented round trips against a
// live server count as ok with sane latencies.
func TestRPCStatsHealthyPath(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rpc := obs.NewRPC()
	reg, err := netreg.NewReg[int](srv.Addr(), 2, netreg.WithTimeout(5*time.Second), netreg.WithRPCStats(rpc))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	reg.Write(41)
	for p := 0; p < 2; p++ {
		if got := reg.Read(p); got != 41 {
			t.Fatalf("port %d read %d, want 41", p, got)
		}
	}
	s := rpc.Snapshot()
	if rpc.Ok(obs.RPCRead) != 2 || rpc.Ok(obs.RPCWrite) != 1 {
		t.Fatalf("counts = %+v, want 2 reads / 1 write ok", s)
	}
	if rpc.Timeouts(obs.RPCRead)+rpc.Timeouts(obs.RPCWrite)+rpc.Errors(obs.RPCRead)+rpc.Errors(obs.RPCWrite) != 0 {
		t.Fatalf("unexpected failures: %+v", s)
	}
	for _, op := range s.Ops {
		if op.Ok > 0 && op.Latency.Count != op.Ok {
			t.Fatalf("op %s latency count %d != ok count %d", op.Op, op.Latency.Count, op.Ok)
		}
	}
}

// TestStalledServerBoundsGoroutines pins that timed-out round trips leak
// nothing: each attempt against a server that never replies times out,
// fails its connection and redials for the next, and the connection's
// goroutines go with it.
func TestStalledServerBoundsGoroutines(t *testing.T) {
	addr := stalledServer(t)
	base := runtime.NumGoroutine()
	c, err := netreg.Dial[string](addr, netreg.WithTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, _, err := c.ReadErr(0); !errors.Is(err, netreg.ErrTimeout) {
			t.Fatalf("attempt %d: error = %v, want ErrTimeout", i, err)
		}
	}
	// One live connection holds a dispatcher and a reader, plus the stalled
	// server's goroutine for it; a leak of a connection's goroutines per
	// attempt would pass the slack within a few attempts.
	if g := runtime.NumGoroutine(); g > base+20 {
		t.Errorf("goroutines grew %d -> %d over 20 timed-out attempts", base, g)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+4 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base+4 {
		t.Errorf("goroutines did not drain after Close: %d -> %d", base, g)
	}
}
