package netreg_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/netreg"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestCloseInterruptsHungRoundTrip is the regression test for the Close
// deadlock: a round trip hung on a stalled server (and no WithTimeout to
// save it) must be interrupted by Close, not block it forever.
func TestCloseInterruptsHungRoundTrip(t *testing.T) {
	addr := stalledServer(t)
	c, err := netreg.Dial[string](addr) // deliberately no timeout
	if err != nil {
		t.Fatal(err)
	}

	readDone := make(chan error, 1)
	go func() {
		_, _, err := c.ReadErr(0)
		readDone <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the read hang on the stalled server

	closeDone := make(chan error, 1)
	go func() { closeDone <- c.Close() }()
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked behind the hung round trip")
	}
	select {
	case err := <-readDone:
		if err == nil {
			t.Fatal("hung read returned no error after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not interrupt the in-flight read")
	}
}

// rawConn speaks the binary wire protocol over a bare connection,
// bypassing the client, so a test controls every request field itself —
// the dedup client id and sequence number included.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	wr   *wire.Writer
	rd   *wire.Reader
}

// dialRaw opens a raw protocol connection to addr, closed at test end.
func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{
		t:    t,
		conn: conn,
		wr:   wire.NewWriter(bufio.NewWriter(conn)),
		rd:   wire.NewReader(bufio.NewReader(conn)),
	}
}

// exchange sends one request frame and decodes its reply. The reply's
// value is copied out of the reader's reused frame buffer.
func (rc *rawConn) exchange(req wire.Request) wire.Response {
	rc.t.Helper()
	if err := rc.wr.WriteRequest(&req); err != nil {
		rc.t.Fatalf("send %+v: %v", req, err)
	}
	if err := rc.wr.Flush(); err != nil {
		rc.t.Fatalf("send %+v: %v", req, err)
	}
	var resp wire.Response
	if err := rc.rd.ReadResponse(&resp); err != nil {
		rc.t.Fatalf("reply to %+v: %v", req, err)
	}
	resp.Val = append(json.RawMessage(nil), resp.Val...)
	return resp
}

// TestInvalidWriteValueRejected is the regression test for the unvalidated
// write path: a write with a missing value must get a server error reply —
// not be stored as garbage that poisons every later read of the register.
func TestInvalidWriteValueRejected(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", "good", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rc := dialRaw(t, srv.Addr())
	resp := rc.exchange(wire.Request{Op: "write"})
	if !strings.Contains(resp.Err, "invalid write value") {
		t.Fatalf("write with no value replied %+v, want an invalid-value error", resp)
	}

	// The connection survives, and the register still holds valid JSON.
	resp = rc.exchange(wire.Request{Op: "read", Port: 0})
	if resp.Err != "" {
		t.Fatalf("read after rejected write: %s", resp.Err)
	}
	if got := string(resp.Val); got != `"good"` {
		t.Fatalf("register value after rejected write = %s, want %q", got, `"good"`)
	}
	if n := srv.Store().Counters().Writes(); n != 0 {
		t.Fatalf("rejected write was applied (%d writes)", n)
	}
}

// TestWriteDedupAtMostOnce checks the wire-level at-most-once contract: a
// retransmitted write (same client id and sequence number) is answered
// with its original stamp and applied exactly once. Pipelined clients may
// deliver first arrivals out of order, so an out-of-order-but-new
// sequence number applies normally; only a sequence number the dedup
// window has already evicted is refused.
func TestWriteDedupAtMostOnce(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", "init", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Store().SetDedupWindow(3)
	defer srv.Close()

	rc := dialRaw(t, srv.Addr())
	write := func(val string, client string, seq uint64) wire.Response {
		return rc.exchange(wire.Request{Op: "write", Val: json.RawMessage(val), Client: client, Seq: seq})
	}

	first := write(`"once"`, "c1", 7)
	retried := write(`"once"`, "c1", 7)
	if first.Err != "" || first.Stamp != retried.Stamp {
		t.Fatalf("retried write got stamp %d, original %d (err %q) — applied twice", retried.Stamp, first.Stamp, first.Err)
	}
	if n := srv.Store().Counters().Writes(); n != 1 {
		t.Fatalf("write applied %d times, want exactly once", n)
	}

	// seq 3 arrives after seq 7 — out of order but never seen, so it is a
	// legitimate first arrival (a pipelined burst's frames may be enqueued
	// in any order) and must apply.
	if ooo := write(`"ooo"`, "c1", 3); ooo.Err != "" {
		t.Fatalf("out-of-order first write refused: %s", ooo.Err)
	}
	if n := srv.Store().Counters().Writes(); n != 2 {
		t.Fatalf("writes applied = %d, want 2", n)
	}

	// Push seqs 8 and 9: with a window of 3 holding {3,8,9}, seq 7 has
	// been evicted and a late replay of it can no longer be verified — it
	// must be refused, never re-applied.
	for seq := uint64(8); seq <= 9; seq++ {
		if r := write(`"fill"`, "c1", seq); r.Err != "" {
			t.Fatalf("fill write refused: %s", r.Err)
		}
	}
	if stale := write(`"once"`, "c1", 7); !strings.Contains(stale.Err, "stale") {
		t.Fatalf("evicted-seq replay replied %+v, want a stale error", stale)
	}
	if n := srv.Store().Counters().Writes(); n != 4 {
		t.Fatalf("writes applied = %d, want 4", n)
	}

	// A different client is not confused by c1's dedup state.
	if other := write(`"theirs"`, "c2", 1); other.Err != "" {
		t.Fatalf("other client's write: %s", other.Err)
	}
	if n := srv.Store().Counters().Writes(); n != 5 {
		t.Fatalf("writes applied = %d, want 5", n)
	}
}

// TestRetryRecoversFromFaultyLink is the tentpole end to end at the client
// level: against a link that drops requests and severs at seeded points,
// a retrying client completes every write, each applied exactly once, and
// the tally shows the recovery work.
func TestRetryRecoversFromFaultyLink(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	plan := &faultnet.Plan{Seed: 11, DropProb: 0.25, SeverProb: 0.1}
	rpc := obs.NewRPC()
	c, err := netreg.Dial[int](srv.Addr(),
		netreg.WithDialer(plan.Dialer()),
		netreg.WithTimeout(150*time.Millisecond),
		netreg.WithRetry(netreg.RetryPolicy{Attempts: 12, Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond}),
		netreg.WithRPCStats(rpc))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const writes = 25
	var stamps []int64
	for i := 0; i < writes; i++ {
		s, err := c.WriteErr(i)
		if err != nil {
			t.Fatalf("write %d through faulty link: %v", i, err)
		}
		stamps = append(stamps, s)
	}

	// At most once: the authoritative count matches the issued count, and
	// every stamp is distinct and increasing (a duplicate application
	// would mint a second stamp for the same write).
	if n := srv.Store().Counters().Writes(); n != writes {
		t.Fatalf("server applied %d writes, client issued %d", n, writes)
	}
	for i := 1; i < len(stamps); i++ {
		if stamps[i] <= stamps[i-1] {
			t.Fatalf("stamps not strictly increasing: %v", stamps)
		}
	}
	if v, _, err := c.ReadErr(0); err != nil || v != writes-1 {
		t.Fatalf("final read = %d, %v; want %d", v, err, writes-1)
	}
	if plan.Stats().Total() == 0 {
		t.Fatal("the faulty run injected no faults; the test proved nothing")
	}
	if rpc.Retries(obs.RPCWrite) == 0 {
		t.Fatal("no write retries recorded despite injected faults")
	}
	if ok, _ := rpc.Reconnects(); ok == 0 {
		t.Fatal("no reconnects recorded despite injected severs")
	}
}

// TestBreakerFastFailsAndRecovers walks the breaker's full cycle: trips
// open after consecutive failures, fast-fails with ErrUnavailable while
// open, and closes again once the server is back.
func TestBreakerFastFailsAndRecovers(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	st := srv.Store()

	rpc := obs.NewRPC()
	const cooldown = 150 * time.Millisecond
	c, err := netreg.Dial[int](addr,
		netreg.WithTimeout(100*time.Millisecond),
		netreg.WithBreaker(2, cooldown),
		netreg.WithRPCStats(rpc))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.WriteErr(1); err != nil {
		t.Fatalf("healthy write: %v", err)
	}
	srv.Close()

	// Two consecutive failures trip the breaker...
	for i := 0; i < 2; i++ {
		if _, err := c.WriteErr(2); err == nil {
			t.Fatalf("write %d against a dead server succeeded", i)
		}
	}
	if got := rpc.BreakerOpens(); got != 1 {
		t.Fatalf("breaker opens = %d, want 1", got)
	}
	// ...after which failures are fast (no network, no timeout wait).
	start := time.Now()
	_, err = c.WriteErr(3)
	if !errors.Is(err, netreg.ErrUnavailable) {
		t.Fatalf("open-breaker write error = %v, want ErrUnavailable", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("fast-fail took %v", d)
	}
	if got := rpc.BreakerFastFails(); got == 0 {
		t.Fatal("no fast-fails recorded")
	}

	// Server comes back on the same store; after the cooldown the
	// half-open probe succeeds and the breaker closes.
	srv2, err := netreg.Serve(addr, st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	time.Sleep(cooldown + 20*time.Millisecond)
	if _, err := c.WriteErr(4); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if _, err := c.WriteErr(5); err != nil {
		t.Fatalf("write after breaker closed: %v", err)
	}
	if v, _, err := c.ReadErr(0); err != nil || v != 5 {
		t.Fatalf("final read = %d, %v; want 5", v, err)
	}
}

// TestReadStampedPortBounds is the regression test for the unchecked port
// index: an out-of-range port must panic with a diagnosable message that
// names the port, not a bare index error.
func TestReadStampedPortBounds(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r, err := netreg.NewReg[int](srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for _, port := range []int{-1, 5} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "out of range") || !strings.Contains(msg, "port") {
					t.Fatalf("ReadStamped(%d) panic = %q, want a port-out-of-range message", port, msg)
				}
			}()
			r.ReadStamped(port)
			t.Fatalf("ReadStamped(%d) did not panic", port)
		}()
	}
}

// TestServerRestartPreservesState checks the Store/Serve split: a server
// incarnation can be killed and a new one started over the same store,
// and clients reconnect to the same register contents.
func TestServerRestartPreservesState(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", "v0", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	c, err := netreg.Dial[string](addr,
		netreg.WithTimeout(time.Second),
		netreg.WithRetry(netreg.RetryPolicy{Attempts: 20, Backoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.WriteErr("survives"); err != nil {
		t.Fatal(err)
	}

	st := srv.Store()
	srv.Close()
	srv2, err := netreg.Serve(addr, st)
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()

	v, _, err := c.ReadErr(0)
	if err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	if v != "survives" {
		t.Fatalf("read after restart = %q, want %q", v, "survives")
	}
}
