package netreg_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/history"
	"repro/internal/netreg"
	"repro/internal/obs"
	"repro/internal/proof"
	"repro/internal/wire"
)

// TestPipelineDepthOverlaps proves the client actually pipelines: a
// hand-rolled server withholds every response until it has read depth
// requests off the one connection, so the test deadlocks unless depth
// operations can be in flight simultaneously — a serial round-trip client
// would send one frame and wait forever. The in-flight gauge must reach
// exactly depth.
func TestPipelineDepthOverlaps(t *testing.T) {
	const depth = 8
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	srvErr := make(chan error, 1)
	go func() {
		srvErr <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			rd := wire.NewReader(bufio.NewReader(conn))
			bw := bufio.NewWriter(conn)
			wr := wire.NewWriter(bw)
			var reqs []wire.Request
			for len(reqs) < depth {
				var req wire.Request
				if err := rd.ReadRequest(&req); err != nil {
					return fmt.Errorf("reading request %d: %w", len(reqs), err)
				}
				reqs = append(reqs, req)
			}
			for i, req := range reqs {
				resp := wire.Response{ID: req.ID, Stamp: int64(i + 1)}
				if err := wr.WriteResponse(&resp); err != nil {
					return err
				}
			}
			return bw.Flush()
		}()
	}()

	ws := obs.NewWire()
	c, err := netreg.Dial[int](ln.Addr().String(),
		netreg.WithTimeout(5*time.Second),
		netreg.WithWireStats(ws))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.WriteErr(i); err != nil {
				t.Errorf("pipelined write %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	if p := ws.InFlightPeak(); p != depth {
		t.Fatalf("in-flight peak = %d, want %d (all ops must overlap)", p, depth)
	}
	if in, out := ws.Frames(); in != depth || out != depth {
		t.Fatalf("frames = %d in / %d out, want %d/%d", in, out, depth, depth)
	}
	if in, out := ws.Bytes(); in == 0 || out == 0 {
		t.Fatalf("bytes = %d in / %d out, want both nonzero", in, out)
	}
}

// TestPipelinedHammerCertified is the satellite's race test: N goroutines
// hammer one Reg over a single pipelined connection per server, and the
// resulting two-writer run must certify atomic — pipelining may reorder
// transport frames, but stamps are assigned server-side inside each
// register's critical section, so the history is as linearizable as a
// per-connection run's. Run under -race this also shakes the writer and
// reader goroutines' synchronization.
func TestPipelinedHammerCertified(t *testing.T) {
	const readers = 4
	seq := new(history.Sequencer)
	type val = core.Tagged[string]
	init := val{Val: "v0"}

	srv0, err := netreg.NewServer("127.0.0.1:0", init, readers+1, seq)
	if err != nil {
		t.Fatal(err)
	}
	defer srv0.Close()
	srv1, err := netreg.NewServer("127.0.0.1:0", init, readers+1, seq)
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()

	// One pipelined connection per server carries every port's traffic.
	r0, err := netreg.NewSharedReg[val](srv0.Addr(), readers+1, netreg.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer r0.Close()
	r1, err := netreg.NewSharedReg[val](srv1.Addr(), readers+1, netreg.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()

	tw := core.New(readers, "v0",
		core.WithRegisters[string](r0, r1),
		core.WithSequencer[string](seq),
		core.WithRecording[string]())
	if !tw.Certifiable() {
		t.Fatal("shared-connection registers should be certifiable")
	}

	const opsPer = 40
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := tw.Writer(i)
			for k := 0; k < opsPer; k++ {
				w.Write(fmt.Sprintf("w%d-%d", i, k))
			}
		}(i)
	}
	for j := 1; j <= readers; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			r := tw.Reader(j)
			for k := 0; k < opsPer; k++ {
				_ = r.Read()
			}
		}(j)
	}
	wg.Wait()

	lin, err := proof.Certify(tw.Recorder().Trace("v0"))
	if err != nil {
		t.Fatalf("pipelined run failed certification: %v", err)
	}
	if got := lin.Report.PotentWrites + lin.Report.ImpotentWrites; got != 2*opsPer {
		t.Fatalf("classified %d writes, want %d", got, 2*opsPer)
	}
}

// TestPipelinedRetryNoDoubleApply is the regression for retry × pipelining:
// over a link that drops and severs at seeded points, concurrent writers
// pipeline over ONE connection, every transport failure fails the whole
// connection (sending every in-flight request to its own retry), and a
// retried request re-sends its original sequence number — so the server's
// counters must show every logical write applied exactly once, no matter
// how many times its frame crossed the wire.
func TestPipelinedRetryNoDoubleApply(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	plan := &faultnet.Plan{Seed: 23, DropProb: 0.2, SeverProb: 0.05}
	rpc := obs.NewRPC()
	c, err := netreg.Dial[int](srv.Addr(),
		netreg.WithDialer(plan.Dialer()),
		netreg.WithTimeout(200*time.Millisecond),
		netreg.WithRetry(netreg.RetryPolicy{Attempts: 20, Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond}),
		netreg.WithRPCStats(rpc))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers, perWorker = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				if _, err := c.WriteErr(w*1000 + k); err != nil {
					t.Errorf("worker %d write %d: %v", w, k, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if n := srv.Store().Counters().Writes(); n != workers*perWorker {
		t.Fatalf("server applied %d writes, want exactly %d (retries must not double-apply)",
			n, workers*perWorker)
	}
	s := rpc.Snapshot()
	var retries int64
	for _, op := range s.Ops {
		retries += op.Retries
	}
	if retries == 0 {
		t.Fatal("faulty link produced zero retries; fault injection not exercised")
	}
	t.Logf("recovered: %d retries, %d reconnects",
		retries, s.Recovery.ReconnectOK+s.Recovery.ReconnectFail)
}

// TestGarbledBinaryFramesRecover aims bit corruption at the binary
// transport: every garbled Write flips byte 0 of the batch, which is the
// high byte of a length prefix, turning it into a length beyond
// wire.MaxFrame — so the receiver rejects the batch wholesale instead of
// ever applying a corrupted frame, the link drops, and the client's
// retries (original sequence numbers, deduplicated server-side) land
// every write exactly once with its bytes intact.
func TestGarbledBinaryFramesRecover(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", "", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	plan := &faultnet.Plan{Seed: 7, GarbleProb: 0.25}
	c, err := netreg.Dial[string](srv.Addr(),
		netreg.WithDialer(plan.Dialer()),
		netreg.WithTimeout(200*time.Millisecond),
		netreg.WithRetry(netreg.RetryPolicy{Attempts: 20, Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const writes = 30
	for i := 0; i < writes; i++ {
		if _, err := c.WriteErr(fmt.Sprintf("v%02d", i)); err != nil {
			t.Fatalf("write %d through garbling link: %v", i, err)
		}
	}
	if n := plan.Stats().Injected[faultnet.FaultGarble.String()]; n == 0 {
		t.Fatal("no garbles injected; corruption not exercised")
	}
	if n := srv.Store().Counters().Writes(); n != writes {
		t.Fatalf("server applied %d writes, want exactly %d", n, writes)
	}

	// Read back over a clean connection: the value that survived must be
	// the last write, byte-for-byte — corruption may cost retries, never
	// integrity.
	clean, err := netreg.Dial[string](srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	v, _, err := clean.ReadErr(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("v%02d", writes-1); v != want {
		t.Fatalf("final value = %q, want %q (corrupted write applied)", v, want)
	}
}

// TestMultiRegisterHosting exercises the store's named registers: one
// listener, several independent registers, per-register isolation of
// values, counters, and dedup state — plus the unknown-register error.
func TestMultiRegisterHosting(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", "default-v", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	st := srv.Store()
	for _, name := range []string{"alpha", "beta"} {
		if err := netreg.AddRegister(st, name, "init-"+name, 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := netreg.AddRegister(st, "alpha", "dup", 1, nil); err == nil {
		t.Fatal("duplicate AddRegister succeeded")
	}
	if got := st.Registers(); !(len(got) == 3 && got[0] == "" && got[1] == "alpha" && got[2] == "beta") {
		t.Fatalf("Registers() = %q", got)
	}

	dial := func(reg string) *netreg.Client[string] {
		c, err := netreg.Dial[string](srv.Addr(), netreg.WithRegister(reg))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	def, alpha, beta := dial(""), dial("alpha"), dial("beta")

	if _, err := alpha.WriteErr("alpha-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := beta.WriteErr("beta-1"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		c    *netreg.Client[string]
		want string
	}{{def, "default-v"}, {alpha, "alpha-1"}, {beta, "beta-1"}} {
		v, _, err := tc.c.ReadErr(0)
		if err != nil {
			t.Fatal(err)
		}
		if v != tc.want {
			t.Fatalf("read = %q, want %q (registers must be isolated)", v, tc.want)
		}
	}
	if n := st.RegisterCounters("alpha").Writes(); n != 1 {
		t.Fatalf("alpha writes = %d, want 1", n)
	}
	if n := st.RegisterCounters("").Writes(); n != 0 {
		t.Fatalf("default register writes = %d, want 0", n)
	}
	if st.RegisterCounters("nope") != nil {
		t.Fatal("counters for unknown register should be nil")
	}

	ghost := dial("no-such-register")
	if _, err := ghost.WriteErr("x"); err == nil || !strings.Contains(err.Error(), "unknown register") {
		t.Fatalf("write to unknown register: err = %v, want unknown-register error", err)
	}
	if _, _, err := ghost.ReadErr(0); err == nil || !strings.Contains(err.Error(), "unknown register") {
		t.Fatalf("read of unknown register: err = %v, want unknown-register error", err)
	}
	// The error reply is survivable: the same connection still serves a
	// well-aimed client afterwards (exercised via def above on the same
	// listener, and here the ghost client can be re-aimed only by
	// redialing, so just check the link did not die).
	if _, err := ghost.WriteErr("y"); err == nil || !strings.Contains(err.Error(), "unknown register") {
		t.Fatalf("second write on same conn: err = %v, want unknown-register error (conn must survive)", err)
	}
}

// TestMultiRegisterFanOutCertified hosts both protocol registers as named
// instances on ONE listener and runs the certified two-writer protocol
// across them — the multi-register analog of the two-server test, sharing
// one sequencer through one Store.
func TestMultiRegisterFanOutCertified(t *testing.T) {
	const readers = 2
	seq := new(history.Sequencer)
	type val = core.Tagged[string]
	init := val{Val: "v0"}

	st, err := netreg.NewStore(init, readers+1, seq)
	if err != nil {
		t.Fatal(err)
	}
	if err := netreg.AddRegister(st, "node1", init, readers+1, seq); err != nil {
		t.Fatal(err)
	}
	srv, err := netreg.Serve("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	r0, err := netreg.NewSharedReg[val](srv.Addr(), readers+1, netreg.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer r0.Close()
	r1, err := netreg.NewSharedReg[val](srv.Addr(), readers+1,
		netreg.WithTimeout(5*time.Second), netreg.WithRegister("node1"))
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()

	tw := core.New(readers, "v0",
		core.WithRegisters[string](r0, r1),
		core.WithSequencer[string](seq),
		core.WithRecording[string]())

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := tw.Writer(i)
			for k := 0; k < 20; k++ {
				w.Write(fmt.Sprintf("w%d-%d", i, k))
			}
		}(i)
	}
	for j := 1; j <= readers; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			r := tw.Reader(j)
			for k := 0; k < 20; k++ {
				_ = r.Read()
			}
		}(j)
	}
	wg.Wait()

	if _, err := proof.Certify(tw.Recorder().Trace("v0")); err != nil {
		t.Fatalf("one-listener two-register run failed certification: %v", err)
	}
}
