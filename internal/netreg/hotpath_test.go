package netreg_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/netreg"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestWorkerModels runs a concurrent mixed workload down one pipelined
// connection and checks the server's answers: every write applied
// exactly once (distinct stamps, authoritative counter matches), every
// read well-formed. The server has one worker model, the inline loop
// that applies each request on its connection's read goroutine; the
// subtest is named for it.
func TestWorkerModels(t *testing.T) {
	t.Run("inline", serveMixedWorkload)
}

func serveMixedWorkload(t *testing.T) {
	st, err := netreg.NewStore("init", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := netreg.Serve("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := netreg.Dial[string](srv.Addr(), netreg.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const (
		goroutines = 8
		opsEach    = 50
	)
	stampCh := make(chan int64, goroutines*opsEach)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				if i%2 == 0 {
					s, err := c.WriteErr(fmt.Sprintf("g%d-i%d", g, i))
					if err != nil {
						t.Errorf("write: %v", err)
						return
					}
					stampCh <- s
				} else {
					v, _, err := c.ReadErr(0)
					if err != nil {
						t.Errorf("read: %v", err)
						return
					}
					if v == "" {
						t.Error("read returned an empty value")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stampCh)

	seen := make(map[int64]bool)
	n := 0
	for s := range stampCh {
		if seen[s] {
			t.Fatalf("stamp %d minted twice — a write applied twice", s)
		}
		seen[s] = true
		n++
	}
	if want := goroutines * opsEach / 2; n != want {
		t.Fatalf("collected %d write stamps, want %d", n, want)
	}
	if got := st.Counters().Writes(); got != int64(goroutines*opsEach/2) {
		t.Fatalf("server applied %d writes, want %d", got, goroutines*opsEach/2)
	}
}

// TestManyConnectionsOneRegister hammers one register from many separate
// connections, so writes from different connection goroutines contend on
// the register's write lock: every write must still be applied exactly
// once with its own stamp, and dedup must keep working under that
// contention (a retransmission is answered with its original stamp, not
// re-applied).
func TestManyConnectionsOneRegister(t *testing.T) {
	st, err := netreg.NewStore(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := netreg.Serve("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const (
		clients   = 8
		writesPer = 200
	)
	stampCh := make(chan int64, clients*writesPer)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := netreg.Dial[int](srv.Addr(), netreg.WithTimeout(5*time.Second))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < writesPer; i++ {
				s, err := c.WriteErr(g*writesPer + i)
				if err != nil {
					t.Errorf("write: %v", err)
					return
				}
				stampCh <- s
			}
		}(g)
	}
	wg.Wait()
	close(stampCh)

	seen := make(map[int64]bool)
	for s := range stampCh {
		if seen[s] {
			t.Fatalf("stamp %d minted twice", s)
		}
		seen[s] = true
	}
	if got := st.Counters().Writes(); got != clients*writesPer {
		t.Fatalf("writes applied = %d, want %d", got, clients*writesPer)
	}

	// Dedup on the same register: a retransmitted frame (same client id
	// and seq) must be answered from the window, not applied again.
	rc := dialRaw(t, srv.Addr())
	frame := wire.Request{Op: "write", Val: json.RawMessage("-1"), Client: "dup", Seq: 1}
	first := rc.exchange(frame)
	retry := rc.exchange(frame)
	if first.Err != "" || first.Stamp != retry.Stamp {
		t.Fatalf("retransmission got stamp %d, original %d (err %q)", retry.Stamp, first.Stamp, first.Err)
	}
	if got := st.Counters().Writes(); got != clients*writesPer+1 {
		t.Fatalf("writes after dedup probe = %d, want %d", got, clients*writesPer+1)
	}
}

// TestDedupSurvivesPipelinedRetryStorm is the windowed-dedup stress:
// more total writes than DefaultDedupWindow pushed through one pipelined
// connection by many concurrent callers, over a seeded faulty link that
// forces timeout/reconnect/retry storms (one dropped frame fails every
// in-flight call on the connection over to its own retry). At-most-once
// must hold for every write — and because concurrent in-flight depth
// stays far below the window, no retry may ever be refused as stale.
func TestDedupSurvivesPipelinedRetryStorm(t *testing.T) {
	srv, err := netreg.NewServer("127.0.0.1:0", 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Fault decisions are per syscall, and the pipelined transport
	// coalesces a burst of frames into one Write — so a single drop loses
	// a whole batch of in-flight writes at once, which is exactly the
	// storm under test.
	plan := &faultnet.Plan{Seed: 7, DropProb: 0.05, SeverProb: 0.02}
	rpc := obs.NewRPC()
	c, err := netreg.Dial[int](srv.Addr(),
		netreg.WithDialer(plan.Dialer()),
		netreg.WithTimeout(100*time.Millisecond),
		netreg.WithRetry(netreg.RetryPolicy{Attempts: 30, Backoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond}),
		netreg.WithRPCStats(rpc))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// 64 concurrent callers × 70 writes = 4480 > DefaultDedupWindow
	// (4096), so the per-client window wraps during the run while depth
	// stays ≈64 ≪ window.
	const (
		callers   = 64
		writesPer = 70
		total     = callers * writesPer
	)
	if total <= netreg.DefaultDedupWindow {
		t.Fatalf("workload %d does not exceed the dedup window %d; the test proves nothing", total, netreg.DefaultDedupWindow)
	}
	stampCh := make(chan int64, total)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < writesPer; i++ {
				s, err := c.WriteErr(g*writesPer + i)
				if err != nil {
					// Any error is a failure: a "stale" refusal here
					// would be a false rejection (depth ≪ window), and a
					// transport error means the retry budget was sized
					// wrong for the seeded plan.
					t.Errorf("write through retry storm: %v", err)
					return
				}
				stampCh <- s
			}
		}(g)
	}
	wg.Wait()
	close(stampCh)
	if t.Failed() {
		return
	}

	seen := make(map[int64]bool)
	for s := range stampCh {
		if seen[s] {
			t.Fatalf("stamp %d minted twice — a retried write applied twice", s)
		}
		seen[s] = true
	}
	if len(seen) != total {
		t.Fatalf("collected %d stamps, want %d", len(seen), total)
	}
	if got := srv.Store().Counters().Writes(); got != total {
		t.Fatalf("server applied %d writes, client issued %d", got, total)
	}
	if plan.Stats().Total() == 0 {
		t.Fatal("the seeded plan injected no faults; the test proved nothing")
	}
	if rpc.Retries(obs.RPCWrite) == 0 {
		t.Fatal("no write retries recorded despite injected faults")
	}
}
