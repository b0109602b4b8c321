package replica_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/history"
	"repro/internal/linz"
	"repro/internal/netreg"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/wire"
)

// cluster is an m-replica test fixture: independent stores, one server
// each, with a per-replica journal.
type cluster struct {
	addrs    []string
	servers  []*netreg.Server
	journals []*obs.Journal
}

func startCluster(t *testing.T, m int, initial string) *cluster {
	t.Helper()
	c := &cluster{}
	for i := 0; i < m; i++ {
		st, err := netreg.NewStore(initial, 1, new(history.Sequencer))
		if err != nil {
			t.Fatal(err)
		}
		j := obs.NewJournal()
		srv, err := netreg.Serve("127.0.0.1:0", st, netreg.WithJournal(j))
		if err != nil {
			t.Fatal(err)
		}
		c.addrs = append(c.addrs, srv.Addr())
		c.servers = append(c.servers, srv)
		c.journals = append(c.journals, j)
	}
	t.Cleanup(func() {
		for _, srv := range c.servers {
			srv.Close()
		}
	})
	return c
}

// kill permanently crashes replica i: the listener closes and every live
// connection is severed; nothing restarts it.
func (c *cluster) kill(i int) { c.servers[i].Close() }

func fastOpts() []netreg.DialOption {
	return []netreg.DialOption{
		netreg.WithTimeout(300 * time.Millisecond),
		netreg.WithRetry(netreg.RetryPolicy{Attempts: 3, Backoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}),
	}
}

// fastTimeout is the engine phase timeout the in-process tests run with:
// long enough that a local round trip never trips it, short enough that
// failure tests stay fast.
const fastTimeout = 300 * time.Millisecond

// TestQuorumModesReadWrite drives each protocol variant through writes
// and reads on a healthy cluster: reads return the latest written value
// and stamps never regress.
func TestQuorumModesReadWrite(t *testing.T) {
	for _, mode := range []replica.Mode{replica.ModeABD, replica.ModeFast} {
		t.Run(mode.String(), func(t *testing.T) {
			c := startCluster(t, 3, "v0")
			q, err := replica.Dial(c.addrs, replica.Options{Mode: mode, WriterID: 1, Timeout: fastTimeout})
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()

			var lastTS int64
			var lastWID uint32
			for k := 0; k < 10; k++ {
				want, _ := json.Marshal(fmt.Sprintf("v%d", k+1))
				ts, wid, err := q.WriteStamped(want)
				if err != nil {
					t.Fatalf("write %d: %v", k, err)
				}
				if !stampAfter(ts, wid, lastTS, lastWID) {
					t.Fatalf("write %d stamp (%d,%d) not after (%d,%d)", k, ts, wid, lastTS, lastWID)
				}
				lastTS, lastWID = ts, wid
				got, rts, rwid, err := q.ReadStamped()
				if err != nil {
					t.Fatalf("read %d: %v", k, err)
				}
				if string(got) != string(want) {
					t.Fatalf("read %d = %s, want %s", k, got, want)
				}
				if rts != lastTS || rwid != lastWID {
					t.Fatalf("read %d stamp (%d,%d), want (%d,%d)", k, rts, rwid, lastTS, lastWID)
				}
			}
		})
	}
}

// TestOpRightAfterDial issues a write and a read the instant Dial
// returns, many times over, in every mode. None may fail: Dial must hand
// back a client whose connections already count as up, not one whose
// dispatchers have yet to mark them (an op that beat them failed at once
// with ErrNoQuorum).
func TestOpRightAfterDial(t *testing.T) {
	c := startCluster(t, 3, "v0")
	modes := []replica.Mode{replica.ModeABD, replica.ModeFast}
	for k := 0; k < 300; k++ {
		mode := modes[k%len(modes)]
		q, err := replica.Dial(c.addrs, replica.Options{Mode: mode, WriterID: 1, Timeout: fastTimeout})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(fmt.Sprintf("v%d", k+1))
		_, _, werr := q.WriteStamped(want)
		got, rerr := q.Read()
		q.Close()
		if werr != nil {
			t.Fatalf("dial %d (%v): write right after Dial: %v", k, mode, werr)
		}
		if rerr != nil {
			t.Fatalf("dial %d (%v): read: %v", k, mode, rerr)
		}
		if string(got) != string(want) {
			t.Fatalf("dial %d (%v): read %s, want %s", k, mode, got, want)
		}
	}
}

func stampAfter(ts int64, wid uint32, ts2 int64, wid2 uint32) bool {
	return ts > ts2 || (ts == ts2 && wid > wid2)
}

// TestFastPathOneRound pins the ModeFast contract: once every replica
// agrees on (ts, wid), a read completes in one round; while any replica
// lags, the read pays the write-back.
func TestFastPathOneRound(t *testing.T) {
	c := startCluster(t, 3, "v0")
	tally := obs.NewReplica(3)
	q, err := replica.Dial(c.addrs, replica.Options{Mode: replica.ModeFast, WriterID: 1, Tally: tally, Timeout: fastTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	val, _ := json.Marshal("converged")
	ts, wid, err := q.WriteStamped(val)
	if err != nil {
		t.Fatal(err)
	}

	// Force-converge every replica (a logical write only reaches a
	// majority), then the fast path is deterministic.
	for _, addr := range c.addrs {
		cl, err := netreg.Dial[json.RawMessage](addr, fastOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Do(&wire.Request{Op: "qwrite", TS: ts, WID: wid, Val: val}); err != nil {
			t.Fatal(err)
		}
		cl.Close()
	}

	got, err := q.Read()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(val) {
		t.Fatalf("fast read = %s, want %s", got, val)
	}
	if f := tally.Fast(obs.QRead); f != 1 {
		t.Errorf("fast-path reads = %d, want 1 (converged cluster must take the one-round path)", f)
	}
	if r := tally.Rounds(obs.QRead); r != 1 {
		t.Errorf("read rounds = %d, want 1", r)
	}
}

// TestCrashSoakQuorumAtomic is the tentpole acceptance test, meant for
// -race: an m=5 cluster with a seeded kill plan crashing f=2 replicas
// permanently mid-stream while two writers and two readers (each pair
// one ABD and one Fast client) hammer the register. Every logical operation must keep succeeding, stamps
// must never regress per client, and the merged per-replica journals
// plus the quorum clients' logical journal must certify atomic online.
func TestCrashSoakQuorumAtomic(t *testing.T) {
	const (
		m            = 5
		f            = 2
		opsPerClient = 60
	)
	c := startCluster(t, m, "v0")
	initJSON, _ := json.Marshal("v0")

	qj := obs.NewJournal()
	tally := obs.NewReplica(m)

	parts := []linz.JournalPart{{J: qj, Prefix: "q/"}}
	for i, j := range c.journals {
		parts = append(parts, linz.JournalPart{J: j, Prefix: fmt.Sprintf("r%d/", i)})
	}
	lt := obs.NewLinz()
	ol := linz.NewOnlineParts(parts, linz.OnlineOptions{Interval: 10 * time.Millisecond, Tally: lt})
	for _, p := range parts {
		ol.SetInit(p.Prefix, obs.HashVal(initJSON))
	}
	ol.Start()

	// A generous phase timeout rides out the kill transients; the engine
	// turns a dead replica's connection into instant local failures while
	// its redial loop backs off, so a crash costs one timeout, not one per
	// exchange.
	modes := []replica.Mode{replica.ModeABD, replica.ModeFast, replica.ModeFast, replica.ModeABD}
	clients := make([]*replica.QClient, len(modes))
	for i, mode := range modes {
		q, err := replica.Dial(c.addrs, replica.Options{
			Mode: mode, WriterID: uint32(i + 1), Journal: qj, Tally: tally,
			Timeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = q
	}

	kills := faultnet.PlanKills(20260808, m, f, 250*time.Millisecond)
	var killed sync.Map
	stop := faultnet.Schedule(kills, func(r int) {
		killed.Store(r, true)
		c.kill(r)
	})
	defer stop()

	var wg sync.WaitGroup
	errs := make(chan error, len(clients))
	for i, q := range clients {
		wg.Add(1)
		go func(i int, q *replica.QClient) {
			defer wg.Done()
			writer := i%2 == 0 // clients 0 and 2 write, 1 and 3 read
			var lastTS int64
			var lastWID uint32
			for k := 0; k < opsPerClient; k++ {
				var ts int64
				var wid uint32
				var err error
				if writer {
					v, _ := json.Marshal(fmt.Sprintf("c%d-%d", i, k))
					ts, wid, err = q.WriteStamped(v)
				} else {
					_, ts, wid, err = q.ReadStamped()
				}
				if err != nil {
					errs <- fmt.Errorf("client %d op %d: %w", i, k, err)
					return
				}
				if ts < lastTS || (ts == lastTS && wid < lastWID) {
					errs <- fmt.Errorf("client %d op %d: stamp regressed (%d,%d) -> (%d,%d)", i, k, lastTS, lastWID, ts, wid)
					return
				}
				lastTS, lastWID = ts, wid
				time.Sleep(2 * time.Millisecond)
			}
			errs <- nil
		}(i, q)
	}
	wg.Wait()
	for range clients {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	stop()

	// The soak must actually have crashed replicas mid-stream.
	nKilled := 0
	killed.Range(func(_, _ any) bool { nKilled++; return true })
	if nKilled != f {
		t.Errorf("%d replicas killed, want %d", nKilled, f)
	}

	// Close all producers so the final sweep checks the full tail, then
	// demand a clean verdict over every journal at once.
	for _, q := range clients {
		q.Close()
	}
	for _, srv := range c.servers {
		srv.Close()
	}
	ol.Stop()
	if fl := ol.FirstFailure(); fl != nil {
		t.Fatalf("merged journals failed certification: %+v", fl)
	}
	if ol.Windows() == 0 {
		t.Fatal("checker never checked a window; the soak certified nothing")
	}
	if qj.Drops() != 0 {
		t.Errorf("client journal dropped %d records; certification incomplete", qj.Drops())
	}
	if tally.NoQuorum(obs.QRead)+tally.NoQuorum(obs.QWrite) != 0 {
		t.Errorf("quorum lost during f<m/2 soak: %d read / %d write no-quorum failures",
			tally.NoQuorum(obs.QRead), tally.NoQuorum(obs.QWrite))
	}
}

// TestNoQuorumFailsFast kills a majority: every logical operation must
// fail with ErrNoQuorum — visible as netreg.ErrUnavailable to transport-
// level tests — in bounded time, never hang.
func TestNoQuorumFailsFast(t *testing.T) {
	c := startCluster(t, 3, "v0")
	q, err := replica.Dial(c.addrs, replica.Options{WriterID: 1, Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	if err := q.Write(json.RawMessage(`"pre"`)); err != nil {
		t.Fatal(err)
	}
	c.kill(0)
	c.kill(1)

	start := time.Now()
	_, rerr := q.Read()
	werr := q.Write(json.RawMessage(`"post"`))
	elapsed := time.Since(start)

	for _, err := range []error{rerr, werr} {
		if err == nil {
			t.Fatal("operation succeeded without a quorum")
		}
		if !errors.Is(err, replica.ErrNoQuorum) {
			t.Errorf("error does not identify as ErrNoQuorum: %v", err)
		}
		if !errors.Is(err, netreg.ErrUnavailable) {
			t.Errorf("error does not identify as netreg.ErrUnavailable: %v", err)
		}
	}
	// Quorum loss must be a fast failure (retry budget + breaker), not a
	// hang: well under the several-second hang a lost phase would cost.
	if elapsed > 5*time.Second {
		t.Errorf("no-quorum failure took %v; want fast failure", elapsed)
	}
}
