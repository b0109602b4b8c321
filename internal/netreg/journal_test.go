package netreg_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/linz"
	"repro/internal/netreg"
	"repro/internal/obs"
)

// TestJournalInlineCertified taps a single-connection serial workload on
// the inline worker model and proves the drained journal certifies
// linearizable end to end.
func TestJournalInlineCertified(t *testing.T) {
	j := obs.NewJournal()
	srv, err := netreg.NewServer("127.0.0.1:0", "v0", 1, nil, netreg.WithJournal(j))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := netreg.AddRegister(srv.Store(), "other", "o0", 1, nil); err != nil {
		t.Fatal(err)
	}

	c, err := netreg.Dial[string](srv.Addr(), netreg.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := netreg.Dial[string](srv.Addr(), netreg.WithTimeout(5*time.Second), netreg.WithRegister("other"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := c.WriteErr(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.ReadErr(0); err != nil {
			t.Fatal(err)
		}
		if _, err := c2.WriteErr(fmt.Sprintf("o%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	c2.Close()
	srv.Close() // closes conns → taps close → horizon unbounded

	if j.Drops() != 0 {
		t.Fatalf("journal dropped %d records", j.Drops())
	}
	h := linz.NewHistory()
	total := 0
	for _, s := range j.Sources() {
		s.Drain(func(r obs.Rec) {
			total++
			kind := linz.Read
			if r.Kind == obs.JWrite {
				kind = linz.Write
			}
			h.Add(j.KeyName(r.Key), linz.Op{
				Inv: r.Inv, Res: r.Res, Val: r.Val, Client: r.Client, Kind: kind,
			})
		})
	}
	if total != 3*n {
		t.Fatalf("journaled %d ops, want %d", total, 3*n)
	}
	rep := linz.Check(h, linz.Options{Timeout: 10 * time.Second})
	if rep.Verdict != linz.Ok {
		t.Fatalf("journal of a real run not certified: %v (%+v)", rep.Verdict, rep.Failures)
	}
	if rep.Keys != 2 {
		t.Fatalf("keys = %d, want the default and the named register", rep.Keys)
	}
}

// TestJournalWorkerModelsOnline runs concurrent pipelined traffic against
// the gated tap on each dispatching worker model with the online checker
// live, asserting every op is journaled, checked, and certified.
func TestJournalWorkerModelsOnline(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"pool4", 4},
		{"per-request", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := obs.NewJournal()
			tally := obs.NewLinz()
			st, err := netreg.NewStore("init", 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := netreg.Serve("127.0.0.1:0", st,
				netreg.WithWorkers(tc.workers), netreg.WithJournal(j))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			ol := linz.NewOnline(j, linz.OnlineOptions{Interval: 2 * time.Millisecond, Tally: tally})
			ol.Start()

			const (
				clients = 3
				opsEach = 120
			)
			var wg sync.WaitGroup
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					c, err := netreg.Dial[string](srv.Addr(), netreg.WithTimeout(5*time.Second))
					if err != nil {
						t.Error(err)
						return
					}
					defer c.Close()
					for i := 0; i < opsEach; i++ {
						if i%2 == 0 {
							if _, err := c.WriteErr(fmt.Sprintf("g%d-i%d", g, i)); err != nil {
								t.Error(err)
								return
							}
						} else if _, _, err := c.ReadErr(0); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			srv.Close() // taps close → final sweep sees an unbounded horizon
			ol.Stop()

			if f := ol.FirstFailure(); f != nil {
				t.Fatalf("live traffic failed certification: %s (%+v)", f.Reason, f)
			}
			snap := tally.Snapshot()
			if snap.OpsChecked != clients*opsEach {
				t.Fatalf("checked %d ops, want %d (drops=%d shed=%d)",
					snap.OpsChecked, clients*opsEach, j.Drops(), snap.ShedOps)
			}
			if snap.WindowsViolation != 0 || snap.WindowsUndecided != 0 {
				t.Fatalf("windows ok/violation/undecided = %d/%d/%d",
					snap.WindowsOK, snap.WindowsViolation, snap.WindowsUndecided)
			}
		})
	}
}

// TestJournalGatedTapConcurrentOps opens several connections to each of
// two named registers on each dispatching worker model and fires
// concurrent pipelined ops down every one from the start, so a
// connection's first records are built on different workers at once.
// Building a record interns the register name in the connection's
// source; under -race this fails unless the gated tap does that under its
// lock. Every op must still be journaled, with nothing dropped.
func TestJournalGatedTapConcurrentOps(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"pool4", 4},
		{"per-request", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := obs.NewJournal()
			st, err := netreg.NewStore("a0", 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := netreg.AddRegister(st, "b", "b0", 1, nil); err != nil {
				t.Fatal(err)
			}
			srv, err := netreg.Serve("127.0.0.1:0", st,
				netreg.WithWorkers(tc.workers), netreg.WithJournal(j))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			const (
				connsPerReg = 4
				callers     = 4
				opsEach     = 20
			)
			var clients []*netreg.Client[string]
			for k := 0; k < connsPerReg; k++ {
				for _, reg := range []string{"", "b"} {
					opts := []netreg.DialOption{netreg.WithTimeout(5 * time.Second)}
					if reg != "" {
						opts = append(opts, netreg.WithRegister(reg))
					}
					c, err := netreg.Dial[string](srv.Addr(), opts...)
					if err != nil {
						t.Fatal(err)
					}
					clients = append(clients, c)
				}
			}
			var wg sync.WaitGroup
			for ci, c := range clients {
				for g := 0; g < callers; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < opsEach; i++ {
							var err error
							if i%2 == 0 {
								_, err = c.WriteErr(fmt.Sprintf("c%d-g%d-i%d", ci, g, i))
							} else {
								_, _, err = c.ReadErr(0)
							}
							if err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
			}
			wg.Wait()
			for _, c := range clients {
				c.Close()
			}
			srv.Close() // taps close once their workers drain

			if j.Drops() != 0 {
				t.Fatalf("journal dropped %d records", j.Drops())
			}
			total := 0
			for _, s := range j.Sources() {
				s.Drain(func(obs.Rec) { total++ })
			}
			if want := len(clients) * callers * opsEach; total != want {
				t.Fatalf("journaled %d ops, want %d", total, want)
			}
		})
	}
}

// TestJournalFlagsDedupReplays re-sends an applied write (same client
// and seq — what a retrying client does after losing a response) and
// checks the replay is journaled flagged: the original record already
// carries the write's true interval, and an unflagged replay would let
// checkers condemn correct runs for a second write effect that never
// happened.
func TestJournalFlagsDedupReplays(t *testing.T) {
	j := obs.NewJournal()
	srv, err := netreg.NewServer("127.0.0.1:0", "v0", 1, nil, netreg.WithJournal(j))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	frame := `{"op":"write","val":"x","client":"c1","seq":1}` + "\n"
	br := bufio.NewReader(conn)
	for i := 0; i < 2; i++ {
		if _, err := io.WriteString(conn, frame); err != nil {
			t.Fatal(err)
		}
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	srv.Close()

	var fresh, dup int
	for _, s := range j.Sources() {
		s.Drain(func(r obs.Rec) {
			if r.Kind != obs.JWrite {
				return
			}
			if r.Flags&obs.JDup != 0 {
				dup++
			} else if r.Flags == 0 {
				fresh++
			}
		})
	}
	if fresh != 1 || dup != 1 {
		t.Fatalf("journaled %d fresh + %d dup write records, want 1 + 1", fresh, dup)
	}
}

// TestJournalFlagsRefusedOps checks that a refused operation is
// journaled with the error flag so checkers skip it.
func TestJournalFlagsRefusedOps(t *testing.T) {
	j := obs.NewJournal()
	srv, err := netreg.NewServer("127.0.0.1:0", "v0", 1, nil, netreg.WithJournal(j))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := netreg.Dial[string](srv.Addr(),
		netreg.WithTimeout(5*time.Second), netreg.WithRegister("no-such-register"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteErr("x"); err == nil {
		t.Fatal("write to unknown register succeeded")
	}
	c.Close()
	srv.Close()

	var flagged int
	for _, s := range j.Sources() {
		s.Drain(func(r obs.Rec) {
			if r.Flags&obs.JErr != 0 {
				flagged++
			}
		})
	}
	if flagged == 0 {
		t.Fatal("refused op not journaled with JErr")
	}
}
