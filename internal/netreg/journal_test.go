package netreg_test

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/linz"
	"repro/internal/netreg"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestJournalInlineCertified taps a serial workload on two connections
// and proves the drained journal certifies linearizable end to end.
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

	rc := dialRaw(t, srv.Addr())
	frame := wire.Request{Op: "write", Val: json.RawMessage(`"x"`), Client: "c1", Seq: 1}
	for i := 0; i < 2; i++ {
		if resp := rc.exchange(frame); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	rc.conn.Close()
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
