package obs

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJournalRecordDrain(t *testing.T) {
	j := NewJournal(WithJournalRing(8))
	s := j.Source()
	kid := s.KeyID("reg1")
	if kid != s.KeyID("reg1") {
		t.Fatal("KeyID not stable")
	}
	if name := j.KeyName(kid); name != "reg1" {
		t.Fatalf("KeyName(%d) = %q, want reg1", kid, name)
	}

	for i := 0; i < 5; i++ {
		inv := j.Now()
		s.Begin(inv)
		s.Record(Rec{Inv: inv, Res: inv + 1, Key: kid, Kind: JWrite, Val: uint64(i)})
	}
	if got := s.Pending(); got != 5 {
		t.Fatalf("Pending = %d, want 5", got)
	}
	var recs []Rec
	if n := s.Drain(func(r Rec) { recs = append(recs, r) }); n != 5 {
		t.Fatalf("Drain = %d, want 5", n)
	}
	for i, r := range recs {
		if r.Val != uint64(i) {
			t.Fatalf("rec %d: Val = %d, want %d (out of order?)", i, r.Val, i)
		}
		if r.Client != s.ID() {
			t.Fatalf("rec %d: Client = %d, want %d", i, r.Client, s.ID())
		}
		if r.Inv >= r.Res {
			t.Fatalf("rec %d: Inv %d >= Res %d", i, r.Inv, r.Res)
		}
	}
	if s.Pending() != 0 {
		t.Fatal("ring not empty after drain")
	}
}

func TestJournalDropsWhenFull(t *testing.T) {
	j := NewJournal(WithJournalRing(4))
	s := j.Source()
	for i := 0; i < 10; i++ {
		s.Record(Rec{Inv: int64(i), Res: int64(i) + 1, Kind: JRead})
	}
	if got := s.Drops(); got != 6 {
		t.Fatalf("Drops = %d, want 6", got)
	}
	n := s.Drain(func(Rec) {})
	if n != 4 {
		t.Fatalf("Drain = %d, want 4 (ring capacity)", n)
	}
	// After draining, recording resumes without drops.
	s.Record(Rec{Inv: 100, Res: 101, Kind: JRead})
	if got := s.Drops(); got != 6 {
		t.Fatalf("Drops moved to %d after drain freed the ring", got)
	}
}

func TestJournalHorizon(t *testing.T) {
	j := NewJournal(WithJournalRing(8))
	if h := j.Horizon(); h != lowInvClosed {
		t.Fatalf("empty journal horizon = %d, want unbounded", h)
	}
	a, b := j.Source(), j.Source()
	if h := j.Horizon(); h < 0 || h >= lowInvClosed {
		t.Fatalf("fresh-source horizon = %d, want bounded and non-negative", h)
	}

	// Far-future timestamps dominate the creation-instant bounds, making
	// the remaining expectations deterministic.
	const far = int64(1) << 40
	a.Begin(far + 100)
	b.Begin(far + 50)
	if h := j.Horizon(); h != far+50 {
		t.Fatalf("horizon = %d, want %d (b in flight)", h, far+50)
	}
	b.Record(Rec{Inv: far + 50, Res: far + 120, Kind: JRead})
	if h := j.Horizon(); h != far+100 {
		t.Fatalf("horizon = %d, want %d (a still in flight)", h, far+100)
	}
	a.Record(Rec{Inv: far + 100, Res: far + 150, Kind: JWrite})
	b.Begin(far + 130)
	if h := j.Horizon(); h != far+130 {
		t.Fatalf("horizon = %d, want %d", h, far+130)
	}
	b.Record(Rec{Inv: far + 130, Res: far + 140, Kind: JRead})
	b.Close()
	if h := j.Horizon(); h != far+150 {
		t.Fatalf("horizon = %d, want %d (b closed)", h, far+150)
	}
	a.Close()
	if h := j.Horizon(); h != lowInvClosed {
		t.Fatalf("horizon = %d, want unbounded (all closed)", h)
	}
	// Closed rings remain drainable.
	var n int
	for _, s := range j.Sources() {
		n += s.Drain(func(Rec) {})
	}
	if n != 3 {
		t.Fatalf("drained %d records from closed sources, want 3", n)
	}
}

// TestJournalRemovesFinishedSources pins when a source leaves the
// journal: only once it is closed and fully drained. A closed source
// with records buffered stays drainable, a drained one that is still
// open stays, drops of removed sources still count, and ids are never
// reused.
func TestJournalRemovesFinishedSources(t *testing.T) {
	j := NewJournal(WithJournalRing(1))
	a, b := j.Source(), j.Source()
	a.Record(Rec{Inv: 1, Res: 2, Kind: JRead})
	a.Record(Rec{Inv: 3, Res: 4, Kind: JRead}) // ring full: dropped
	a.Close()
	if got := len(j.Sources()); got != 2 {
		t.Fatalf("%d sources before the drain, want 2 (a closed source keeps its records)", got)
	}
	var n int
	for _, s := range j.Sources() {
		n += s.Drain(func(Rec) {})
	}
	if n != 1 {
		t.Fatalf("drained %d records, want 1", n)
	}
	if got := j.Sources(); len(got) != 1 || got[0] != b {
		t.Fatalf("sources after the drain = %v, want only the open one", got)
	}
	if got := j.Drops(); got != 1 {
		t.Fatalf("Drops = %d, want 1 (the removed source's drop)", got)
	}
	if c := j.Source(); c.ID() == a.ID() || c.ID() == b.ID() {
		t.Fatalf("new source id %d reuses an earlier source's (%d, %d)", c.ID(), a.ID(), b.ID())
	}
}

// TestJournalConcurrentDrain hammers one source from a producer while a
// consumer drains, asserting no record is lost or reordered. Run with
// -race this also proves the SPSC ring's happens-before edges.
func TestJournalConcurrentDrain(t *testing.T) {
	j := NewJournal(WithJournalRing(64))
	s := j.Source()
	const total = 50000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; {
			inv := j.Now()
			s.Begin(inv)
			before := s.Drops()
			s.Record(Rec{Inv: inv, Res: inv + 1, Val: uint64(i), Kind: JWrite})
			if s.Drops() == before {
				i++ // only advance the expected sequence when the ring accepted it
			} else {
				runtime.Gosched() // ring full: let the drainer run (real producers drop and move on)
			}
		}
	}()

	var got []uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			s.Drain(func(r Rec) { got = append(got, r.Val) })
			if len(got) >= total {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	wg.Wait()
	<-done
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("record %d: Val = %d, want %d", i, v, i)
		}
	}
}

func TestHashVal(t *testing.T) {
	a := HashVal([]byte(`"abc"`))
	if a != HashVal([]byte(`"abc"`)) {
		t.Fatal("HashVal not deterministic")
	}
	if a == HashVal([]byte(`"abd"`)) {
		t.Fatal("HashVal collided on tiny distinct values")
	}
	// Beyond the cap, length still distinguishes.
	long := make([]byte, 4096)
	longer := make([]byte, 4097)
	if HashVal(long) == HashVal(longer) {
		t.Fatal("HashVal ignored length beyond the cap")
	}
}

func TestLinzTally(t *testing.T) {
	var nilL *Linz
	nilL.Window(0, 10, time.Millisecond) // must not panic
	nilL.SetLag(1, time.Second, 0)

	l := NewLinz()
	l.Window(0, 100, time.Millisecond)
	l.Window(0, 50, time.Millisecond)
	l.Window(1, 10, time.Millisecond)
	l.Window(2, 5, time.Millisecond)
	l.Shed(7)
	l.BlurredCut()
	l.SetLag(42, 3*time.Second, 2)
	s := l.Snapshot()
	if s.WindowsOK != 2 || s.WindowsViolation != 1 || s.WindowsUndecided != 1 {
		t.Fatalf("window counts = %d/%d/%d", s.WindowsOK, s.WindowsViolation, s.WindowsUndecided)
	}
	if s.OpsChecked != 165 || s.ShedOps != 7 || s.BlurredCuts != 1 {
		t.Fatalf("ops/shed/blur = %d/%d/%d", s.OpsChecked, s.ShedOps, s.BlurredCuts)
	}
	if s.LagOps != 42 || s.HorizonLagSec != 3 || s.JournalDrops != 2 {
		t.Fatalf("lag = %d/%g/%d", s.LagOps, s.HorizonLagSec, s.JournalDrops)
	}
	if s.CheckedPerSec <= 0 {
		t.Fatal("CheckedPerSec not derived")
	}

	var buf strings.Builder
	l.WritePrometheus(&buf)
	for _, want := range []string{
		`linz_windows_total{verdict="ok"} 2`,
		`linz_windows_total{verdict="violation"} 1`,
		`linz_ops_checked_total 165`,
		`linz_lag_ops 42`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, buf.String())
		}
	}
}
