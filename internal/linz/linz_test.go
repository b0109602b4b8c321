package linz

import (
	"fmt"
	"testing"
	"time"
)

func wr(c uint32, val uint64, inv, res int64) Op {
	return Op{Inv: inv, Res: res, Val: val, Client: c, Kind: Write}
}

func rd(c uint32, val uint64, inv, res int64) Op {
	return Op{Inv: inv, Res: res, Val: val, Client: c, Kind: Read}
}

func known(v uint64) Value { return Value{Known: true, V: v} }

func TestSequentialOk(t *testing.T) {
	ops := []Op{
		wr(0, 1, 0, 10),
		rd(1, 1, 20, 30),
		wr(0, 2, 40, 50),
		rd(1, 2, 60, 70),
	}
	rep := CheckKey("x", known(0), ops, Options{})
	if rep.Verdict != Ok {
		t.Fatalf("verdict = %v, want ok (failures: %+v)", rep.Verdict, rep.Failures)
	}
	if rep.Segments != 4 {
		t.Fatalf("segments = %d, want 4 (every op quiescent)", rep.Segments)
	}
	if rep.Ops != 4 || rep.Keys != 1 {
		t.Fatalf("ops/keys = %d/%d", rep.Ops, rep.Keys)
	}
}

func TestStaleReadAcrossSegments(t *testing.T) {
	// The stale read sits alone in its own segment; only the forced-value
	// threading across quiescent cuts can catch it.
	ops := []Op{
		wr(0, 1, 0, 10),
		rd(1, 1, 20, 30),
		wr(0, 2, 40, 50),
		rd(1, 1, 60, 70), // stale: observes 1 after 2 was quiescently written
	}
	rep := CheckKey("x", known(0), ops, Options{})
	if rep.Verdict != Violation {
		t.Fatalf("verdict = %v, want violation", rep.Verdict)
	}
	f := rep.Failures[0]
	if f.Key != "x" || len(f.Ops) != 1 || f.Ops[0].Kind != Read {
		t.Fatalf("failure = %+v, want the lone stale read", f)
	}
	if f.Reason == "" {
		t.Fatal("failure has no reason")
	}
}

func TestConcurrentWritesEitherOrder(t *testing.T) {
	base := []Op{
		wr(0, 1, 0, 20),
		wr(1, 2, 10, 30),
	}
	for _, v := range []uint64{1, 2} {
		ops := append(append([]Op(nil), base...), rd(2, v, 40, 50))
		rep := CheckKey("x", known(0), ops, Options{})
		if rep.Verdict != Ok {
			t.Fatalf("read of %d after concurrent writes: verdict = %v, want ok", v, rep.Verdict)
		}
	}
}

// TestNewOldInversionAcrossCut is the four-client counterexample shape
// from the paper's Section 8 discussion: two overlapping writes, then two
// readers that disagree about which one won. The writes' carried value is
// blurred, but the first read re-commits it and the second read convicts.
func TestNewOldInversionAcrossCut(t *testing.T) {
	ops := []Op{
		wr(0, 1, 0, 20),
		wr(1, 2, 10, 30),
		rd(2, 2, 40, 50), // sees the new value...
		rd(3, 1, 60, 70), // ...then an older one reappears: not atomic
	}
	rep := CheckKey("x", known(0), ops, Options{})
	if rep.Verdict != Violation {
		t.Fatalf("verdict = %v, want violation (new-old inversion)", rep.Verdict)
	}
	if rep.Blurred != 1 {
		t.Fatalf("blurred = %d, want 1 (two maximal writes at the cut)", rep.Blurred)
	}
}

// TestNewOldInversionOneSegment is the same inversion with chained
// overlaps so the whole history is a single segment and the DFS itself
// must convict — and identify the culprit read for highlighting.
func TestNewOldInversionOneSegment(t *testing.T) {
	ops := []Op{
		wr(0, 1, 0, 60),
		wr(1, 2, 50, 90),
		rd(2, 2, 80, 110),
		rd(3, 1, 100, 130),
	}
	rep := CheckKey("x", known(0), ops, Options{})
	if rep.Verdict != Violation {
		t.Fatalf("verdict = %v, want violation", rep.Verdict)
	}
	if rep.Segments != 1 {
		t.Fatalf("segments = %d, want 1", rep.Segments)
	}
	f := rep.Failures[0]
	if len(f.Ops) != 4 || f.Linearized == nil {
		t.Fatalf("failure not tracked: %+v", f)
	}
	culprits := f.Culprits()
	if len(culprits) != 1 || f.Ops[culprits[0]].Client != 3 {
		t.Fatalf("culprits = %v, want the client-3 read (ops %+v)", culprits, f.Ops)
	}
}

func TestPendingWrite(t *testing.T) {
	// A pending write may take effect...
	ops := []Op{
		wr(0, 1, 0, PendingRes),
		rd(1, 1, 10, 20),
	}
	if rep := CheckKey("x", known(0), ops, Options{}); rep.Verdict != Ok {
		t.Fatalf("pending write should be allowed to land: %v", rep.Verdict)
	}
	// ...or not.
	ops = []Op{
		wr(0, 1, 0, PendingRes),
		rd(1, 0, 10, 20),
		rd(2, 0, 30, 40),
	}
	if rep := CheckKey("x", known(0), ops, Options{}); rep.Verdict != Ok {
		t.Fatalf("pending write must not be forced to land: %v", rep.Verdict)
	}
	// But it cannot land in the middle of contradicting reads.
	ops = []Op{
		wr(0, 1, 0, PendingRes),
		rd(1, 1, 10, 20),
		rd(2, 0, 30, 40),
	}
	if rep := CheckKey("x", known(0), ops, Options{}); rep.Verdict != Violation {
		t.Fatalf("value cannot revert after the pending write was observed: %v", rep.Verdict)
	}
}

func TestPendingReadUnconstrained(t *testing.T) {
	ops := []Op{
		wr(0, 1, 0, 10),
		rd(1, 99, 20, PendingRes), // never returned: the 99 is garbage
		rd(2, 1, 30, 40),
	}
	if rep := CheckKey("x", known(0), ops, Options{}); rep.Verdict != Ok {
		t.Fatalf("pending read must not constrain: %v", rep.Verdict)
	}
}

func TestUnknownInitCommits(t *testing.T) {
	ops := []Op{
		rd(0, 7, 0, 10),
		rd(1, 7, 20, 30),
	}
	if rep := CheckKey("x", Value{}, ops, Options{}); rep.Verdict != Ok {
		t.Fatalf("consistent reads of unknown init: %v", rep.Verdict)
	}
	ops = append(ops, rd(0, 8, 40, 50))
	if rep := CheckKey("x", Value{}, ops, Options{}); rep.Verdict != Violation {
		t.Fatalf("inconsistent reads of unknown init: %v", rep.Verdict)
	}
}

func TestBlurredCutIsSoundNotSharp(t *testing.T) {
	// Two overlapping writes with no disambiguating read: the carried
	// value is unforced, so the read of a third value after the cut is
	// (soundly) accepted against the blurred state — and the blur is
	// counted so reports can expose how sharp the run was.
	ops := []Op{
		wr(0, 1, 0, 20),
		wr(1, 2, 10, 30),
		rd(2, 3, 40, 50),
	}
	rep := CheckKey("x", known(0), ops, Options{})
	if rep.Verdict != Ok {
		t.Fatalf("verdict = %v, want ok (blurred cut commits to the read)", rep.Verdict)
	}
	if rep.Blurred != 1 {
		t.Fatalf("blurred = %d, want 1", rep.Blurred)
	}
}

func TestMultiKeyPartitioning(t *testing.T) {
	h := NewHistory()
	h.SetInit("good", 0)
	h.SetInit("bad", 0)
	// Interleaved in time, independent per key.
	h.Add("good", wr(0, 1, 0, 10))
	h.Add("bad", wr(1, 1, 5, 15))
	h.Add("good", rd(0, 1, 20, 30))
	h.Add("bad", rd(1, 2, 20, 30)) // nobody wrote 2 to bad
	rep := Check(h, Options{Parallel: 2})
	if rep.Verdict != Violation {
		t.Fatalf("verdict = %v, want violation", rep.Verdict)
	}
	if len(rep.Failures) != 1 || rep.Failures[0].Key != "bad" {
		t.Fatalf("failures = %+v, want exactly key bad", rep.Failures)
	}
	if rep.Keys != 2 || rep.Ops != 4 {
		t.Fatalf("keys/ops = %d/%d", rep.Keys, rep.Ops)
	}
}

func TestUndecidedOnTimeout(t *testing.T) {
	ops := []Op{
		wr(0, 1, 0, 20),
		wr(1, 2, 10, 30),
		rd(2, 2, 15, 40),
	}
	rep := CheckKey("x", known(0), ops, Options{Timeout: time.Nanosecond})
	if rep.Verdict != Undecided {
		t.Fatalf("verdict = %v, want undecided under an expired deadline", rep.Verdict)
	}
	if len(rep.UndecidedKeys) != 1 || rep.UndecidedKeys[0] != "x" {
		t.Fatalf("undecided keys = %v", rep.UndecidedKeys)
	}
}

func TestVerdictStrings(t *testing.T) {
	if Ok.String() != "ok" || Violation.String() != "violation" || Undecided.String() != "undecided" {
		t.Fatal("verdict strings drifted from the obs contract")
	}
	if got := Ok.merge(Undecided).merge(Violation); got != Violation {
		t.Fatalf("merge = %v, want violation to dominate", got)
	}
}

// TestLongSequentialFastPath pushes a large fully-quiescent history
// through the per-op fast path: this is the shape a low-concurrency
// load run produces, and it must stay effectively linear time.
func TestLongSequentialFastPath(t *testing.T) {
	const n = 100_000
	h := NewHistory()
	for k := 0; k < 4; k++ {
		key := fmt.Sprintf("r%d", k)
		h.SetInit(key, 0)
		t0 := int64(k) // interleave keys in time
		var last uint64
		for i := 0; i < n/4; i++ {
			inv := t0 + int64(i)*8
			if i%3 == 0 {
				last = uint64(i + 1)
				h.Add(key, wr(0, last, inv, inv+3))
			} else {
				h.Add(key, rd(1, last, inv, inv+3))
			}
		}
	}
	start := time.Now()
	rep := Check(h, Options{})
	if rep.Verdict != Ok {
		t.Fatalf("verdict = %v, want ok (failures: %+v)", rep.Verdict, rep.Failures)
	}
	if rep.Ops != n {
		t.Fatalf("ops = %d, want %d", rep.Ops, n)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("fast path took %v for %d ops", d, n)
	}
}

// TestChainedOverlapSegment builds one long segment of pairwise-chained
// overlapping ops with a valid linearization: the DFS must get through it
// without pathological backtracking.
func TestChainedOverlapSegment(t *testing.T) {
	const n = 2000
	ops := make([]Op, 0, n)
	val := uint64(1)
	for i := 0; i < n; i++ {
		inv := int64(i) * 2
		res := inv + 3 // overlaps the next op's invocation at inv+2
		if i%2 == 0 {
			val = uint64(i + 1)
			ops = append(ops, wr(uint32(i%2), val, inv, res))
		} else {
			ops = append(ops, rd(uint32(i%2), val, inv, res))
		}
	}
	rep := CheckKey("x", known(0), ops, Options{Timeout: 20 * time.Second})
	if rep.Verdict != Ok {
		t.Fatalf("verdict = %v, want ok (undecided=%v)", rep.Verdict, rep.UndecidedKeys)
	}
	if rep.Segments != 1 {
		t.Fatalf("segments = %d, want 1 (chained overlap)", rep.Segments)
	}
}
