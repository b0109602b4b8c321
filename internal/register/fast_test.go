package register

import (
	"strings"
	"sync"
	"testing"
)

// fastRegs builds one of each lock-free register over ports read ports so
// shared contract tests can sweep them, the seqlock twice: once read with
// Read and once with ReadSince.
func fastRegs(t *testing.T, ports int, initial int, opts ...FastOption) map[string]Reg[int] {
	t.Helper()
	sl, err := NewSeqlock(ports, initial, opts...)
	if err != nil {
		t.Fatal(err)
	}
	since, err := NewSeqlock(ports, initial, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Reg[int]{
		"pointer":       NewPointer(ports, initial, opts...),
		"seqlock":       sl,
		"seqlock-since": newSinceReg(since, ports),
	}
}

// sinceReg reads a Seqlock through ReadSince with one snapshot per port,
// so the Reg contract tests cover the snapshot read. Like a reader handle,
// each port's snapshot belongs to one goroutine at a time.
type sinceReg struct {
	*Seqlock[int]
	snap []int
	ver  []uint64
}

func newSinceReg(r *Seqlock[int], ports int) *sinceReg {
	s := &sinceReg{Seqlock: r, snap: make([]int, ports), ver: make([]uint64, ports)}
	for p := range s.ver {
		s.ver[p] = NoSnapshot
	}
	return s
}

func (s *sinceReg) Read(port int) int { return s.ReadSince(port, &s.snap[port], &s.ver[port]) }

func TestFastSequential(t *testing.T) {
	for name, r := range fastRegs(t, 2, 10) {
		t.Run(name, func(t *testing.T) {
			if got := r.Read(0); got != 10 {
				t.Fatalf("initial Read = %d, want 10", got)
			}
			r.Write(20)
			if got := r.Read(1); got != 20 {
				t.Fatalf("Read after Write = %d, want 20", got)
			}
		})
	}
}

func TestFastCountersOptIn(t *testing.T) {
	// Without WithCounters the hot path carries no counters at all.
	for name, r := range fastRegs(t, 2, 0) {
		t.Run(name+"/off", func(t *testing.T) {
			r.Write(1)
			_ = r.Read(0)
			if c := r.(Counted).Counters(); c != nil {
				t.Fatalf("counters = %v, want nil when not requested", c)
			}
		})
	}
	for name, r := range fastRegs(t, 3, 0, WithCounters()) {
		t.Run(name+"/on", func(t *testing.T) {
			r.Read(0)
			r.Read(0)
			r.Read(2)
			r.Write(5)
			c := r.(Counted).Counters()
			if c == nil {
				t.Fatal("counters nil despite WithCounters")
			}
			if c.Reads(0) != 2 || c.Reads(1) != 0 || c.Reads(2) != 1 {
				t.Fatalf("per-port reads = %d,%d,%d", c.Reads(0), c.Reads(1), c.Reads(2))
			}
			if c.TotalReads() != 3 || c.Writes() != 1 || c.Ports() != 3 {
				t.Fatalf("totals = %d reads, %d writes, %d ports", c.TotalReads(), c.Writes(), c.Ports())
			}
		})
	}
}

// TestFastConcurrentReadersOneWriter is the single-writer atomicity
// contract under -race: an increasing write sequence must never appear to
// regress on any reader port.
func TestFastConcurrentReadersOneWriter(t *testing.T) {
	const readers, writes = 4, 2000
	for name, r := range fastRegs(t, readers, 0) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 1; i <= writes; i++ {
					r.Write(i)
				}
			}()
			errs := make(chan error, readers)
			for p := 0; p < readers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					prev := -1
					for i := 0; i < writes; i++ {
						v := r.Read(p)
						if v < prev {
							errs <- errAt(p, prev, v)
							return
						}
						prev = v
					}
				}(p)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestSeqlockReadSince pins the snapshot read: it hands back the snapshot
// after one version load while nothing was written, and copies the
// register otherwise. Planting a marker in the snapshot tells the two
// apart: a read that returns the marker did not copy.
func TestSeqlockReadSince(t *testing.T) {
	const marker = -1
	// setup returns a counted register holding 10 and a snapshot of it
	// validated at version 0, with the marker planted in it.
	setup := func(t *testing.T) (r *Seqlock[int], snap int, ver uint64) {
		r = MustSeqlock(1, 10, WithCounters())
		ver = NoSnapshot
		if got := r.ReadSince(0, &snap, &ver); got != 10 || snap != 10 || ver != 0 {
			t.Fatalf("first ReadSince = %d, snapshot (%d, version %d), want 10, (10, 0)", got, snap, ver)
		}
		return r, marker, ver
	}
	t.Run("unchanged", func(t *testing.T) {
		r, snap, ver := setup(t)
		if got := r.ReadSince(0, &snap, &ver); got != marker {
			t.Fatalf("ReadSince of an unwritten register = %d, want the snapshot %d", got, marker)
		}
		if n := r.Counters().Reads(0); n != 2 {
			t.Fatalf("%d reads counted, want 2: a read served from the snapshot still counts", n)
		}
	})
	t.Run("one-write", func(t *testing.T) {
		r, snap, ver := setup(t)
		r.Write(20)
		if got := r.ReadSince(0, &snap, &ver); got != 20 || snap != 20 || ver != 1 {
			t.Fatalf("ReadSince after one write = %d, snapshot (%d, version %d), want 20, (20, 1)", got, snap, ver)
		}
	})
	t.Run("two-writes", func(t *testing.T) {
		// The second write reuses slot 0, the slot the snapshot was
		// copied from.
		r, snap, ver := setup(t)
		r.Write(20)
		r.Write(30)
		if got := r.ReadSince(0, &snap, &ver); got != 30 || snap != 30 || ver != 2 {
			t.Fatalf("ReadSince after two writes = %d, snapshot (%d, version %d), want 30, (30, 2)", got, snap, ver)
		}
	})
	t.Run("no-snapshot", func(t *testing.T) {
		// The sentinel copies even at the initial version.
		r := MustSeqlock(1, 10)
		snap, ver := marker, NoSnapshot
		if got := r.ReadSince(0, &snap, &ver); got != 10 || snap != 10 || ver != 0 {
			t.Fatalf("ReadSince from NoSnapshot = %d, snapshot (%d, version %d), want 10, (10, 0)", got, snap, ver)
		}
	})
}

// TestSeqlockWideValue exercises a multi-word pointer-free value, where
// torn reads are actually possible and the version check must catch them:
// every field of the struct is written with the same generation number, so
// any mixed-generation read is a torn read that escaped the seqlock.
func TestSeqlockWideValue(t *testing.T) {
	type wide struct{ A, B, C, D int64 }
	r, err := NewSeqlock(2, wide{})
	if err != nil {
		t.Fatal(err)
	}
	const writes = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); i <= writes; i++ {
			r.Write(wide{A: i, B: i, C: i, D: i})
		}
	}()
	errs := make(chan string, 2)
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				v := r.Read(p)
				if v.A != v.B || v.B != v.C || v.C != v.D {
					errs <- "torn read escaped the seqlock"
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestSeqlockRejectsPointerfulTypes(t *testing.T) {
	if _, err := NewSeqlock(1, "a string"); err == nil {
		t.Fatal("seqlock accepted a string value")
	} else if !strings.Contains(err.Error(), "contains pointers") {
		t.Fatalf("unexpected error: %v", err)
	}
	type withPtr struct {
		N int
		P *int
	}
	if _, err := NewSeqlock(1, withPtr{}); err == nil {
		t.Fatal("seqlock accepted a struct containing a pointer")
	}
	type oversized struct{ A [33]uint64 }
	if _, err := NewSeqlock(1, oversized{}); err == nil {
		t.Fatal("seqlock accepted an oversized value")
	}
	// Pointer-free composites are fine.
	type ok struct {
		A [4]int32
		B struct{ X, Y float64 }
	}
	if _, err := NewSeqlock(1, ok{}); err != nil {
		t.Fatalf("seqlock rejected a pointer-free struct: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustSeqlock did not panic on a pointerful type")
		}
	}()
	MustSeqlock(1, "boom")
}

// TestSeqlockConcurrentWriteDetection hammers the single-writer register
// with two racing writers. The version-advance check makes any overlapping
// pair of writes panic in one of them; if the scheduler happens to never
// overlap them, all writes must at least be accounted for (no silent lost
// update either way).
func TestSeqlockConcurrentWriteDetection(t *testing.T) {
	const perWriter = 20000
	r := MustSeqlock(1, 0)
	var wg sync.WaitGroup
	panics := make(chan struct{}, 2)
	completed := make([]int, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if recover() != nil {
					panics <- struct{}{}
				}
			}()
			for i := 0; i < perWriter; i++ {
				r.Write(i)
				completed[w]++
			}
		}(w)
	}
	wg.Wait()
	close(panics)
	if len(panics) > 0 {
		return // overlap detected and punished, as designed
	}
	// The writers never overlapped: every write must have advanced the
	// version exactly once.
	if got := r.version.Load(); got != uint64(completed[0]+completed[1]) {
		t.Fatalf("version %d after %d undetected racing writes", got, completed[0]+completed[1])
	}
	t.Log("writers never overlapped; detection path not exercised this run")
}

// TestSeqlockOddSizedValue exercises a value whose size is not a multiple
// of 8, so the last word is partial and the staging buffer's tail pad is
// load-bearing.
func TestSeqlockOddSizedValue(t *testing.T) {
	type odd struct {
		A uint64
		B uint8
	}
	r := MustSeqlock(1, odd{A: 7, B: 3})
	if got := r.Read(0); got != (odd{A: 7, B: 3}) {
		t.Fatalf("initial = %+v", got)
	}
	r.Write(odd{A: 9, B: 250})
	if got := r.Read(0); got != (odd{A: 9, B: 250}) {
		t.Fatalf("after write = %+v", got)
	}
}
