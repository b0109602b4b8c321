package core

import (
	"testing"
	"unsafe"
)

// TestWriterLocalsOnPrivateLines pins Writer's padding: the cache lines
// holding one writer's local copy, which every write stores, hold no byte
// of the other writer's handle. Address arithmetic only, no timing.
func TestWriterLocalsOnPrivateLines(t *testing.T) {
	lines := func(p unsafe.Pointer, size uintptr) (first, last uintptr) {
		return uintptr(p) / cacheLine, (uintptr(p) + size - 1) / cacheLine
	}
	// Several registers, all kept alive, so the check does not hinge on
	// one lucky pair of addresses.
	regs := make([]*TwoWriter[int64], 64)
	for k := range regs {
		regs[k] = New[int64](2, 0, WithSubstrate[int64](FastSeqlock))
		for i := 0; i < 2; i++ {
			w, other := regs[k].writers[i], regs[k].writers[1-i]
			lf, ll := lines(unsafe.Pointer(&w.local), unsafe.Sizeof(w.local))
			of, ol := lines(unsafe.Pointer(other), unsafe.Sizeof(*other))
			if lf <= ol && of <= ll {
				t.Fatalf("register %d: writer %d's local (lines %d-%d) shares a line with writer %d's handle (lines %d-%d)",
					k, i, lf, ll, 1-i, of, ol)
			}
		}
	}
}
