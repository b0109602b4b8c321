package register

import (
	"testing"
	"unsafe"
)

// seqlockOneLine checks, over many live Seqlocks of T, that the version
// and both slots lie in one cache line.
func seqlockOneLine[T any](t *testing.T, initial T, nwords int) {
	t.Helper()
	regs := make([]*Seqlock[T], 64) // kept alive: each gets a fresh address
	for k := range regs {
		r, err := NewSeqlock(1, initial)
		if err != nil {
			t.Fatal(err)
		}
		regs[k] = r
		if r.nwords != nwords {
			t.Fatalf("nwords = %d, want %d", r.nwords, nwords)
		}
		first := uintptr(unsafe.Pointer(&r.version)) / cacheLine
		last := uintptr(unsafe.Pointer(&r.words[2*nwords-1])) / cacheLine
		if first != last {
			t.Fatalf("register %d at %p: version on line %d, slot 1's last word on line %d",
				k, r, first, last)
		}
	}
}

// TestSeqlockOneLine pins the layout the shm-2w benchmark measures: a
// register of up to three words, core.Tagged[int64]'s two among them, is
// one cache line, so each real access moves one line. Address arithmetic
// only, no timing.
func TestSeqlockOneLine(t *testing.T) {
	type tagged struct { // core.Tagged[int64]'s shape
		val int64
		tag uint8
	}
	t.Run("1word", func(t *testing.T) { seqlockOneLine(t, int64(0), 1) })
	t.Run("2words", func(t *testing.T) { seqlockOneLine(t, tagged{}, 2) })
	t.Run("3words", func(t *testing.T) { seqlockOneLine(t, [3]uint64{}, 3) })
}
