package core

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestWriterLocalsOnPrivateLines pins the handles' padding: the cache
// lines holding the fields an operation stores, a writer's local copy and
// every handle's snapshots, hold no byte of another handle. Address
// arithmetic only, no timing. The int32 case matters because its unpadded
// handles would not fill a line each.
func TestWriterLocalsOnPrivateLines(t *testing.T) {
	t.Run("int64", privateLines[int64])
	t.Run("int32", privateLines[int32])
}

func privateLines[V comparable](t *testing.T) {
	type field struct {
		name string
		p    unsafe.Pointer
		size uintptr
	}
	type handle struct {
		name    string
		p       unsafe.Pointer
		size    uintptr
		written []field
	}
	lines := func(p unsafe.Pointer, size uintptr) (first, last uintptr) {
		return uintptr(p) / cacheLine, (uintptr(p) + size - 1) / cacheLine
	}
	// Several registers, all kept alive, so the check does not hinge on
	// one lucky set of addresses.
	var v0 V
	regs := make([]*TwoWriter[V], 64)
	for k := range regs {
		regs[k] = New(2, v0, WithSubstrate[V](FastSeqlock))
		var hs []handle
		for _, w := range regs[k].writers {
			hs = append(hs, handle{fmt.Sprint("writer ", w.i), unsafe.Pointer(w), unsafe.Sizeof(*w), []field{
				{"local", unsafe.Pointer(&w.local), unsafe.Sizeof(w.local)},
				{"other", unsafe.Pointer(&w.other), unsafe.Sizeof(w.other)},
				{"otherVer", unsafe.Pointer(&w.otherVer), unsafe.Sizeof(w.otherVer)},
			}})
		}
		for _, r := range regs[k].readers {
			hs = append(hs, handle{fmt.Sprint("reader ", r.j), unsafe.Pointer(r), unsafe.Sizeof(*r), []field{
				{"snap", unsafe.Pointer(&r.snap), unsafe.Sizeof(r.snap)},
				{"ver", unsafe.Pointer(&r.ver), unsafe.Sizeof(r.ver)},
			}})
		}
		for _, h := range hs {
			for _, f := range h.written {
				ff, fl := lines(f.p, f.size)
				for _, o := range hs {
					if o.p == h.p {
						continue
					}
					of, ol := lines(o.p, o.size)
					if ff <= ol && of <= fl {
						t.Fatalf("register %d: %s's %s (lines %d-%d) shares a line with %s's handle (lines %d-%d)",
							k, h.name, f.name, ff, fl, o.name, of, ol)
					}
				}
			}
		}
	}
}
