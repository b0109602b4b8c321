// Package allocfree proves functions annotated //bloom:noalloc are
// heap-allocation-free on every path, transitively.
//
// The repository's hot paths — wire frame parse/append, Store.handle,
// the journal Record fast path, the quorum engine's read and write
// paths, the obs counter and histogram fast paths — are benchmarked at
// 0 allocs/op and CI gates on that number. But a runtime gate only covers the schedules
// and inputs a benchmark happens to exercise; this analyzer makes the
// same claim static, over all paths, at vet time.
//
// A function annotated //bloom:noalloc must not reach, through any call
// chain the static call graph can see, an instruction that allocates:
//
//   - make, new, &T{...}, slice and map literals, map assignment;
//   - string conversions ([]byte ↔ string) and string concatenation;
//   - interface boxing of a non-constant, non-pointer-shaped value
//     (including variadic ... slices, charged at the caller — which is
//     why a fmt.Sprintf call is flagged at the call site);
//   - append, unless it reuses a caller-owned buffer (b = append(b, ...)
//     or return append(b, ...) where b roots in a parameter, result, or
//     receiver — the amortized pre-sized append idiom);
//   - creating a closure that captures variables, spawning a goroutine,
//     or taking a method value;
//   - calling through a function value or interface (the callee is
//     unverifiable), or calling a function that itself allocates.
//
// //bloom:allowalloc excuses a function and everything it calls: the
// escape hatch for cold paths reached from a hot one (error construction,
// cache misses like the wire interner, dedup-window bookkeeping) whose
// allocations are deliberate and amortized or off the fast path.
//
// Standard-library packages are not lowered (see ssair), so a stdlib
// call's body is trusted not to allocate; what the call forces at the
// call site — variadic ...any boxing, string conversion — is still
// charged to the caller, and the runtime allocs/op gate cross-checks the
// residue. This keeps the verdict identical under go vet (which would
// otherwise compute stdlib facts) and the in-repo test loader (which
// never does). The whitelist below documents the hot-path stdlib surface
// the claim actually leans on — sync.Pool Get/Put as the sanctioned
// pooled-buffer amortization idiom, the mutex and atomic primitives, the
// time arithmetic — all measured at 0 allocs/op in steady state.
//
// Allocation discovered in an imported package travels via Allocates
// facts, so a //bloom:noalloc root sees an allocation introduced three
// packages away.
package allocfree

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/ssair"
)

// Annotation markers, written on their own line in a function's doc
// comment.
const (
	markNoAlloc    = "//bloom:noalloc"
	markAllowAlloc = "//bloom:allowalloc"
)

// Analyzer reports heap allocations reachable from //bloom:noalloc
// annotated functions.
var Analyzer = &analysis.Analyzer{
	Name:      "allocfree",
	Doc:       "report heap allocations reachable from //bloom:noalloc annotated functions",
	Requires:  []*analysis.Analyzer{ssair.Analyzer},
	FactTypes: []analysis.Fact{(*Allocates)(nil)},
	Run:       run,
}

// Allocates is attached to a function through which a heap allocation is
// reachable.
type Allocates struct {
	// Chain is the call path from the function to the allocation, ending
	// in the allocation reason, e.g. ["repro/internal/wire.getBuf", "make"].
	Chain []string
}

// AFact marks Allocates as a serializable analysis fact.
func (*Allocates) AFact() {}

func (f *Allocates) String() string { return "allocates via " + strings.Join(f.Chain, " → ") }

// whitelistPkgs are packages whose every function is allocation-free.
var whitelistPkgs = map[string]bool{
	"sync/atomic": true,
	"math/bits":   true,
	"runtime":     true,
}

// whitelistFuncs are individually known allocation-free (or sanctioned
// amortized) standard-library functions, by types.Func.FullName.
var whitelistFuncs = map[string]bool{
	"(*sync.Mutex).Lock":       true,
	"(*sync.Mutex).Unlock":     true,
	"(*sync.Mutex).TryLock":    true,
	"(*sync.RWMutex).Lock":     true,
	"(*sync.RWMutex).Unlock":   true,
	"(*sync.RWMutex).RLock":    true,
	"(*sync.RWMutex).RUnlock":  true,
	"(*sync.RWMutex).TryLock":  true,
	"(*sync.RWMutex).TryRLock": true,
	// Pooled buffers are the sanctioned amortization idiom: steady-state
	// Get returns a recycled buffer and Put recycles it, 0 allocs/op.
	"(*sync.Pool).Get": true,
	"(*sync.Pool).Put": true,
	// json.Valid runs a pooled scanner over the raw bytes without building
	// a value: 0 allocs/op in steady state, matching the runtime gate on
	// the server write path that calls it.
	"encoding/json.Valid":         true,
	"time.Now":                    true,
	"time.Since":                  true,
	"(time.Time).Sub":             true,
	"(time.Time).UnixNano":        true,
	"(time.Duration).Nanoseconds": true,
	"(time.Duration).Seconds":     true,
}

func whitelisted(fn *types.Func) bool {
	if fn.Pkg() != nil && whitelistPkgs[fn.Pkg().Path()] {
		return true
	}
	return whitelistFuncs[fn.FullName()]
}

// culprit is one function's first discovered route to an allocation.
type culprit struct {
	pos   token.Pos
	chain []string
}

func run(pass *analysis.Pass) (interface{}, error) {
	idx := pass.ResultOf[ssair.Analyzer].(*ssair.Index)

	type fnInfo struct {
		f          *ssair.Func
		noAlloc    bool
		allowAlloc bool
	}
	var fns []*fnInfo
	excused := map[*types.Func]bool{}
	for _, f := range idx.Funcs {
		info := &fnInfo{f: f}
		if f.Decl != nil {
			info.noAlloc = hasMarker(f.Decl.Doc, markNoAlloc)
			info.allowAlloc = hasMarker(f.Decl.Doc, markAllowAlloc)
			if info.allowAlloc {
				excused[f.Obj] = true
			}
		}
		fns = append(fns, info)
	}

	// allocates maps a scanned Func to its first allocation route.
	allocates := map[*ssair.Func]*culprit{}

	scan := func(info *fnInfo) *culprit {
		var found *culprit
		report := func(pos token.Pos, chain ...string) {
			if found == nil || pos < found.pos {
				found = &culprit{pos: pos, chain: chain}
			}
		}
		for _, b := range info.f.Blocks {
			for i := range b.Instrs {
				ins := &b.Instrs[i]
				switch ins.Kind {
				case ssair.KAlloc:
					report(ins.Pos, ins.Reason)
				case ssair.KGo:
					report(ins.Pos, "go statement (new goroutine)")
				case ssair.KClosure:
					if len(ins.Closure.Captures) > 0 {
						report(ins.Pos, "closure captures "+ins.Closure.Captures[0].Name())
					}
				case ssair.KDynCall:
					what := "function value"
					if ins.Callee != nil {
						what = "interface method " + ins.Callee.FullName()
					}
					report(ins.Pos, "call through "+what+" (unverifiable)")
				case ssair.KCall:
					if ins.Closure != nil {
						// Direct call of a literal: charge its body.
						if c, ok := allocates[ins.Closure]; ok {
							report(ins.Pos, append([]string{ins.Closure.Name}, c.chain...)...)
						}
						continue
					}
					if ins.Callee == nil {
						continue
					}
					origin := ins.Callee.Origin()
					if excused[origin] || whitelisted(origin) {
						continue
					}
					// In-package callee already known to allocate?
					if f, ok := idx.ByObj[origin]; ok {
						if c, ok := allocates[f]; ok {
							report(ins.Pos, append([]string{origin.FullName()}, c.chain...)...)
						}
						continue
					}
					// Imported callee with an Allocates fact?
					if origin.Pkg() != nil && origin.Pkg() != pass.Pkg {
						var fact Allocates
						if pass.ImportObjectFact(origin, &fact) {
							report(ins.Pos, append([]string{origin.FullName()}, fact.Chain...)...)
						}
					}
				}
			}
		}
		return found
	}

	// Fixpoint over the in-package call graph (declared functions and
	// literals alike). Bounded by the number of functions.
	for {
		changed := false
		for _, info := range fns {
			if info.allowAlloc {
				continue
			}
			if _, done := allocates[info.f]; done {
				continue
			}
			if c := scan(info); c != nil {
				allocates[info.f] = c
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	for _, info := range fns {
		c, does := allocates[info.f]
		if !does {
			continue
		}
		if info.noAlloc {
			pass.Reportf(c.pos, "%s is annotated %s but allocates: %s",
				info.f.Obj.Name(), markNoAlloc, strings.Join(c.chain, " → "))
		}
		if info.f.Obj != nil {
			pass.ExportObjectFact(info.f.Obj, &Allocates{Chain: c.chain})
		}
	}
	return nil, nil
}

// hasMarker reports whether the doc comment contains the marker as a
// standalone directive line.
func hasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == marker {
			return true
		}
	}
	return false
}
