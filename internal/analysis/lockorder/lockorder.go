// Package lockorder builds the whole-program lock-acquisition graph and
// rejects cycles and blocking while locked.
//
// The repo's server path is a small lattice of mutexes — the per-register
// writeMu guarding the dedup windows, the q-cell's qMu, the quorum
// client's journal gate, the client breaker — and its liveness argument
// is exactly "these are always taken in one order, and nothing waits
// while holding one".
// This analyzer makes that argument static:
//
//   - Every function is lowered to the ssair instruction stream, which
//     carries a must-hold lock set at each instruction. Acquiring lock B
//     (directly, or by calling a function that acquires B) while provably
//     holding lock A adds the edge A → B to the acquisition graph. Lock
//     identity is the mutex-typed struct field or variable, so the edge
//     (T).mu → (U).mu abstracts over instances.
//   - Edges travel across packages as LockEdges package facts and
//     per-function acquisition summaries travel as LockInfo object facts,
//     so the graph is whole-program under any fact-carrying driver.
//   - A cycle in the merged graph is a potential deadlock and is reported
//     at every local edge that participates in one. A cycle whose every
//     edge is read→read (RLock held, RLock acquired) is exempt: read
//     locks of the paper's reader side are mutually admissible.
//   - A blocking operation — channel send/receive, select without
//     default, or a call that transitively blocks (WaitGroup.Wait,
//     Cond.Wait, time.Sleep, Once.Do, or anything carrying a blocking
//     summary) — while provably holding any lock is reported: the
//     convoy that turns a microsecond critical section into a stall.
//     //bloom:allowblocking excuses a function, same hatch as waitfree.
//     One exception: a direct Cond.Wait with exactly one lock held is
//     the condition variable's required usage (Wait releases its locker
//     while parked) and is not reported; holding a second lock across
//     the wait still is.
//
// The must-hold set is an underapproximation (intersection at joins,
// TryLock never held), so every reported edge corresponds to a real
// syntactic hold — the analyzer under-claims rather than inventing
// cycles.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/ssair"
)

const markAllowBlocking = "//bloom:allowblocking"

// Analyzer reports lock-order cycles and blocking under locks.
var Analyzer = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       "report lock-acquisition cycles and blocking calls made while holding a lock",
	Requires:  []*analysis.Analyzer{ssair.Analyzer},
	FactTypes: []analysis.Fact{(*LockInfo)(nil), (*LockEdges)(nil)},
	Run:       run,
}

// Acq is one lock a function may acquire, transitively.
type Acq struct {
	Key  string
	Read bool
}

// LockInfo summarizes a function for its callers: the locks it may
// acquire and, if it can block, one blocking chain.
type LockInfo struct {
	Acquires []Acq
	// BlocksChain is a call path to a blocking primitive, empty if the
	// function is not known to block.
	BlocksChain []string
}

// AFact marks LockInfo as a serializable analysis fact.
func (*LockInfo) AFact() {}

func (f *LockInfo) String() string {
	var parts []string
	if len(f.Acquires) > 0 {
		keys := make([]string, len(f.Acquires))
		for i, a := range f.Acquires {
			keys[i] = a.Key
			if a.Read {
				keys[i] += " (read)"
			}
		}
		parts = append(parts, "acquires "+strings.Join(keys, ", "))
	}
	if len(f.BlocksChain) > 0 {
		parts = append(parts, "blocks via "+strings.Join(f.BlocksChain, " → "))
	}
	return strings.Join(parts, "; ")
}

// Edge is one acquisition-order edge: To acquired while From held.
type Edge struct {
	From, To         string
	FromRead, ToRead bool
	Site             string // "pkg/file.go:line" of the acquisition
}

// LockEdges is the package fact carrying a package's contribution to the
// whole-program acquisition graph.
type LockEdges struct {
	Edges []Edge
}

// AFact marks LockEdges as a serializable analysis fact.
func (*LockEdges) AFact() {}

func (f *LockEdges) String() string {
	parts := make([]string, len(f.Edges))
	for i, e := range f.Edges {
		parts[i] = e.From + "→" + e.To
	}
	return strings.Join(parts, " ")
}

// blockingCalls maps FullNames of stdlib primitives that wait.
var blockingCalls = map[string]string{
	"(*sync.WaitGroup).Wait": "waits on a WaitGroup",
	"(*sync.Cond).Wait":      "waits on a condition variable",
	"(*sync.Once).Do":        "may wait for a concurrent first call",
	"(sync.Locker).Lock":     "acquires a lock",
	"time.Sleep":             "sleeps",
}

// prependName prefixes a blocking chain with the callee's name, unless
// the chain already leads with it (the blockingCalls table embeds the
// name in its single element).
func prependName(name string, blocks []string) []string {
	if len(blocks) > 0 && strings.HasPrefix(blocks[0], name) {
		return blocks
	}
	return append([]string{name}, blocks...)
}

// localEdge is an edge with its in-package report position.
type localEdge struct {
	Edge
	pos token.Pos
}

func run(pass *analysis.Pass) (interface{}, error) {
	idx := pass.ResultOf[ssair.Analyzer].(*ssair.Index)

	type summary struct {
		acquires map[string]Acq
		blocks   []string // chain, nil if not blocking
	}
	sums := map[*ssair.Func]*summary{}
	excused := map[*ssair.Func]bool{}
	for _, f := range idx.Funcs {
		sums[f] = &summary{acquires: map[string]Acq{}}
		if f.Decl != nil && hasMarker(f.Decl.Doc, markAllowBlocking) {
			excused[f] = true
		}
	}
	// A literal inherits its parent's excuse: the annotation is on the
	// declared function the literal textually lives in.
	for _, f := range idx.Funcs {
		for p := f.Parent; p != nil; p = p.Parent {
			if excused[p] {
				excused[f] = true
			}
		}
	}

	// calleeInfo resolves a callee's acquisition/blocking summary from
	// the in-package fixpoint state or imported facts.
	calleeInfo := func(fn *types.Func) ([]Acq, []string, bool) {
		origin := fn.Origin()
		if reason, ok := blockingCalls[origin.FullName()]; ok {
			return nil, []string{origin.FullName() + " (" + reason + ")"}, true
		}
		if f, ok := idx.ByObj[origin]; ok {
			s := sums[f]
			var acqs []Acq
			for _, a := range s.acquires {
				acqs = append(acqs, a)
			}
			return acqs, s.blocks, true
		}
		if origin.Pkg() != nil && origin.Pkg() != pass.Pkg {
			var fact LockInfo
			if pass.ImportObjectFact(origin, &fact) {
				return fact.Acquires, fact.BlocksChain, true
			}
		}
		return nil, nil, false
	}

	// Fixpoint: a function's acquires/blocks grow from its own KLock and
	// KBlock instructions and from its callees' summaries.
	for {
		changed := false
		for _, f := range idx.Funcs {
			s := sums[f]
			add := func(a Acq) {
				if old, ok := s.acquires[a.Key]; !ok || (old.Read && !a.Read) {
					s.acquires[a.Key] = a
					changed = true
				}
			}
			setBlocks := func(chain []string) {
				if s.blocks == nil && !excused[f] {
					s.blocks = chain
					changed = true
				}
			}
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					ins := &b.Instrs[i]
					switch ins.Kind {
					case ssair.KLock:
						if ins.Lock != nil {
							add(Acq{Key: ssair.LockKey(ins.Lock), Read: ins.Read})
						}
					case ssair.KBlock:
						setBlocks([]string{ins.Reason})
					case ssair.KCall:
						var callees []*ssair.Func
						if ins.Closure != nil {
							callees = []*ssair.Func{ins.Closure}
						}
						if ins.Callee != nil {
							acqs, blocks, ok := calleeInfo(ins.Callee)
							if ok {
								for _, a := range acqs {
									add(a)
								}
								if blocks != nil {
									setBlocks(prependName(ins.Callee.Origin().FullName(), blocks))
								}
							}
							continue
						}
						for _, c := range callees {
							cs := sums[c]
							for _, a := range cs.acquires {
								add(a)
							}
							if cs.blocks != nil {
								setBlocks(append([]string{c.Name}, cs.blocks...))
							}
						}
					}
				}
			}
		}
		if !changed {
			break
		}
	}

	// Collect this package's edges and blocking-under-lock diagnostics.
	var edges []localEdge
	seenEdge := map[string]bool{}
	addEdge := func(from ssair.HeldLock, toKey string, toRead bool, pos token.Pos) {
		e := localEdge{
			Edge: Edge{
				From:     ssair.LockKey(from.Obj),
				FromRead: from.Read,
				To:       toKey,
				ToRead:   toRead,
				Site:     pass.Fset.Position(pos).String(),
			},
			pos: pos,
		}
		sig := e.From + "|" + e.To + "|" + fmt.Sprint(e.FromRead, e.ToRead)
		if !seenEdge[sig] {
			seenEdge[sig] = true
			edges = append(edges, e)
		}
	}

	type blockDiag struct {
		pos   token.Pos
		held  string
		chain string
	}
	var blockDiags []blockDiag

	for _, f := range idx.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				ins := &b.Instrs[i]
				if len(ins.Held) == 0 {
					continue
				}
				switch ins.Kind {
				case ssair.KLock:
					if ins.Lock == nil {
						continue
					}
					toKey := ssair.LockKey(ins.Lock)
					for _, h := range ins.Held {
						addEdge(h, toKey, ins.Read, ins.Pos)
					}
				case ssair.KBlock:
					if !excused[f] {
						blockDiags = append(blockDiags, blockDiag{
							pos: ins.Pos, held: ssair.HeldKeys(ins.Held), chain: ins.Reason,
						})
					}
				case ssair.KCall:
					if ins.Callee == nil {
						continue
					}
					acqs, blocks, ok := calleeInfo(ins.Callee)
					if !ok {
						continue
					}
					for _, a := range acqs {
						for _, h := range ins.Held {
							addEdge(h, a.Key, a.Read, ins.Pos)
						}
					}
					if blocks != nil && !excused[f] {
						// A direct Cond.Wait with exactly one lock held is
						// the API's required usage: Wait must be called with
						// its locker held and releases it while parked, so
						// the single held lock is presumed to be c.L. Extra
						// locks stay held across the wait and are reported.
						if ins.Callee.Origin().FullName() == "(*sync.Cond).Wait" && len(ins.Held) == 1 {
							continue
						}
						chain := prependName(ins.Callee.Origin().FullName(), blocks)
						blockDiags = append(blockDiags, blockDiag{
							pos: ins.Pos, held: ssair.HeldKeys(ins.Held), chain: strings.Join(chain, " → "),
						})
					}
				}
			}
		}
	}

	// Merge imported packages' edges into the whole-program graph.
	graph := map[string][]Edge{}
	addToGraph := func(e Edge) { graph[e.From] = append(graph[e.From], e) }
	for _, e := range edges {
		addToGraph(e.Edge)
	}
	for _, pf := range pass.AllPackageFacts() {
		if le, ok := pf.Fact.(*LockEdges); ok {
			for _, e := range le.Edges {
				addToGraph(e)
			}
		}
	}

	// Report each local edge that closes a cycle: a path To ⇝ From exists
	// in the merged graph. A cycle made purely of read→read edges is
	// exempt.
	for _, e := range edges {
		if path, ok := findPath(graph, e.To, e.From); ok {
			cycle := append([]Edge{e.Edge}, path...)
			if allRead(cycle) {
				continue
			}
			pass.Reportf(e.pos, "acquiring %s while holding %s completes a lock cycle: %s",
				e.To, e.From, renderCycle(cycle))
		}
	}

	sort.Slice(blockDiags, func(i, j int) bool { return blockDiags[i].pos < blockDiags[j].pos })
	for _, d := range blockDiags {
		pass.Reportf(d.pos, "%s while holding %s", d.chain, d.held)
	}

	// Export facts: per-function summaries and the package's edge set.
	for _, f := range idx.Funcs {
		if f.Obj == nil {
			continue
		}
		s := sums[f]
		if len(s.acquires) == 0 && s.blocks == nil {
			continue
		}
		var acqs []Acq
		for _, a := range s.acquires {
			acqs = append(acqs, a)
		}
		sort.Slice(acqs, func(i, j int) bool { return acqs[i].Key < acqs[j].Key })
		pass.ExportObjectFact(f.Obj, &LockInfo{Acquires: acqs, BlocksChain: s.blocks})
	}
	if len(edges) > 0 {
		fe := &LockEdges{}
		for _, e := range edges {
			fe.Edges = append(fe.Edges, e.Edge)
		}
		sort.Slice(fe.Edges, func(i, j int) bool {
			return fe.Edges[i].From+fe.Edges[i].To < fe.Edges[j].From+fe.Edges[j].To
		})
		pass.ExportPackageFact(fe)
	}
	return nil, nil
}

// findPath reports a path from → to in the graph (from == to finds a
// self-loop only if an edge exists).
func findPath(graph map[string][]Edge, from, to string) ([]Edge, bool) {
	seen := map[string]bool{}
	var dfs func(at string) ([]Edge, bool)
	dfs = func(at string) ([]Edge, bool) {
		if seen[at] {
			return nil, false
		}
		seen[at] = true
		for _, e := range graph[at] {
			if e.To == to {
				return []Edge{e}, true
			}
			if rest, ok := dfs(e.To); ok {
				return append([]Edge{e}, rest...), true
			}
		}
		return nil, false
	}
	return dfs(from)
}

func allRead(cycle []Edge) bool {
	for _, e := range cycle {
		if !e.FromRead || !e.ToRead {
			return false
		}
	}
	return true
}

func renderCycle(cycle []Edge) string {
	parts := []string{cycle[0].From}
	for _, e := range cycle {
		parts = append(parts, e.To)
	}
	return strings.Join(parts, " → ")
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
