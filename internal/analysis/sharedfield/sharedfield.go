// Package sharedfield is a static race pass: a struct field reached from
// more than one goroutine context must be accessed either always
// atomically or always under one consistent lock.
//
// The -race detector only convicts schedules it happens to run; this
// analyzer convicts disciplines. It assigns every function a set of
// goroutine contexts and checks each field's accesses across them:
//
//   - Contexts are spawn sites. The synchronous context (package API,
//     tests, main) is one; every `go` statement is another, identified by
//     its position. `go` targets are resolved through function literals,
//     static calls, and stored closures (a func-typed variable or field
//     assigned a literal earlier). Contexts flow caller → callee over the
//     in-package call graph; a literal created in value position (a
//     stored callback) inherits its creator's contexts. Exported
//     functions always carry the synchronous context — any importer can
//     call them. Functions declared in _test.go files are invisible to
//     the analysis — they open no context (neither their spawns nor
//     their synchronous calls), and their own field accesses are not
//     collected: test harnesses deliberately hammer structures from
//     extra goroutines and call unexported internals directly, the
//     verdict is about the package's own discipline, and ignoring the
//     test variant wholesale keeps `go vet` (which analyzes it) in
//     agreement with the test loader (which never loads test files).
//   - A field of a struct declared in this package is *shared* when its
//     non-initialization accesses span two or more contexts. The analysis
//     is instance-blind: one spawn site looping `go s.serve(conn)` is a
//     single context, so per-connection state confined to its own
//     goroutine stays clean.
//   - Initialization is exempt: accesses rooted at a local freshly bound
//     to &T{...} / new(T) / T{...} happen before the value is published.
//     So are accesses rooted at a by-value local, parameter, or receiver:
//     those touch a stack copy ((cfg Config) withDefaults() normalizing
//     its own copy is the idiom), not shared storage.
//   - A shared field passes when all accesses are atomic (sync/atomic
//     package calls on &s.f or methods of an atomic.X-typed field), when
//     every access site provably holds one common lock (the ssair
//     must-hold set), or when no access after initialization writes —
//     publish-then-read-only is a discipline too. Everything else — plain
//     writes, atomic/plain mixing, lock-here-but-not-there — is reported.
//
// //bloom:allowshared on a field's comment (or on its struct type's doc
// comment, covering every field) waives the check: the escape hatch for
// ownership-handoff protocols like the model checker's cloned machines
// (internal/sched), each handed to exactly one worker through a channel,
// where no static discipline describes that exchange.
//
// The pass is per-package: sharing introduced by another package's
// goroutines calling into this one is out of scope (atomicmix covers
// cross-package atomic/plain mixing), so a clean report under-claims
// rather than inventing races.
package sharedfield

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/ssair"
)

const markAllowShared = "//bloom:allowshared"

// syncCtx is the synchronous (non-spawned) goroutine context.
const syncCtx = "sync"

// Analyzer reports struct fields shared across goroutine contexts
// without a consistent access discipline.
var Analyzer = &analysis.Analyzer{
	Name:     "sharedfield",
	Doc:      "report struct fields reached from multiple goroutines without an atomic-or-locked discipline",
	Requires: []*analysis.Analyzer{ssair.Analyzer},
	Run:      run,
}

// access is one field touch.
type access struct {
	fn     *ssair.Func
	pos    token.Pos
	write  bool
	atomic bool
	addr   bool
	held   []string // lock keys provably held
}

func run(pass *analysis.Pass) (interface{}, error) {
	idx := pass.ResultOf[ssair.Analyzer].(*ssair.Index)

	waived := collectWaivers(pass)

	// ---- goroutine context assignment ----

	ctxs := map[*ssair.Func]map[string]bool{}
	for _, f := range idx.Funcs {
		ctxs[f] = map[string]bool{}
	}
	addCtx := func(f *ssair.Func, c string) bool {
		if f == nil || ctxs[f][c] {
			return false
		}
		ctxs[f][c] = true
		return true
	}

	// Functions declared in _test.go files are invisible throughout: no
	// spawn contexts, no synchronous-root or call-graph contribution, no
	// collected accesses. The verdict is about the package's own
	// concurrency discipline — tests deliberately hammer structures from
	// extra goroutines and call unexported internals directly (an
	// exported Test function would otherwise act as a fresh synchronous
	// root and convict fields its package never shares). Ignoring the
	// test variant wholesale keeps `go vet` (which analyzes it) in
	// agreement with the test loader (which never loads test files).
	inTest := func(f *ssair.Func) bool {
		var pos token.Pos
		switch {
		case f.Decl != nil:
			pos = f.Decl.Pos()
		case f.Lit != nil:
			pos = f.Lit.Pos()
		default:
			return false
		}
		return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
	}

	// Spawn-site scan: resolve every `go` statement's targets.
	spawned := map[*ssair.Func]bool{}
	storedLits := collectStoredClosures(pass, idx)
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			site := "go@" + pass.Fset.Position(g.Pos()).String()
			for _, f := range spawnTargets(pass, idx, storedLits, g.Call) {
				addCtx(f, site)
				spawned[f] = true
			}
			return true
		})
	}

	// Synchronous roots: exported functions, and declared functions with
	// no in-package synchronous caller and no spawn site (entry points
	// for tests, main, and importers).
	callees := map[*ssair.Func][]*ssair.Func{} // synchronous edges
	hasSyncCaller := map[*ssair.Func]bool{}
	for _, f := range idx.Funcs {
		if inTest(f) {
			continue
		}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				ins := &b.Instrs[i]
				switch ins.Kind {
				case ssair.KCall:
					var g *ssair.Func
					if ins.Closure != nil {
						g = ins.Closure
					} else if ins.Callee != nil {
						g = idx.ByObj[ins.Callee.Origin()]
					}
					if g != nil {
						callees[f] = append(callees[f], g)
						hasSyncCaller[g] = true
					}
				case ssair.KClosure:
					// A stored callback runs somewhere; approximate with
					// its creator's contexts.
					callees[f] = append(callees[f], ins.Closure)
					hasSyncCaller[ins.Closure] = true
				}
			}
		}
	}
	for _, f := range idx.Funcs {
		if inTest(f) {
			continue
		}
		if f.Obj != nil && (f.Obj.Exported() || (!hasSyncCaller[f] && !spawned[f])) {
			addCtx(f, syncCtx)
		}
	}

	// Propagate contexts caller → callee to fixpoint.
	for {
		changed := false
		for _, f := range idx.Funcs {
			for _, g := range callees[f] {
				for c := range ctxs[f] {
					if addCtx(g, c) {
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}

	// ---- field access collection ----

	accesses := map[*types.Var][]access{}
	for _, f := range idx.Funcs {
		if inTest(f) {
			continue
		}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				ins := &b.Instrs[i]
				if ins.Kind != ssair.KField || ins.Field == nil {
					continue
				}
				if ins.Field.Pkg() != pass.Pkg || waived[ins.Field] {
					continue
				}
				if ins.Base != nil && f.FreshLocals[ins.Base] {
					continue // initializing a not-yet-published value
				}
				if isValueCopyBase(ins.Base) {
					continue // touches a by-value stack copy, not shared storage
				}
				var held []string
				for _, h := range ins.Held {
					held = append(held, ssair.LockKey(h.Obj))
				}
				accesses[ins.Field] = append(accesses[ins.Field], access{
					fn: f, pos: ins.Pos, write: ins.Write, atomic: ins.Atomic, addr: ins.Addr, held: held,
				})
			}
		}
	}

	// ---- per-field discipline check ----

	type finding struct {
		pos token.Pos
		msg string
	}
	var findings []finding

	for field, accs := range accesses {
		fieldCtxs := map[string]bool{}
		for _, a := range accs {
			for c := range ctxs[a.fn] {
				fieldCtxs[c] = true
			}
		}
		if len(fieldCtxs) < 2 {
			continue // confined to one goroutine context
		}

		allAtomic, anyAtomic, anyWrite := true, false, false
		for _, a := range accs {
			if a.atomic {
				anyAtomic = true
			} else {
				allAtomic = false
			}
			if a.write {
				anyWrite = true
			}
		}
		if allAtomic {
			continue
		}
		if !anyWrite {
			continue // published once, read-only afterwards
		}

		// One common lock across every plain access? (Atomic accesses
		// need no lock: locked plain writes with atomic fast-path reads
		// is a sanctioned double-checked idiom.)
		var common map[string]bool
		for _, a := range accs {
			if a.atomic {
				continue
			}
			if common == nil {
				common = map[string]bool{}
				for _, k := range a.held {
					common[k] = true
				}
				continue
			}
			next := map[string]bool{}
			for _, k := range a.held {
				if common[k] {
					next[k] = true
				}
			}
			common = next
		}
		if len(common) > 0 {
			continue
		}

		// Report at the first lockless plain access.
		sort.Slice(accs, func(i, j int) bool { return accs[i].pos < accs[j].pos })
		at, what := accs[0].pos, describe(accs[0])
		for _, a := range accs {
			if !a.atomic && len(a.held) == 0 {
				at, what = a.pos, describe(a)
				break
			}
		}
		detail := "accesses must be all-atomic or share one lock"
		if anyAtomic {
			detail = "mixes atomic and plain access"
		}
		findings = append(findings, finding{
			pos: at,
			msg: "field " + ownerName(field) + "." + field.Name() + " is reached from " +
				strconv.Itoa(len(fieldCtxs)) + " goroutine contexts but " + what + "; " + detail +
				" (" + markAllowShared + " to waive)",
		})
	}

	sort.Slice(findings, func(i, j int) bool { return findings[i].pos < findings[j].pos })
	for _, f := range findings {
		pass.Reportf(f.pos, "%s", f.msg)
	}
	return nil, nil
}

// isValueCopyBase reports whether an access roots at a function-local
// variable — parameter, receiver, or local — of value (non-pointer) type:
// base.field then addresses a stack copy, so mutating it cannot race.
// The by-value options idiom, (cfg Config) withDefaults() normalizing its
// own copy, is the common instance.
func isValueCopyBase(base types.Object) bool {
	v, ok := base.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if v.Parent() == nil || (v.Pkg() != nil && v.Parent() == v.Pkg().Scope()) {
		return false // package-level storage is shared
	}
	_, isPtr := v.Type().Underlying().(*types.Pointer)
	return !isPtr
}

func describe(a access) string {
	switch {
	case a.addr:
		return "its address escapes here"
	case a.write:
		return "is written plainly here"
	default:
		return "is read plainly here"
	}
}

func ownerName(field *types.Var) string {
	if owner := ssair.OwnerName(field); owner != "" {
		return owner
	}
	return "(?)"
}

// collectWaivers finds fields waived by //bloom:allowshared: on the
// field's own comment, or on its struct type's doc comment.
func collectWaivers(pass *analysis.Pass) map[*types.Var]bool {
	waived := map[*types.Var]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				typeWaived := hasMarker(gd.Doc, markAllowShared) || hasMarker(ts.Doc, markAllowShared) ||
					hasMarker(ts.Comment, markAllowShared)
				for _, f := range st.Fields.List {
					if !typeWaived && !hasMarker(f.Doc, markAllowShared) && !hasMarker(f.Comment, markAllowShared) {
						continue
					}
					for _, name := range f.Names {
						if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
							waived[v] = true
						}
					}
				}
			}
		}
	}
	return waived
}

// collectStoredClosures maps func-typed variables and fields to the
// function literals assigned to them anywhere in the package, for
// resolving `go x.fn()` spawns through stored closures.
func collectStoredClosures(pass *analysis.Pass, idx *ssair.Index) map[types.Object][]*ssair.Func {
	stored := map[types.Object][]*ssair.Func{}
	record := func(obj types.Object, rhs ast.Expr) {
		if obj == nil {
			return
		}
		if lit, ok := stripParens(rhs).(*ast.FuncLit); ok {
			if f := idx.ByLit[lit]; f != nil {
				stored[obj] = append(stored[obj], f)
			}
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i := range s.Lhs {
						record(lhsObject(pass, s.Lhs[i]), s.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if i < len(s.Values) {
						record(pass.TypesInfo.Defs[name], s.Values[i])
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := s.Key.(*ast.Ident); ok {
					record(pass.TypesInfo.Uses[id], s.Value)
				}
			}
			return true
		})
	}
	return stored
}

func lhsObject(pass *analysis.Pass, lhs ast.Expr) types.Object {
	switch e := stripParens(lhs).(type) {
	case *ast.Ident:
		return pass.TypesInfo.ObjectOf(e)
	case *ast.SelectorExpr:
		return pass.TypesInfo.ObjectOf(e.Sel)
	}
	return nil
}

// spawnTargets resolves the functions a `go` call may run.
func spawnTargets(pass *analysis.Pass, idx *ssair.Index, stored map[types.Object][]*ssair.Func, call *ast.CallExpr) []*ssair.Func {
	switch fun := stripParens(call.Fun).(type) {
	case *ast.FuncLit:
		if f := idx.ByLit[fun]; f != nil {
			return []*ssair.Func{f}
		}
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			if f := idx.ByObj[fn.Origin()]; f != nil {
				return []*ssair.Func{f}
			}
			return nil
		}
		return stored[pass.TypesInfo.ObjectOf(fun)]
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			if f := idx.ByObj[fn.Origin()]; f != nil {
				return []*ssair.Func{f}
			}
			return nil
		}
		return stored[pass.TypesInfo.ObjectOf(fun.Sel)]
	}
	return nil
}

func stripParens(x ast.Expr) ast.Expr {
	for {
		p, ok := x.(*ast.ParenExpr)
		if !ok {
			return x
		}
		x = p.X
	}
}

// hasMarker reports whether the comment group contains the marker as a
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
