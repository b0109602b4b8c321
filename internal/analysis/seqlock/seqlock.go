// Package seqlock checks the version-counter discipline of seqlock-style
// registers (internal/register.Seqlock and anything shaped like it).
//
// A seqlock read is allowed to race with a write by construction; what
// makes the race benign is a strict protocol around the version counter:
//
//   - the writer completes every store into the data slots before the
//     version increment that publishes them (in the classic odd/even
//     bracket, between the two increments);
//   - the reader loads the version, copies the slots, and then re-checks
//     the version — returning the copy only if it did not move.
//
// Break either half and a torn value escapes: a slot store after the
// publishing increment is visible to a reader that already re-checked, and
// a reader that skips the re-check returns bytes half-old, half-new. Both
// mistakes are silent at runtime on almost every schedule, which is why
// this analyzer pins them down statically.
//
// A struct participates if it has a version field — an atomic integer
// (atomic.Uint32/Uint64/Int32/Int64) named like a version counter
// ("version", "seq", "ver") or carrying a //bloom:seqlock-version comment —
// alongside slot fields: arrays or slices (possibly nested) of atomic
// integers. Within each method of such a struct the analyzer classifies
// each atomic call on the version field or on the slot fields (directly,
// or through a local alias such as slot := r.slots[v1&1]) as a version
// load, a version increment, a slot store, or a slot load — atomics
// unrelated to the seqlock, like side-channel counters, are ignored — and
// checks, in source order:
//
//   - writer methods (≥1 slot store and, if correct, ≥1 version increment):
//     all slot stores precede the final version increment; with two or
//     more increments (the classic bracket) the stores also follow the
//     first one; a writer with no increment at all is reported.
//   - reader methods (≥1 slot load, no slot store): after the last slot
//     load there is a comparison of the version against an earlier load.
//
// Source order approximates execution order, which is exact for the
// straight-line bodies this shape produces (the reader's retry loop only
// repeats the correctly-ordered body). Constructors are exempt: they are
// free functions, not methods, and initialize slots before the value is
// shared.
//
// A struct the analyzer does not recognise, or a method whose slot
// accesses it cannot see (a slot reached through a slice expression, say),
// is simply not checked, and nothing is reported. The analyzer's Result
// therefore names every struct it recognised and the methods it checked
// as writers and readers, so tests can pin that a register is covered.
package seqlock

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// markVersion explicitly tags a struct field as a seqlock version counter.
const markVersion = "//bloom:seqlock-version"

// Analyzer checks seqlock writer/reader version-counter discipline.
var Analyzer = &analysis.Analyzer{
	Name:       "seqlock",
	Doc:        "check that seqlock writers bracket slot stores with the version counter and readers re-check it",
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	Run:        run,
	ResultType: reflect.TypeOf(Result(nil)),
}

// Result maps each seqlock struct the analyzer recognised in a package,
// by type name, to the methods it checked in each role.
type Result map[string]*Roles

// Roles names, in source order, a seqlock struct's methods checked as
// writers (they store into the slots) and as readers (they only load).
type Roles struct {
	Writers, Readers []string
}

// versionNames are field names treated as version counters.
var versionNames = map[string]bool{"version": true, "seq": true, "ver": true}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// Pass 1: find seqlock structs, their version fields, and their slot
	// fields.
	versionFields := map[types.Object]bool{} // the version field objects
	slotFields := map[types.Object]bool{}    // the data-slot field objects
	seqlockStructs := map[*types.TypeName]bool{}
	ins.Preorder([]ast.Node{(*ast.TypeSpec)(nil)}, func(n ast.Node) {
		ts := n.(*ast.TypeSpec)
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return
		}
		var version, slots []types.Object
		for _, f := range st.Fields.List {
			for _, name := range f.Names {
				obj := pass.TypesInfo.Defs[name]
				if obj == nil {
					continue
				}
				switch {
				case isAtomicInt(obj.Type()) &&
					(versionNames[strings.ToLower(name.Name)] || hasFieldMarker(f)):
					version = append(version, obj)
				case containsAtomicInt(obj.Type()):
					slots = append(slots, obj)
				}
			}
		}
		if len(version) > 0 && len(slots) > 0 {
			if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
				seqlockStructs[tn] = true
				for _, v := range version {
					versionFields[v] = true
				}
				for _, s := range slots {
					slotFields[s] = true
				}
			}
		}
	})
	res := Result{}
	for tn := range seqlockStructs {
		res[tn.Name()] = &Roles{}
	}
	if len(res) == 0 {
		return res, nil
	}

	// Pass 2: check each method of a seqlock struct.
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Recv == nil || fd.Body == nil {
			return
		}
		recv := receiverTypeName(pass, fd)
		if recv == nil || !seqlockStructs[recv] {
			return
		}
		roles := res[recv.Name()]
		switch checkMethod(pass, fd, versionFields, slotFields) {
		case writer:
			roles.Writers = append(roles.Writers, fd.Name.Name)
		case reader:
			roles.Readers = append(roles.Readers, fd.Name.Name)
		}
	})
	return res, nil
}

// role is what checkMethod found a method to be.
type role int

const (
	neither role = iota
	writer
	reader
)

// event is one classified atomic operation in a method body.
type event struct {
	kind eventKind
	pos  token.Pos
	node ast.Node
}

type eventKind int

const (
	versionLoad eventKind = iota
	versionAdd
	slotStore
	slotLoad
	versionCmp
)

// checkMethod checks one method of a seqlock struct and returns the role
// it was checked in.
func checkMethod(pass *analysis.Pass, fd *ast.FuncDecl, versionFields, slotFields map[types.Object]bool) role {
	var events []event
	// snapshots are local variables assigned from a version load (v1 :=
	// r.version.Load()); comparisons against them count as re-checks.
	snapshots := map[types.Object]bool{}
	// slotAliases are locals assigned from a slot field (slot :=
	// r.slots[v1&1]); atomic calls through them are slot accesses.
	slotAliases := map[types.Object]bool{}

	isSlotUse := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		for {
			ix, ok := e.(*ast.IndexExpr)
			if !ok {
				break
			}
			e = ast.Unparen(ix.X)
		}
		if isFieldUse(pass, e, slotFields) {
			return true
		}
		if id, ok := e.(*ast.Ident); ok {
			return slotAliases[pass.TypesInfo.Uses[id]]
		}
		return false
	}

	add := func(kind eventKind, n ast.Node) {
		events = append(events, event{kind: kind, pos: n.Pos(), node: n})
	}

	isVersionLoadExpr := func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Load" {
			return false
		}
		return isFieldUse(pass, sel.X, versionFields)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// v1 := r.version.Load() records a snapshot variable; slot :=
			// r.slots[v1&1] records a slot alias.
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					id, ok := n.Lhs[i].(*ast.Ident)
					if !ok {
						continue
					}
					obj := pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = pass.TypesInfo.Uses[id]
					}
					if obj == nil {
						continue
					}
					switch {
					case isVersionLoadExpr(rhs):
						snapshots[obj] = true
					case isSlotUse(rhs):
						slotAliases[obj] = true
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return true
			}
			for _, side := range []ast.Expr{n.X, n.Y} {
				if isVersionLoadExpr(side) || isSnapshotUse(pass, side, snapshots) {
					add(versionCmp, n)
					return true
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if fn == nil || !isAtomicIntMethodRecv(fn) {
				return true
			}
			onVersion := isFieldUse(pass, sel.X, versionFields)
			onSlot := !onVersion && isSlotUse(sel.X)
			switch sel.Sel.Name {
			case "Load":
				if onVersion {
					add(versionLoad, n)
				} else if onSlot {
					add(slotLoad, n)
				}
			case "Add", "CompareAndSwap", "Swap", "Store":
				if onVersion {
					add(versionAdd, n) // any RMW or store publishes
				} else if onSlot {
					add(slotStore, n)
				}
			}
		}
		return true
	})

	var stores, loads, adds, cmps []event
	for _, e := range events {
		switch e.kind {
		case slotStore:
			stores = append(stores, e)
		case slotLoad:
			loads = append(loads, e)
		case versionAdd:
			adds = append(adds, e)
		case versionCmp:
			cmps = append(cmps, e)
		}
	}

	name := fd.Name.Name
	switch {
	case len(stores) > 0:
		// Writer discipline.
		if len(adds) == 0 {
			pass.Reportf(fd.Name.Pos(),
				"seqlock writer %s stores into the slots but never advances the version counter; readers cannot detect the torn window", name)
			return writer
		}
		first, last := adds[0].pos, adds[len(adds)-1].pos
		for _, s := range stores {
			if s.pos > last {
				pass.Reportf(s.pos,
					"seqlock writer %s stores into a slot after the version counter was published; all slot stores must precede the final version increment", name)
			} else if len(adds) >= 2 && s.pos < first {
				pass.Reportf(s.pos,
					"seqlock writer %s stores into a slot before the version counter entered the write bracket; slot stores must sit between the two increments", name)
			}
		}
		return writer
	case len(loads) > 0:
		// Reader discipline: a version re-check must follow the slot copy.
		lastLoad := loads[len(loads)-1].pos
		for _, c := range cmps {
			if c.pos > lastLoad {
				return reader // re-check after the copy: correct
			}
		}
		if len(cmps) == 0 {
			pass.Reportf(fd.Name.Pos(),
				"seqlock reader %s copies the slots but never re-checks the version counter; a torn read can escape", name)
		} else {
			pass.Reportf(fd.Name.Pos(),
				"seqlock reader %s re-checks the version counter before the slot copy completes; the re-check must follow the last slot load", name)
		}
		return reader
	}
	return neither
}

// receiverTypeName resolves a method's receiver to the named type it is
// declared on (through pointers and generic instantiation).
func receiverTypeName(pass *analysis.Pass, fd *ast.FuncDecl) *types.TypeName {
	if len(fd.Recv.List) != 1 {
		return nil
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// isFieldUse reports whether e denotes one of the given field objects
// (e.g. r.version).
func isFieldUse(pass *analysis.Pass, e ast.Expr, fields map[types.Object]bool) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if s := pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		return fields[s.Obj()]
	}
	return false
}

// isSnapshotUse reports whether e is a use of a recorded version-snapshot
// variable.
func isSnapshotUse(pass *analysis.Pass, e ast.Expr, snapshots map[types.Object]bool) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	return snapshots[pass.TypesInfo.Uses[id]]
}

// isAtomicInt reports whether t is one of sync/atomic's integer types.
func isAtomicInt(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return false
	}
	switch obj.Name() {
	case "Uint32", "Uint64", "Int32", "Int64", "Uintptr":
		return true
	}
	return false
}

// containsAtomicInt reports whether t is an array or slice (possibly
// nested) whose element type is an atomic integer — the shape of seqlock
// data slots.
func containsAtomicInt(t types.Type) bool {
	switch t := t.(type) {
	case *types.Array:
		return isAtomicInt(t.Elem()) || containsAtomicInt(t.Elem())
	case *types.Slice:
		return isAtomicInt(t.Elem()) || containsAtomicInt(t.Elem())
	}
	return false
}

// isAtomicIntMethodRecv reports whether fn is a method of a sync/atomic
// integer type.
func isAtomicIntMethodRecv(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return isAtomicInt(t)
}

// hasFieldMarker reports whether the field carries the explicit
// //bloom:seqlock-version marker in its doc or line comment.
func hasFieldMarker(f *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.TrimSpace(c.Text) == markVersion {
				return true
			}
		}
	}
	return false
}
