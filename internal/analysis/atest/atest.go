// Package atest is a self-contained harness for the bloomvet analyzers —
// an offline stand-in for golang.org/x/tools/go/analysis/analysistest,
// which is not part of the x/tools subset vendored from the Go
// distribution (third_party/golang.org/x/tools).
//
// It loads packages with go/parser and go/types directly (standard-library
// imports are typechecked from GOROOT source, module-internal imports from
// the repository tree, testdata imports from the analyzer's testdata/src
// directory), runs an analyzer and its Requires prerequisites in
// dependency order with an in-memory fact store, and checks reported
// diagnostics against analysistest-style `// want "regexp"` comments.
package atest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// Loader loads and typechecks packages for analysis. A single Loader
// caches packages and facts across Run/Check calls, so a dependency (and
// the standard library underneath it) is typechecked once per Loader.
type Loader struct {
	Fset *token.FileSet

	// roots maps an import-path prefix to the directory holding its
	// packages; the longest matching prefix wins. The empty prefix serves
	// testdata imports ("a" → <dir>/a).
	roots []root

	std   types.Importer
	pkgs  map[string]*pkg
	facts *factStore
}

type root struct {
	prefix string
	dir    string
}

type pkg struct {
	path  string
	files []*ast.File
	tpkg  *types.Package
	info  *types.Info
	// results memoizes analyzer runs: analyzer → result.
	results map[*analysis.Analyzer]interface{}
	// diags collects the diagnostics each analyzer reported on this
	// package.
	diags map[*analysis.Analyzer][]analysis.Diagnostic
}

// NewLoader returns a loader that resolves each prefix from the paired
// directory (see Loader.roots) and everything else from GOROOT source.
func NewLoader(prefixDirs map[string]string) *Loader {
	fset := token.NewFileSet()
	l := &Loader{
		Fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*pkg{},
		facts: newFactStore(),
	}
	for prefix, dir := range prefixDirs {
		l.roots = append(l.roots, root{prefix: prefix, dir: dir})
	}
	// Longest prefix first.
	sort.Slice(l.roots, func(i, j int) bool { return len(l.roots[i].prefix) > len(l.roots[j].prefix) })
	return l
}

// Import implements types.Importer over the loader's roots, falling back
// to the GOROOT source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	for _, r := range l.roots {
		var rel string
		switch {
		case r.prefix == "" && !strings.Contains(path, "."):
			rel = path
		case path == r.prefix:
			rel = "."
		case strings.HasPrefix(path, r.prefix+"/"):
			rel = strings.TrimPrefix(path, r.prefix+"/")
		default:
			continue
		}
		dir := filepath.Join(r.dir, filepath.FromSlash(rel))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			p, err := l.load(path, dir)
			if err != nil {
				return nil, err
			}
			return p.tpkg, nil
		}
	}
	return l.std.Import(path)
}

// load parses and typechecks the package in dir (memoized by import path).
func (l *Loader) load(path, dir string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("atest: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:        map[ast.Expr]types.TypeAndValue{},
		Instances:    map[*ast.Ident]types.Instance{},
		Defs:         map[*ast.Ident]types.Object{},
		Uses:         map[*ast.Ident]types.Object{},
		Implicits:    map[ast.Node]types.Object{},
		Selections:   map[*ast.SelectorExpr]*types.Selection{},
		Scopes:       map[ast.Node]*types.Scope{},
		FileVersions: map[*ast.File]string{},
	}
	conf := &types.Config{Importer: l, Sizes: sizes()}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("atest: typechecking %s: %v", path, err)
	}
	p := &pkg{
		path:    path,
		files:   files,
		tpkg:    tpkg,
		info:    info,
		results: map[*analysis.Analyzer]interface{}{},
		diags:   map[*analysis.Analyzer][]analysis.Diagnostic{},
	}
	l.pkgs[path] = p
	return p, nil
}

func sizes() types.Sizes {
	if s := types.SizesFor("gc", runtime.GOARCH); s != nil {
		return s
	}
	return types.SizesFor("gc", "amd64")
}

// run applies a (and, first, its Requires closure and its fact passes over
// dependencies) to the package, memoized.
func (l *Loader) run(a *analysis.Analyzer, p *pkg) (interface{}, error) {
	if res, ok := p.results[a]; ok {
		return res, nil
	}
	// Fact-producing analyzers must have run over the package's loaded
	// dependencies first (the "vertical" dependency).
	if len(a.FactTypes) > 0 {
		for _, imp := range p.tpkg.Imports() {
			if dep, ok := l.pkgs[imp.Path()]; ok {
				if _, err := l.run(a, dep); err != nil {
					return nil, err
				}
			}
		}
	}
	resultOf := map[*analysis.Analyzer]interface{}{}
	for _, req := range a.Requires {
		res, err := l.run(req, p)
		if err != nil {
			return nil, err
		}
		resultOf[req] = res
	}
	pass := &analysis.Pass{
		Analyzer:   a,
		Fset:       l.Fset,
		Files:      p.files,
		Pkg:        p.tpkg,
		TypesInfo:  p.info,
		TypesSizes: sizes(),
		ResultOf:   resultOf,
		Report: func(d analysis.Diagnostic) {
			p.diags[a] = append(p.diags[a], d)
		},
		ReadFile:          os.ReadFile,
		ImportObjectFact:  l.facts.importObjectFact,
		ExportObjectFact:  l.facts.exportObjectFact,
		ImportPackageFact: l.facts.importPackageFact,
		ExportPackageFact: func(f analysis.Fact) { l.facts.exportPackageFact(p.tpkg, f) },
		AllObjectFacts:    func() []analysis.ObjectFact { return l.facts.allObjectFacts(a) },
		AllPackageFacts:   func() []analysis.PackageFact { return l.facts.allPackageFacts(a) },
	}
	res, err := a.Run(pass)
	if err != nil {
		return nil, fmt.Errorf("atest: %s on %s: %v", a.Name, p.path, err)
	}
	if a.ResultType != nil && res != nil && reflect.TypeOf(res) != a.ResultType {
		return nil, fmt.Errorf("atest: %s returned %T, want %v", a.Name, res, a.ResultType)
	}
	p.results[a] = res
	return res, nil
}

// factStore is the in-memory fact table shared by all packages of one
// Loader (the moral equivalent of the .facts files a real driver writes).
type factStore struct {
	obj map[types.Object]map[reflect.Type]analysis.Fact
	pkg map[*types.Package]map[reflect.Type]analysis.Fact
}

func newFactStore() *factStore {
	return &factStore{
		obj: map[types.Object]map[reflect.Type]analysis.Fact{},
		pkg: map[*types.Package]map[reflect.Type]analysis.Fact{},
	}
}

func (s *factStore) exportObjectFact(obj types.Object, f analysis.Fact) {
	m := s.obj[obj]
	if m == nil {
		m = map[reflect.Type]analysis.Fact{}
		s.obj[obj] = m
	}
	m[reflect.TypeOf(f)] = f
}

func (s *factStore) importObjectFact(obj types.Object, f analysis.Fact) bool {
	stored, ok := s.obj[obj][reflect.TypeOf(f)]
	if !ok {
		return false
	}
	reflect.ValueOf(f).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

func (s *factStore) exportPackageFact(p *types.Package, f analysis.Fact) {
	m := s.pkg[p]
	if m == nil {
		m = map[reflect.Type]analysis.Fact{}
		s.pkg[p] = m
	}
	m[reflect.TypeOf(f)] = f
}

func (s *factStore) importPackageFact(p *types.Package, f analysis.Fact) bool {
	stored, ok := s.pkg[p][reflect.TypeOf(f)]
	if !ok {
		return false
	}
	reflect.ValueOf(f).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

func (s *factStore) allObjectFacts(a *analysis.Analyzer) []analysis.ObjectFact {
	var out []analysis.ObjectFact
	for obj, m := range s.obj {
		for _, ft := range a.FactTypes {
			if f, ok := m[reflect.TypeOf(ft)]; ok {
				out = append(out, analysis.ObjectFact{Object: obj, Fact: f})
			}
		}
	}
	return out
}

func (s *factStore) allPackageFacts(a *analysis.Analyzer) []analysis.PackageFact {
	var out []analysis.PackageFact
	for p, m := range s.pkg {
		for _, ft := range a.FactTypes {
			if f, ok := m[reflect.TypeOf(ft)]; ok {
				out = append(out, analysis.PackageFact{Package: p, Fact: f})
			}
		}
	}
	return out
}

// Run loads testdata/src/<path> for each given package path, applies the
// analyzer to each in order, and checks its diagnostics against the
// `// want "regexp"` comments in those packages' sources. testdata is the
// analyzer's testdata directory (containing src/). The loader is returned
// so the test can additionally assert exported facts.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) *Loader {
	t.Helper()
	srcdir := filepath.Join(testdata, "src")
	l := NewLoader(map[string]string{"": srcdir})
	for _, path := range paths {
		p, err := l.load(path, filepath.Join(srcdir, filepath.FromSlash(path)))
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		if _, err := l.run(a, p); err != nil {
			t.Fatal(err)
		}
		checkWants(t, l, a, p)
	}
	return l
}

// Analyze loads the package at the import path through the loader's roots,
// applies the analyzer (with its Requires closure and fact passes over
// loaded dependencies), and returns its diagnostics. It is the
// testing-free entry point used by the cmd/bloomvet standalone driver.
func (l *Loader) Analyze(a *analysis.Analyzer, path string) ([]analysis.Diagnostic, error) {
	if _, err := l.Result(a, path); err != nil {
		return nil, err
	}
	return l.pkgs[path].diags[a], nil
}

// Result loads the package at the import path through the loader's roots,
// applies the analyzer, and returns its result. It lets tests assert what
// an analyzer recognised, not only what it reported.
func (l *Loader) Result(a *analysis.Analyzer, path string) (interface{}, error) {
	tp, err := l.Import(path)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %v", path, err)
	}
	p, ok := l.pkgs[tp.Path()]
	if !ok {
		return nil, fmt.Errorf("loading %s: resolved outside the loader roots", path)
	}
	return l.run(a, p)
}

// Check loads the given packages from their prefix roots, applies the
// analyzer, and returns every diagnostic it reported; it fails the test on
// load or analysis errors. Use it for self-hosting runs where the expected
// diagnostic set is empty.
func Check(t *testing.T, l *Loader, a *analysis.Analyzer, paths ...string) []analysis.Diagnostic {
	t.Helper()
	var out []analysis.Diagnostic
	for _, path := range paths {
		diags, err := l.Analyze(a, path)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diags...)
	}
	return out
}

// ObjectFacts returns the facts the analyzer exported on objects of the
// package with the given import path, rendered by their String method and
// keyed by the object's name (method facts are keyed by the
// types.Func.FullName form, e.g. "(*a.T).m"). It lets tests assert the
// facts an analyzer exports — the package-boundary currency — rather than
// only its diagnostics.
func (l *Loader) ObjectFacts(a *analysis.Analyzer, path string) map[string]string {
	out := map[string]string{}
	for _, of := range l.facts.allObjectFacts(a) {
		if of.Object.Pkg() == nil || of.Object.Pkg().Path() != path {
			continue
		}
		key := of.Object.Name()
		if fn, ok := of.Object.(*types.Func); ok {
			key = fn.FullName()
		}
		out[key] = fmt.Sprint(of.Fact)
	}
	return out
}

// PackageFact copies the analyzer-namespaced package fact of the package
// with the given import path into f, reporting whether one was exported.
// The package must already have been loaded by this Loader.
func (l *Loader) PackageFact(path string, f analysis.Fact) bool {
	p, ok := l.pkgs[path]
	if !ok {
		return false
	}
	return l.facts.importPackageFact(p.tpkg, f)
}

// wantRe extracts the quoted regexps of a `// want "..." "..."` comment;
// both double-quoted and backquoted patterns are accepted, as in
// analysistest.
var wantRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// checkWants compares the analyzer's diagnostics on p against the `// want`
// comments in p's files.
func checkWants(t *testing.T, l *Loader, a *analysis.Analyzer, p *pkg) {
	t.Helper()
	type expectation struct {
		re      *regexp.Regexp
		matched bool
	}
	expects := map[string][]*expectation{} // "file:line" → expectations
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := l.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, q := range wantRe.FindAllString(c.Text[idx+len("// want "):], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", key, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, pat, err)
					}
					expects[key] = append(expects[key], &expectation{re: re})
				}
			}
		}
	}
	for _, d := range p.diags[a] {
		pos := l.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		found := false
		for _, e := range expects[key] {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
		}
	}
	for key, es := range expects {
		for _, e := range es {
			if !e.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, e.re)
			}
		}
	}
}
