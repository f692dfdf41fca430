package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// keep lists the exported functions and methods in internal/ that no
// non-test code calls but that stay exported, each with the reason. The
// unused pass fails on any other exported function without a caller, and
// on an entry here that is gone or has gained one. Each kept function's
// doc comment names the test, benchmark or output that relies on it.
var keep = map[string]string{
	// Oracles: slow or independent references a fast path is checked
	// against.
	"assign.OptExact":                   "oracle: exact OPT behind TestOptExact*; E6's table note cites it",
	"core.PrefixConnected":              "oracle: temporal's prefix tests check ConnectedPrefix against it",
	"graph.Graph.Validate":              "oracle: CSR invariants the generator, mutation and relabel tests check",
	"rng.Stream.Bernoulli":              "oracle: one-draw reference for the coin kernels and dist.Binomial",
	"stats.ChiSquare":                   "oracle: goodness-of-fit statistic of the dist and avail conformance tests",
	"stats.ChiSquareQuantile":           "oracle: critical values of the dist and avail conformance tests",
	"temporal.Network.ArrivalRowsBatch": "oracle: the word scan's rows, checked against the frontier kernel",
	"temporal.Network.Reverse":          "oracle: time-reversal dual behind the latest-departure and reverse duality tests",

	// Benchmark subjects: called by a benchmark in bench_test.go.
	"obs.ParseTraceparentBytes": "benchmark subject: BenchmarkObsInjectExtract",
	"rng.Stream.Perm":           "benchmark subject: BenchmarkKernelDiameterRegimes",
	"temporal.NewTreachScratch": "benchmark subject: BenchmarkKernelTreach and BenchmarkKernelTreachClique",
	"temporal.ReachableSets":    "benchmark subject: BenchmarkKernelMultiSourceReach",

	// Theorem scales, kept for a table of the paper's claims checked as
	// executable assertions.
	"core.BoxCoverageFailureBound": "theorem scale: Theorem 7's union bound",
	"core.ConnectivityThresholdP":  "theorem scale: the Erdős–Rényi connectivity threshold",
	"core.TDUpperBoundScale":       "theorem scale: Theorem 4's ln n",

	// Test fixtures another package's tests use.
	"bitset.Set.Count":       "test fixture: temporal's tests count ReachableSets' sets",
	"graph.Lollipop":         "test fixture: assign's TestBoxesClaim1AllFamilies",
	"rng.Stream.NormFloat64": "test fixture: normal draws in stats' and sweep's tests",
	"sim.Results.Names":      "test fixture: the differential tests of package sim_test",
	"sim.Results.Trials":     "test fixture: package sim_test and service's manager_test.go",
	"stats.Sample.Values":    "test fixture: sim's differential tests compare values in order",

	// Called only by their own package's tests, which would go with them:
	// candidates for deletion, each naming those tests.
	"bitset.Set.Clear":      "own tests only: TestFillTrimAndClear",
	"bitset.Set.Clone":      "own tests only: TestSetOps, TestCloneIndependence, TestQuickInclusionExclusion",
	"bitset.Set.CopyFrom":   "own tests only: TestCopyFrom, TestSetOpsCapacityMismatchPanics",
	"bitset.Set.Equal":      "own tests only: TestEqual, TestCopyFrom",
	"bitset.Set.Fill":       "own tests only: TestFillTrimAndClear",
	"bitset.Set.Grow":       "own tests only: TestGrow",
	"bitset.Set.Intersect":  "own tests only: TestSetOps, TestSetOpsCapacityMismatchPanics, TestQuickInclusionExclusion",
	"bitset.Set.Next":       "own tests only: TestNextIteration, TestNewZeroCap",
	"bitset.Set.Remove":     "own tests only: TestAddContainsRemove, TestOutOfRangePanics, TestQuickAgainstMapModel",
	"bitset.Set.Subtract":   "own tests only: TestSetOps, TestSetOpsCapacityMismatchPanics",
	"bitset.Set.TestAndAdd": "own tests only: TestTestAndAdd, TestOutOfRangePanics",
	"bitset.Set.Union":      "own tests only: TestSetOps, TestSetOpsCapacityMismatchPanics, TestQuickInclusionExclusion",
}

// checkUnused type-checks the non-test Go of every package under rootDir
// (cmd/, examples/ and nested modules such as perfbench/ included) and
// returns one problem per exported function or method declared under
// internal/ that nothing outside its own body references, unless
// keepList names it, and one per keepList entry that is gone or has a
// caller. Tests are never loaded, so they never count as callers. A
// method through which an interface is satisfied is not checked: calls
// through the interface do not name it.
func checkUnused(rootDir string, keepList map[string]string) ([]string, error) {
	l, err := newLoader(rootDir)
	if err != nil {
		return nil, err
	}
	err = filepath.WalkDir(l.root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		// The go command ignores testdata and names starting with . or _.
		if name := d.Name(); dir != l.root && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(l.root, dir)
		_, err = l.load(path.Join(l.module, filepath.ToSlash(rel)), dir)
		return err
	})
	if err != nil {
		return nil, err
	}

	type candidate struct {
		name, at, caller string
		decl             *ast.FuncDecl
	}
	ifaces := l.interfaces()
	cands := map[*types.Func]*candidate{}
	for _, p := range l.repo {
		short, ok := strings.CutPrefix(p.rel, "internal/")
		if !ok {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				name := short + "." + fd.Name.Name
				if fd.Recv != nil {
					recv := receiverNamed(fn)
					if !recv.Obj().Exported() || satisfiesInterface(recv, fn.Name(), ifaces) {
						continue
					}
					name = short + "." + recv.Obj().Name() + "." + fd.Name.Name
				}
				cands[fn] = &candidate{name: name, at: l.pos(fd.Pos()), decl: fd}
			}
		}
	}
	for _, p := range l.repo {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			c := cands[fn.Origin()]
			if c == nil || id.Pos() >= c.decl.Pos() && id.Pos() < c.decl.End() {
				continue
			}
			if at := l.pos(id.Pos()); c.caller == "" || at < c.caller {
				c.caller = at
			}
		}
	}

	var problems []string
	checked := map[string]bool{}
	for _, c := range cands {
		checked[c.name] = true
		reason, kept := keepList[c.name]
		switch {
		case kept && c.caller != "":
			problems = append(problems, fmt.Sprintf("%s: %s is kept (%s) but %s calls it; drop it from the keep-list", c.at, c.name, reason, c.caller))
		case !kept && c.caller == "":
			problems = append(problems, fmt.Sprintf("%s: %s is exported but has no non-test caller; delete it or add it to the keep-list", c.at, c.name))
		}
	}
	sort.Strings(problems)
	var gone []string
	for name := range keepList {
		if !checked[name] {
			gone = append(gone, fmt.Sprintf("cmd/docslint: keep-list names %s, which is not an exported function or method the pass checks", name))
		}
	}
	sort.Strings(gone)
	return append(problems, gone...), nil
}

// receiverNamed returns the named type a method is declared on.
func receiverNamed(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// satisfiesInterface reports whether recv (or a pointer to it) implements
// one of ifaces that has a method called method.
func satisfiesInterface(recv *types.Named, method string, ifaces []*types.Interface) bool {
	if recv.TypeParams().Len() > 0 {
		return false // Implements is unspecified for uninstantiated types
	}
	for _, it := range ifaces {
		for m := range it.Methods() {
			if m.Name() == method && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
	}
	return false
}

// pkg is one type-checked package.
type pkg struct {
	rel   string // slash path under the root; "" for the standard library
	types *types.Package
	files []*ast.File
	info  *types.Info // nil for the standard library
}

// loader type-checks the repository's packages, and the standard library
// they import, from source: the pass needs no export data, no go command
// and no cgo (CgoEnabled is off, so build tags pick the pure-Go files).
type loader struct {
	root, module string
	ctxt         build.Context
	fset         *token.FileSet
	pkgs         map[string]*pkg // by import path
	repo         []*pkg          // the repository's packages, in load order
}

var moduleLine = regexp.MustCompile(`(?m)^module\s+"?([^\s"]+)`)

func newLoader(rootDir string) (*loader, error) {
	root, err := filepath.Abs(rootDir)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := moduleLine.FindSubmatch(gomod)
	if m == nil {
		return nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &loader{root: root, module: string(m[1]), ctxt: ctxt, fset: token.NewFileSet(), pkgs: map[string]*pkg{}}, nil
}

// Import and ImportFrom implement types.ImporterFrom. The module's own
// paths load from the tree (a nested module named after its directory,
// like repro/perfbench, resolves the same way); the rest from GOROOT.
func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, l.root, 0) }

func (l *loader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	dir := filepath.Join(l.root, strings.TrimPrefix(path, l.module))
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		bp, err := l.ctxt.Import(path, srcDir, build.FindOnly)
		if err != nil {
			return nil, err
		}
		path, dir = bp.ImportPath, bp.Dir
	}
	p, err := l.load(path, dir)
	if err == nil && p == nil {
		err = fmt.Errorf("import %q: no Go files in %s", path, dir)
	}
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load parses and type-checks the non-test files of the package in dir,
// once; it returns nil for a directory without Go files. Standard-library
// function bodies are skipped: only their API matters here.
func (l *loader) load(path, dir string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	p := &pkg{}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if !bp.Goroot {
		rel, _ := filepath.Rel(l.root, dir)
		p.rel = filepath.ToSlash(rel)
		p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{}}
	}
	conf := types.Config{Importer: l, IgnoreFuncBodies: bp.Goroot}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	l.pkgs[path] = p
	if p.info != nil {
		l.repo = append(l.repo, p)
	}
	return p, nil
}

// pos renders a position as a slash path under the root and a line.
func (l *loader) pos(at token.Pos) string {
	p := l.fset.Position(at)
	rel, _ := filepath.Rel(l.root, p.Filename)
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
}

// interfaces returns the interfaces a method can be called through: the
// named non-generic ones declared at package level in every loaded
// package, the standard library's included, and the interface literals
// in the repository's code (a type assertion to interface{ SampleInto(…) }).
func (l *loader) interfaces() []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	for _, p := range l.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
					add(named)
				}
			}
		}
		if p.info == nil {
			continue
		}
		for expr, tv := range p.info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				add(tv.Type)
			}
		}
	}
	return out
}
