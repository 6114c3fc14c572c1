package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// This file is the whole-program loader behind Load: it discovers the module
// a directory belongs to (nearest go.mod), parses every requested package,
// pulls in module-local dependencies on demand, and type-checks everything in
// dependency order through a real file-system importer. Standard-library
// imports resolve through go/importer's source importer (GOROOT sources, cgo
// disabled so net and friends type-check without a C toolchain), so
// cross-package expressions — `*tensor.RNG` flowing into a closure, a
// `net.Conn` method reached three calls deep — carry full types.Info instead
// of degrading to invalid as they did under the old stub importer.
//
// Load problems are diagnostics, not fatal errors: a syntax-broken file or an
// import cycle among module packages is reported under the pseudo-check
// "loaderror" and the rest of the program is still checked best-effort.

// LoadErrorCheck is the pseudo-check name for loader diagnostics (parse
// failures, import cycles). It participates in -checks filtering and //nolint
// like any other check name.
const LoadErrorCheck = "loaderror"

// Program is the result of one Load: every package reached (requested or
// pulled in as a dependency) plus a program-wide index from function objects
// to their declarations, which is what lets checks resolve a callee and walk
// into its body across package boundaries.
type Program struct {
	Fset *token.FileSet
	// byPath maps import path → primary package (the package whose name
	// matches the directory, when a directory holds several clauses).
	byPath map[string]*Package
	// decls indexes every function and method declaration in the program.
	decls map[*types.Func]*declSite
}

type declSite struct {
	file *File
	decl *ast.FuncDecl
}

// FuncDecl resolves a *types.Func to its declaration and the file holding
// it, or (nil, nil) when the function is not declared in the loaded program
// (stdlib, interface method, func literal).
func (p *Program) FuncDecl(fn *types.Func) (*File, *ast.FuncDecl) {
	if p == nil || fn == nil {
		return nil, nil
	}
	if s, ok := p.decls[fn]; ok {
		return s.file, s.decl
	}
	return nil, nil
}

// CalleeFunc resolves the callee of call to its function object, using the
// file's type information. Returns nil for unresolvable callees (func-typed
// fields, builtins, type conversions, missing type info).
func (f *File) CalleeFunc(call *ast.CallExpr) *types.Func {
	if f.Pkg == nil || f.Pkg.Info == nil {
		return nil
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj := f.Pkg.Info.Uses[id]
	fn, _ := obj.(*types.Func)
	return fn
}

// stdImporter is the process-wide source importer for GOROOT packages. It is
// created once (importing net from source costs seconds; the importer caches
// every package it checks) and shared by every Load, which requires sharing
// one FileSet too.
var (
	stdOnce sync.Once
	stdImp  types.Importer
	stdFset = token.NewFileSet()
)

func stdImporter() types.Importer {
	stdOnce.Do(func() {
		// The source importer type-checks GOROOT sources via go/build.
		// Disabling cgo selects the pure-Go variants of net/os/user etc., so
		// no C toolchain is needed and the result is host-independent.
		build.Default.CgoEnabled = false
		stdImp = importer.ForCompiler(stdFset, "source", nil)
	})
	return stdImp
}

// moduleOf locates the nearest enclosing go.mod for dir and returns the
// module root and module path. Directories outside any module get themselves
// as root and their base name as a synthetic module path.
func moduleOf(dir string) (root, path string) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir, filepath.Base(dir)
	}
	for d := abs; ; {
		if p, ok := readModulePath(filepath.Join(d, "go.mod")); ok {
			return d, p
		}
		parent := filepath.Dir(d)
		if parent == d {
			return abs, filepath.Base(abs)
		}
		d = parent
	}
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, bool) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), true
		}
	}
	return "", false
}

// pkgState tracks where a package is in the load pipeline, which is how the
// loader detects import cycles (importing a package that is still loading).
type pkgState int

const (
	stateParsed pkgState = iota
	stateLoading
	stateTyped
)

// loader drives one Load call.
type loader struct {
	fset    *token.FileSet
	prog    *Program
	byDir   map[string][]*Package // abs dir → packages parsed there
	modRoot map[string]string     // abs dir → module root
	modPath map[string]string     // abs dir → module path
}

// Load discovers, parses, and type-checks packages under the given roots. A
// root ending in "/..." is walked recursively (testdata, vendor, and hidden
// directories are skipped; name them explicitly to lint them). Module-local
// imports — including imports of packages outside the requested roots — are
// loaded from the file system in dependency order, so type information is
// whole-program. Load fails only on unusable roots; broken source inside the
// tree surfaces as "loaderror" diagnostics on the affected packages.
func Load(roots []string) ([]*Package, error) {
	dirs, err := expandRoots(roots)
	if err != nil {
		return nil, err
	}
	ld := &loader{
		fset:    stdFset,
		prog:    &Program{Fset: stdFset, byPath: map[string]*Package{}, decls: map[*types.Func]*declSite{}},
		byDir:   map[string][]*Package{},
		modRoot: map[string]string{},
		modPath: map[string]string{},
	}
	var requested []*Package
	for _, dir := range dirs {
		requested = append(requested, ld.parseDir(dir)...)
	}
	for _, pkg := range requested {
		ld.ensureTyped(pkg)
	}
	return requested, nil
}

func expandRoots(roots []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		key := dir
		if abs, err := filepath.Abs(dir); err == nil {
			key = abs
		}
		if !seen[key] {
			seen[key] = true
			dirs = append(dirs, dir)
		}
	}
	for _, root := range roots {
		recursive := false
		if strings.HasSuffix(root, "...") {
			recursive = true
			root = strings.TrimSuffix(root, "...")
			root = strings.TrimSuffix(root, string(filepath.Separator))
			root = strings.TrimSuffix(root, "/")
			if root == "" || root == "." {
				root = "."
			}
		}
		info, err := os.Stat(root)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("lint: %s is not a directory", root)
		}
		if !recursive {
			add(root)
			continue
		}
		err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: walk %s: %w", root, err)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// absDir canonicalizes a directory for identity purposes (the same directory
// may be reached as a requested root and as a dependency).
func absDir(dir string) string {
	if abs, err := filepath.Abs(dir); err == nil {
		return abs
	}
	return dir
}

// parseDir parses every .go file in dir (grouping by package clause: a
// directory can legally hold pkg and pkg_test), computes import paths from
// the enclosing module, and registers the results with the program. Parse
// failures become loaderror diagnostics on the directory's primary package.
func (ld *loader) parseDir(dir string) []*Package {
	key := absDir(dir)
	if pkgs, ok := ld.byDir[key]; ok {
		return pkgs
	}
	modRoot, modPath := moduleOf(key)
	ld.modRoot[key] = modRoot
	ld.modPath[key] = modPath
	pkgPath := modPath
	if rel, err := filepath.Rel(modRoot, key); err == nil && rel != "." {
		pkgPath = modPath + "/" + filepath.ToSlash(rel)
	}

	entries, _ := os.ReadDir(dir)
	byName := map[string]*Package{}
	var order []string
	var loadErrs []Diagnostic
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		astf, err := parser.ParseFile(ld.fset, path, nil, parser.ParseComments)
		if err != nil {
			loadErrs = append(loadErrs, parseDiagnostic(path, err))
			if astf == nil {
				continue // nothing salvageable, not even a package clause
			}
		}
		name := astf.Name.Name
		pkg, ok := byName[name]
		if !ok {
			pkg = &Package{Dir: dir, Name: name, PkgPath: pkgPath, Prog: ld.prog}
			byName[name] = pkg
			order = append(order, name)
		}
		pkg.Files = append(pkg.Files, &File{Path: path, Fset: ld.fset, AST: astf, Pkg: pkg})
	}

	var pkgs []*Package
	for _, name := range order {
		pkgs = append(pkgs, byName[name])
	}
	if len(pkgs) == 0 && len(loadErrs) > 0 {
		// Every file failed to parse: synthesize a carrier package so the
		// diagnostics still reach the runner.
		pkgs = append(pkgs, &Package{Dir: dir, PkgPath: pkgPath, Prog: ld.prog})
	}
	if primary := primaryPackage(pkgs, key); primary != nil {
		primary.LoadErrs = append(primary.LoadErrs, loadErrs...)
		ld.prog.byPath[pkgPath] = primary
	}
	ld.byDir[key] = pkgs
	return pkgs
}

// primaryPackage picks the package an import of the directory resolves to:
// the one named after the directory, else the first non-main package, else
// whatever is there.
func primaryPackage(pkgs []*Package, dir string) *Package {
	if len(pkgs) == 0 {
		return nil
	}
	base := filepath.Base(dir)
	for _, p := range pkgs {
		if p.Name == base {
			return p
		}
	}
	for _, p := range pkgs {
		if p.Name != "main" && !strings.HasSuffix(p.Name, "_test") {
			return p
		}
	}
	return pkgs[0]
}

// parseDiagnostic converts a parser error into a positioned diagnostic.
func parseDiagnostic(path string, err error) Diagnostic {
	pos := token.Position{Filename: path, Line: 1}
	msg := err.Error()
	if el, ok := err.(scanner.ErrorList); ok && len(el) > 0 {
		pos = el[0].Pos
		msg = el[0].Msg
	}
	return Diagnostic{Pos: pos, Check: LoadErrorCheck,
		Message: fmt.Sprintf("cannot parse file: %s (package checked without it)", msg)}
}

// localImport maps an import path to the directory it denotes, when the path
// is local to the module owning pkg. Returns "" for stdlib/external paths.
func (ld *loader) localImport(pkg *Package, path string) string {
	key := absDir(pkg.Dir)
	modPath, modRoot := ld.modPath[key], ld.modRoot[key]
	if modPath == "" {
		return ""
	}
	if path == modPath {
		return modRoot
	}
	if rest, ok := strings.CutPrefix(path, modPath+"/"); ok {
		return filepath.Join(modRoot, filepath.FromSlash(rest))
	}
	return ""
}

// ensureTyped type-checks pkg, first recursing into its module-local
// dependencies so imports resolve to fully checked packages. An import of a
// package that is itself still loading is a cycle: it is reported as a
// loaderror on the importing package and broken with a stub so checking can
// continue.
func (ld *loader) ensureTyped(pkg *Package) {
	if pkg == nil || pkg.state != stateParsed {
		return
	}
	pkg.state = stateLoading
	cycles := map[string]bool{}
	for _, f := range pkg.Files {
		for _, imp := range f.AST.Imports {
			path := importPath(imp)
			dir := ld.localImport(pkg, path)
			if dir == "" {
				continue
			}
			depPkgs := ld.parseDir(dir)
			dep := primaryPackage(depPkgs, absDir(dir))
			if dep == nil {
				continue
			}
			if dep.state == stateLoading {
				if !cycles[path] {
					cycles[path] = true
					pkg.LoadErrs = append(pkg.LoadErrs, Diagnostic{
						Pos:   f.Fset.Position(imp.Pos()),
						Check: LoadErrorCheck,
						Message: fmt.Sprintf("import cycle: %s imports %s which (transitively) imports it back; types degrade to stubs inside the cycle",
							pkg.PkgPath, path),
					})
				}
				continue
			}
			ld.ensureTyped(dep)
		}
	}
	ld.typeCheck(pkg)
	pkg.state = stateTyped
	ld.indexDecls(pkg)
}

func importPath(spec *ast.ImportSpec) string {
	path := strings.Trim(spec.Path.Value, `"`)
	return path
}

// typeCheck runs go/types over pkg with the program importer. Type errors are
// tolerated (build-tag variants of one function parsed together, stubs inside
// import cycles); whatever information the checker produced is kept.
func (ld *loader) typeCheck(pkg *Package) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Error:    func(error) {}, // best-effort: see doc comment
		Importer: &progImporter{ld: ld, pkg: pkg},
	}
	files := make([]*ast.File, 0, len(pkg.Files))
	for _, f := range pkg.Files {
		files = append(files, f.AST)
	}
	if len(files) == 0 {
		return
	}
	tpkg, _ := conf.Check(pkg.PkgPath, ld.fset, files, info)
	pkg.Info = info
	pkg.Types = tpkg
}

// indexDecls records every function/method declaration of pkg in the
// program-wide callee index.
func (ld *loader) indexDecls(pkg *Package) {
	if pkg.Info == nil {
		return
	}
	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok && fn != nil {
				ld.prog.decls[fn] = &declSite{file: f, decl: fd}
			}
		}
	}
}

// progImporter resolves one package's imports during type-checking:
// module-local paths to the loader's checked packages, everything else to the
// shared source importer, and failures to complete-but-empty stubs so
// checking degrades instead of dying.
type progImporter struct {
	ld  *loader
	pkg *Package
}

func (pi *progImporter) Import(path string) (*types.Package, error) {
	if dir := pi.ld.localImport(pi.pkg, path); dir != "" {
		dep := primaryPackage(pi.ld.byDir[absDir(dir)], absDir(dir))
		if dep != nil && dep.state == stateTyped && dep.Types != nil {
			return dep.Types, nil
		}
		return stubPackage(path), nil // cycle member or broken package
	}
	if tp, err := stdImporter().Import(path); err == nil && tp != nil {
		return tp, nil
	}
	return stubPackage(path), nil
}

// stubPackage is the degraded fallback: a complete, empty package whose
// symbols all type as invalid.
func stubPackage(path string) *types.Package {
	base := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		base = path[i+1:]
	}
	p := types.NewPackage(path, base)
	p.MarkComplete()
	return p
}
