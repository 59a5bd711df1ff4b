package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Unit is one type-checked analysis unit: a package's library files, its
// in-package test files (compiled against the library files), or an
// external _test package.
type Unit struct {
	PkgPath string
	RelDir  string
	// Files are the unit's analysis targets; AllFiles additionally holds
	// the library files a test unit compiles against.
	Files    []*ast.File
	AllFiles []*ast.File
	Pkg      *types.Package
	Info     *types.Info
}

// Module is a loaded, fully type-checked module tree.
type Module struct {
	Fset  *token.FileSet
	Root  string
	Path  string
	Units []*Unit
}

// relPath maps an absolute file name under the module root to a
// root-relative one for diagnostics.
func (m *Module) relPath(name string) string {
	if rel, err := filepath.Rel(m.Root, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return name
}

// loader resolves imports: module-local packages are parsed and
// type-checked from source on demand; everything else is delegated to
// the standard library's source importer. It implements types.Importer.
type loader struct {
	fset    *token.FileSet
	root    string // module root directory
	modPath string
	std     types.Importer
	pkgs    map[string]*types.Package // memoized module-local library packages
	infos   map[string]*unitInfo      // syntax + type info per library package
	loading map[string]bool           // cycle detection
}

type unitInfo struct {
	dir   string
	files []*ast.File
	info  *types.Info
}

func newLoader(root, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*types.Package{},
		infos:   map[string]*unitInfo{},
		loading: map[string]bool{},
	}
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		return l.importLocal(path)
	}
	return l.std.Import(path)
}

// dirFor maps a module-local import path to its directory.
func (l *loader) dirFor(path string) string {
	if path == l.modPath {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
}

// pathFor maps a directory under the module root to its import path.
func (l *loader) pathFor(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// importLocal type-checks a module-local package's library (non-test)
// files, memoizing the result so every importer shares one instance.
func (l *loader) importLocal(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	files, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}
	info := newInfo()
	pkg, err := l.check(path, files, info, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.infos[path] = &unitInfo{dir: dir, files: files, info: info}
	return pkg, nil
}

// testImporter resolves one import path to a package's test build and
// delegates every other import to the loader.
type testImporter struct {
	l    *loader
	path string
	pkg  *types.Package
}

// Import implements types.Importer.
func (ti testImporter) Import(path string) (*types.Package, error) {
	if path == ti.path {
		return ti.pkg, nil
	}
	return ti.l.Import(path)
}

// check runs the type checker over one file group, resolving imports
// through imp.
func (l *loader) check(path string, files []*ast.File, info *types.Info, imp types.Importer) (*types.Package, error) {
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return pkg, nil
}

// parseDir parses a directory's .go files into library files (the
// primary package) and test files, each sorted by file name.
func (l *loader) parseDir(dir string) (lib, tests []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		if !buildTagsAllow(f) {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			tests = append(tests, f)
		} else {
			lib = append(lib, f)
		}
	}
	return lib, tests, nil
}

// buildTagsAllow evaluates a file's //go:build constraint (if any)
// under the loader's fixed linux/amd64 view — the same single-platform
// convention as the type-checker's Sizes — so platform-split file
// pairs (flight_unix.go / flight_other.go) type-check as one coherent
// package instead of redeclaring each other.
func buildTagsAllow(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break // build constraints must precede the package clause
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true
			}
			return expr.Eval(func(tag string) bool {
				switch tag {
				case "linux", "unix", "amd64", "gc":
					return true
				}
				return strings.HasPrefix(tag, "go1")
			})
		}
	}
	return true
}

// moduleRoot walks up from dir to the directory containing go.mod and
// returns it with the declared module path.
func moduleRoot(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("go.mod in %s declares no module path", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}

// skipDir reports directories the module walk never descends into.
func skipDir(name string) bool {
	switch name {
	case "testdata", "vendor", ".git":
		return true
	}
	return strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// goDirs returns every directory at or below top that contains .go
// files, sorted, skipping testdata/vendor/hidden subtrees below top
// itself.
func goDirs(top string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(top, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != top && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			if p := filepath.Dir(path); len(dirs) == 0 || dirs[len(dirs)-1] != p {
				dirs = append(dirs, p)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// LoadModule parses and type-checks every package in the module rooted
// at or above dir, returning one unit per library package, plus one per
// in-package and external test file group.
func LoadModule(dir string) (*Module, error) {
	root, modPath, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	return loadTree(root, modPath, root)
}

// LoadDir loads one directory subtree (plus whatever it imports) as
// analysis units, using the enclosing module for import resolution.
// Fixture trees under testdata load this way; multi-package fixtures
// (a conf package plus a cmd/ main package) land in one Module.
func LoadDir(dir string) (*Module, error) {
	root, modPath, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return loadTree(root, modPath, abs)
}

// loadTree builds the units of every Go directory under top.
func loadTree(root, modPath, top string) (*Module, error) {
	dirs, err := goDirs(top)
	if err != nil {
		return nil, err
	}
	l := newLoader(root, modPath)
	mod := &Module{Fset: l.fset, Root: root, Path: modPath}
	for _, d := range dirs {
		units, err := l.loadDir(d)
		if err != nil {
			return nil, err
		}
		mod.Units = append(mod.Units, units...)
	}
	return mod, nil
}

// loadDir builds the analysis units of one directory: the library
// package, the in-package test group, and the external test package.
func (l *loader) loadDir(dir string) ([]*Unit, error) {
	lib, tests, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	pkgPath := l.pathFor(dir)
	relDir, err := filepath.Rel(l.root, dir)
	if err != nil {
		return nil, err
	}
	relDir = filepath.ToSlash(relDir)

	var units []*Unit
	var libName string
	if len(lib) > 0 {
		if _, err := l.importLocal(pkgPath); err != nil {
			return nil, err
		}
		ui := l.infos[pkgPath]
		libName = lib[0].Name.Name
		units = append(units, &Unit{
			PkgPath:  pkgPath,
			RelDir:   relDir,
			Files:    ui.files,
			AllFiles: ui.files,
			Pkg:      l.pkgs[pkgPath],
			Info:     ui.info,
		})
	}

	// In-package test files compile together with the library files;
	// external _test files form their own package.
	var inPkg, external []*ast.File
	for _, f := range tests {
		if libName != "" && f.Name.Name == libName {
			inPkg = append(inPkg, f)
		} else {
			external = append(external, f)
		}
	}
	var testPkg *types.Package
	if len(inPkg) > 0 {
		all := append(append([]*ast.File{}, lib...), inPkg...)
		info := newInfo()
		pkg, err := l.check(pkgPath, all, info, l)
		if err != nil {
			return nil, err
		}
		testPkg = pkg
		units = append(units, &Unit{
			PkgPath:  pkgPath + " [tests]",
			RelDir:   relDir,
			Files:    inPkg,
			AllFiles: all,
			Pkg:      pkg,
			Info:     info,
		})
	}
	if len(external) > 0 {
		// As under go test, the external package imports the package
		// under test with its in-package test files, so helpers that an
		// export_test.go file exports resolve.
		var imp types.Importer = l
		if testPkg != nil {
			imp = testImporter{l: l, path: pkgPath, pkg: testPkg}
		}
		info := newInfo()
		pkg, err := l.check(pkgPath+"_test", external, info, imp)
		if err != nil {
			return nil, err
		}
		units = append(units, &Unit{
			PkgPath:  pkgPath + "_test",
			RelDir:   relDir,
			Files:    external,
			AllFiles: external,
			Pkg:      pkg,
			Info:     info,
		})
	}
	return units, nil
}
