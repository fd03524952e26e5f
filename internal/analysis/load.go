package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for rules. Test files
// are folded into their package (the repo uses in-package tests), and an
// external "_test" package, when present, loads as its own Package. The
// Package a rule sees is the one its importers were checked against, so a
// declaration is one types.Object program-wide.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Errs holds type-check errors. The driver treats them as fatal: an
	// unparseable repo cannot be vetted.
	Errs []error
}

// Loader resolves package patterns against the enclosing module and
// type-checks them with the standard library imported from source — no
// module dependencies, no export-data requirements.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	stdlib types.Importer
	// cache holds every module directory loaded so far by import path,
	// shared by every import edge and by LoadDir.
	cache   map[string]*unit
	loading map[string]bool
}

// unit is one directory's parse and check: the package proper (pure files
// plus in-package tests; nil when the directory holds only an external test
// package) and the external "_test" files, checked when LoadDir asks.
type unit struct {
	pkg *Package
	ext []*ast.File
}

// NewLoader locates the module enclosing startDir (walking up to go.mod)
// and returns a loader rooted there.
func NewLoader(startDir string) (*Loader, error) {
	dir, err := filepath.Abs(startDir)
	if err != nil {
		return nil, err
	}
	root := dir
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod at or above %s", dir)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		stdlib:     importer.ForCompiler(fset, "source", nil),
		cache:      map[string]*unit{},
		loading:    map[string]bool{},
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module declaration in %s", gomod)
}

// Import implements types.Importer: module-internal paths resolve to
// directories under the module root and load through the shared cache;
// everything else comes from the standard library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path != l.ModulePath && !strings.HasPrefix(path, l.ModulePath+"/") {
		return l.stdlib.Import(path)
	}
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath)))
	u, err := l.load(path, dir)
	if err != nil {
		return nil, err
	}
	if u.pkg == nil {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	if len(u.pkg.Errs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, u.pkg.Errs[0])
	}
	return u.pkg.Pkg, nil
}

// load parses dir and type-checks its package under path once — pure files
// plus in-package test files, with a full types.Info — caching the result.
// Folding the tests in cannot close an import cycle: Go already rejects an
// in-package test that imports a package depending on its own.
func (l *Loader) load(path, dir string) (*unit, error) {
	if u, ok := l.cache[path]; ok {
		return u, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	pure, inTest, extTest, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(pure)+len(inTest)+len(extTest) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	u := &unit{ext: extTest}
	if len(pure)+len(inTest) > 0 {
		u.pkg = l.check(path, dir, append(pure, inTest...))
	}
	l.cache[path] = u
	return u, nil
}

// parseDir parses every .go file in dir into three groups: pure package
// files (the export surface importers see), in-package test files, and
// external "_test"-package files. Files come back in name order so load
// results are deterministic.
func (l *Loader) parseDir(dir string) (pure, inTest, extTest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		file, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		switch {
		case strings.HasSuffix(file.Name.Name, "_test"):
			extTest = append(extTest, file)
		case strings.HasSuffix(name, "_test.go"):
			inTest = append(inTest, file)
		default:
			pure = append(pure, file)
		}
	}
	return pure, inTest, extTest, nil
}

// Load expands the patterns ("./...", "./dir", "./dir/...") and returns
// one Package per matched directory (plus one per external test package).
// Test files are included in the analysis view of each package.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirSet := map[string]bool{}
	for _, pat := range patterns {
		dirs, err := l.expand(pat)
		if err != nil {
			return nil, err
		}
		for _, d := range dirs {
			dirSet[d] = true
		}
	}
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	var pkgs []*Package
	for _, dir := range dirs {
		loaded, err := l.LoadDir(dir, l.importPathFor(dir))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, loaded...)
	}
	return pkgs, nil
}

// importPathFor maps a directory under the module root to its import path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// LoadDir type-checks the package in dir under the given import path,
// including its test files. It returns one Package for the (possibly
// test-augmented) package — the cached one, if an importer already loaded
// it — and, when external test files exist, a second Package for them.
func (l *Loader) LoadDir(dir, path string) ([]*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	u, err := l.load(path, abs)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	if u.pkg != nil {
		pkgs = append(pkgs, u.pkg)
	}
	if len(u.ext) > 0 {
		// The external test package imports the base package; the import
		// resolves through the cache like any other edge.
		pkgs = append(pkgs, l.check(path+"_test", abs, u.ext))
	}
	return pkgs, nil
}

// check runs the type checker over one file set, collecting (rather than
// stopping at) type errors.
func (l *Loader) check(path, dir string, files []*ast.File) *Package {
	out := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files}
	out.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { out.Errs = append(out.Errs, err) },
	}
	pkg, err := conf.Check(path, l.Fset, files, out.Info)
	out.Pkg = pkg
	if err != nil && len(out.Errs) == 0 {
		out.Errs = append(out.Errs, err)
	}
	return out
}

// expand resolves one pattern to package directories.
func (l *Loader) expand(pattern string) ([]string, error) {
	recursive := false
	if pattern == "..." {
		pattern, recursive = ".", true
	} else if rest, ok := strings.CutSuffix(pattern, "/..."); ok {
		pattern, recursive = rest, true
		if pattern == "" {
			pattern = "."
		}
	}
	root, err := filepath.Abs(pattern)
	if err != nil {
		return nil, err
	}
	if !recursive {
		return []string{root}, nil
	}
	var dirs []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				dirs = append(dirs, p)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dirs, nil
}
