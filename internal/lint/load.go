package lint

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
	"sync"
)

// Package is one loaded, type-checked package as the rules see it.
type Package struct {
	// Path is the package's import path (module path joined with its
	// directory relative to the module root).
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Fset positions every file below.
	Fset *token.FileSet
	// Files are the package's non-test files, in file-name order.
	Files []*ast.File
	// Types is the type-checked package, Info its recorded uses/types.
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module. Module-internal
// imports are resolved from source relative to the module root; standard
// library imports go through go/importer's source mode. Loaded packages are
// cached, so a tree-wide run type-checks each package once.
//
// The loader is safe for concurrent LoadDir calls: the cache is a
// singleflight table (the first goroutine to request a path type-checks it,
// later ones wait on its ready channel), and the source-mode standard
// library importer — which is not concurrency-safe — is serialized behind
// its own mutex. Waiting on another goroutine's in-flight load cannot
// deadlock because Go's import graph is acyclic; same-goroutine import
// cycles (broken source) are caught by the per-load import stack instead.
type Loader struct {
	// Root is the absolute module root (the directory holding go.mod).
	Root string
	// Module is the module path declared in go.mod.
	Module string

	fset *token.FileSet

	stdMu sync.Mutex // serializes std (srcimporter is not concurrency-safe)
	std   types.Importer

	mu    sync.Mutex // guards cache (the map, not the entries)
	cache map[string]*loadEntry
}

// loadEntry is one singleflight cache slot: ready is closed once pkg/err
// are final.
type loadEntry struct {
	ready chan struct{}
	pkg   *Package
	err   error
}

// NewLoader returns a loader for the module rooted at root. The module path
// is read from root/go.mod.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:   abs,
		Module: module,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		cache:  map[string]*loadEntry{},
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// importPath maps a package directory to its import path within the module.
func (ld *Loader) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(ld.Root, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		return ld.Module, nil
	}
	if strings.HasPrefix(rel, "../") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, ld.Root)
	}
	return ld.Module + "/" + rel, nil
}

// dirOf maps a module-internal import path back to its directory.
func (ld *Loader) dirOf(path string) string {
	if path == ld.Module {
		return ld.Root
	}
	rel := strings.TrimPrefix(path, ld.Module+"/")
	return filepath.Join(ld.Root, filepath.FromSlash(rel))
}

// LoadDir parses and type-checks the package in dir.
func (ld *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := ld.importPath(abs)
	if err != nil {
		return nil, err
	}
	return ld.load(path, nil)
}

// load type-checks the module-internal package with the given import path,
// caching results (and errors) by path. stack is the chain of module
// packages currently being checked on this goroutine, for cycle detection.
func (ld *Loader) load(path string, stack []string) (*Package, error) {
	for _, p := range stack {
		if p == path {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
	}
	ld.mu.Lock()
	if e, ok := ld.cache[path]; ok {
		ld.mu.Unlock()
		<-e.ready
		return e.pkg, e.err
	}
	e := &loadEntry{ready: make(chan struct{})}
	ld.cache[path] = e
	ld.mu.Unlock()
	e.pkg, e.err = ld.check(path, append(stack, path))
	close(e.ready)
	return e.pkg, e.err
}

// check does the actual parse + type-check of one package directory.
func (ld *Loader) check(path string, stack []string) (*Package, error) {
	dir := ld.dirOf(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, "_") || strings.HasPrefix(n, ".") {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, n := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: &loaderImporter{ld: ld, stack: stack}}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  ld.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// loaderImporter adapts the loader into a types.Importer: module-internal
// paths load from source through the loader itself (threading the cycle
// detection stack), everything else (the standard library) through
// go/importer's source mode behind the loader's std mutex.
type loaderImporter struct {
	ld    *Loader
	stack []string
}

func (im *loaderImporter) Import(path string) (*types.Package, error) {
	ld := im.ld
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == ld.Module || strings.HasPrefix(path, ld.Module+"/") {
		pkg, err := ld.load(path, im.stack)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	ld.stdMu.Lock()
	defer ld.stdMu.Unlock()
	return ld.std.Import(path)
}

// Expand resolves command-line package patterns to package directories.
// A trailing "/..." (or the bare "./...") walks recursively; other
// arguments name single directories. Like the go tool, the walk skips
// testdata, vendor, and dot/underscore directories, and keeps only
// directories containing at least one non-test Go file. The result is
// sorted and de-duplicated.
func Expand(base string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		rec := false
		if strings.HasSuffix(pat, "/...") {
			rec = true
			pat = strings.TrimSuffix(pat, "/...")
			if pat == "" || pat == "." {
				pat = "."
			}
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(base, dir)
		}
		if !rec {
			ok, err := hasGoFiles(dir)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("lint: no Go files in %s", dir)
			}
			add(dir)
			continue
		}
		err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != dir && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			ok, err := hasGoFiles(p)
			if err != nil {
				return err
			}
			if ok {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains a non-test Go file.
func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") &&
			!strings.HasPrefix(n, "_") && !strings.HasPrefix(n, ".") {
			return true, nil
		}
	}
	return false, nil
}
