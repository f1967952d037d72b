package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"rfclos/internal/engine"
)

// Package is one loaded, type-checked package as the rules see it.
type Package struct {
	// Path is the package's import path, Module the path of its module.
	Path   string
	Module string
	// Imports are the import paths of the package's non-test files.
	Imports []string
	// Fset positions every file below.
	Fset *token.FileSet
	// Files are the package's non-test files, in file-name order.
	Files []*ast.File
	// Types is the type-checked package, Info its recorded uses/types.
	Types *types.Package
	Info  *types.Info
}

// listed is the part of one `go list -json` record the loader reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load returns the packages that patterns match, resolved from dir the way
// the go tool resolves them (so "./..." skips testdata and stops at nested
// modules), type-checked and in go list order. One `go list -e -export
// -deps -json` call lists them and writes export data for every
// dependency; each matched package's files are then parsed and checked
// with go/types against that export data, one package per worker. A
// package go list reports with an error, one without export data, and a
// type error are all errors: the linter refuses to pass a tree it could
// not analyse.
func Load(dir string, patterns ...string) ([]*Package, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %w\n%s", err, stderr.Bytes())
	}
	exports := map[string]string{}
	var matched []*listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("lint: reading go list output: %w", err)
		}
		exports[p.ImportPath] = p.Export
		if !p.DepOnly {
			matched = append(matched, p)
		}
	}
	fset := token.NewFileSet()
	return engine.Run(len(matched), 0, func(i int) (*Package, error) {
		return check(fset, exports, matched[i])
	})
}

// check parses and type-checks one listed package. Its imports resolve
// through a gc importer of its own, because that importer is not safe for
// concurrent use.
func check(fset *token.FileSet, exports map[string]string, p *listed) (*Package, error) {
	if p.Error != nil {
		return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, strings.TrimSpace(p.Error.Err))
	}
	if p.Export == "" {
		return nil, fmt.Errorf("lint: %s: go list wrote no export data", p.ImportPath)
	}
	files := make([]*ast.File, len(p.GoFiles))
	for i, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files[i] = f
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", p.ImportPath, err)
	}
	pkg := &Package{Path: p.ImportPath, Imports: p.Imports, Fset: fset, Files: files, Types: tpkg, Info: info}
	if p.Module != nil {
		pkg.Module = p.Module.Path
	}
	return pkg, nil
}
