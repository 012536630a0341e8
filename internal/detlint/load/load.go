// Package load turns Go package patterns into type-checked syntax for
// the detlint analyzers without depending on golang.org/x/tools.
//
// The approach is the classic two-layer split every export-data driver
// uses: `go list -export -deps -json` enumerates the build graph and
// compiles every dependency (the go build cache makes this incremental),
// then each *target* package is parsed and type-checked from source with
// an importer that resolves every import — standard library, module
// sibling, anything — from the compiler's export data files. No package
// is ever source-checked twice and no dependency source is parsed at
// all, which keeps a whole-tree run to a couple of seconds.
package load

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
	"sort"
)

// Package is one type-checked target package.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// ListedPackage is the subset of `go list -json` output the loader needs.
type ListedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// GoList runs `go list -export -deps -json` on patterns in dir and
// returns the package records in dependency order.
func GoList(dir string, patterns ...string) ([]ListedPackage, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,CgoFiles,Export,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []ListedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p ListedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Exports extracts the import-path → export-data-file map from a go
// list run.
func Exports(pkgs []ListedPackage) map[string]string {
	m := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			m[p.ImportPath] = p.Export
		}
	}
	return m
}

// ExportImporter returns a types importer that resolves packages from
// compiler export data files (the map values), as produced by
// `go list -export`.
func ExportImporter(fset *token.FileSet, exports map[string]string) types.ImporterFrom {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// Check parses files and type-checks them as one package with the given
// importer. Returned even on type errors (best effort) together with
// the first error.
func Check(fset *token.FileSet, path string, dir string, goFiles []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		fn := name
		if !filepath.IsAbs(fn) {
			fn = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	var firstErr error
	conf.Error = func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	name := ""
	if len(files) > 0 {
		name = files[0].Name.Name
	}
	return &Package{
		ImportPath: path,
		Name:       name,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, firstErr
}

// Load lists patterns in dir and returns every matched (non-dependency)
// package parsed and fully type-checked. All packages share one
// FileSet so diagnostics across packages sort globally.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := GoList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	for _, p := range listed {
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
	}
	fset := token.NewFileSet()
	imp := ExportImporter(fset, Exports(listed))
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard || p.Name == "" {
			continue
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("package %s: cgo packages are not supported", p.ImportPath)
		}
		pkg, err := Check(fset, p.ImportPath, p.Dir, p.GoFiles, imp)
		if err != nil {
			return nil, fmt.Errorf("package %s: %v", p.ImportPath, err)
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}
