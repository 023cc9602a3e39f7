// Package load resolves and typechecks Go packages for the simlint
// analyzers without any dependency outside the standard library.
//
// The hosted toolchains this repository builds on have no network access,
// so golang.org/x/tools/go/packages is not available; this package is the
// minimal equivalent the analysis driver needs. It shells out to
// `go list -deps -export -json` for package metadata (which works fully
// offline: export data for dependencies is compiled into the local build
// cache), then typechecks every module-internal package from source with
// go/types, importing out-of-module dependencies from their compiled
// export data via go/importer.
//
// All packages loaded through one Loader share a single token.FileSet and
// a single types object world, so types.Object identities are comparable
// across packages — which is what lets analyzers attach facts to objects
// in one package and consume them while analyzing another.
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
	"strings"
)

// Package is one typechecked package: syntax plus type information.
type Package struct {
	// ImportPath is the package's import path (for fixture packages, the
	// synthetic path given to LoadDir).
	ImportPath string
	// Name is the package name.
	Name string
	// Dir is the directory holding the source files.
	Dir string
	// Files are the parsed source files, with comments.
	Files []*ast.File
	// Types is the typechecked package.
	Types *types.Package
	// TypesInfo records types, uses, definitions and selections for every
	// expression in Files.
	TypesInfo *types.Info
	// Imports lists the import paths of direct dependencies.
	Imports []string
}

// listedPackage mirrors the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath  string
	Name        string
	Dir         string
	Export      string
	Standard    bool
	Goroot      bool
	GoFiles     []string
	TestGoFiles []string
	Imports     []string
	TestImports []string
	Module      *struct{ Path, Dir string }
	Error       *struct{ Err string }
}

// Loader loads and typechecks packages. It is not safe for concurrent
// use.
type Loader struct {
	// ModuleRoot is the directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module path from go.mod.
	ModulePath string
	// IncludeTests adds in-package _test.go files to module packages.
	IncludeTests bool
	// FixtureRoot, when set, resolves imports GOPATH-style from
	// <FixtureRoot>/<import path> before consulting the module or export
	// data — the analysistest testdata/src layout, where fixture packages
	// import each other by bare synthetic paths.
	FixtureRoot string

	fset     *token.FileSet
	meta     map[string]*listedPackage
	pkgs     map[string]*Package // typechecked module-internal packages
	checking map[string]bool     // cycle guard
	gc       types.Importer      // export-data importer for everything else
	fixtures []*Package          // fixture packages, in load (dependency) order
}

// New creates a Loader rooted at the module containing dir (or dir
// itself, walking up to the nearest go.mod).
func New(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       token.NewFileSet(),
		meta:       make(map[string]*listedPackage),
		pkgs:       make(map[string]*Package),
		checking:   make(map[string]bool),
	}
	l.gc = importer.ForCompiler(l.fset, "gc", l.lookupExport)
	return l, nil
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Fixtures returns the fixture packages loaded on demand through
// FixtureRoot, in dependency order (a fixture's imports precede it).
func (l *Loader) Fixtures() []*Package { return l.fixtures }

func dirExists(dir string) bool {
	fi, err := os.Stat(dir)
	return err == nil && fi.IsDir()
}

// findModule locates the enclosing go.mod by walking up from dir and
// reads the module path from its first `module` line.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		mod := filepath.Join(d, "go.mod")
		if data, err := os.ReadFile(mod); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("load: no module line in %s", mod)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("load: no go.mod above %s", abs)
		}
	}
}

// goList runs `go list -deps -export -json` on the patterns and merges
// the results into l.meta.
func (l *Loader) goList(patterns ...string) error {
	args := []string{"list", "-e", "-deps", "-export", "-json"}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.ModuleRoot
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("load: go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	dec := json.NewDecoder(&out)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("load: decoding go list output: %v", err)
		}
		if _, ok := l.meta[p.ImportPath]; !ok {
			cp := p
			l.meta[p.ImportPath] = &cp
		}
	}
	return nil
}

// ensureMeta guarantees metadata for path is present, listing it on
// demand.
func (l *Loader) ensureMeta(path string) (*listedPackage, error) {
	if m, ok := l.meta[path]; ok {
		return m, nil
	}
	if err := l.goList(path); err != nil {
		return nil, err
	}
	m, ok := l.meta[path]
	if !ok {
		return nil, fmt.Errorf("load: package %s not found by go list", path)
	}
	return m, nil
}

// lookupExport feeds the gc importer the export data file recorded by
// `go list -export`.
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	m, err := l.ensureMeta(path)
	if err != nil {
		return nil, err
	}
	if m.Export == "" {
		msg := "no export data"
		if m.Error != nil {
			msg = m.Error.Err
		}
		return nil, fmt.Errorf("load: cannot import %s: %s", path, msg)
	}
	return os.Open(m.Export)
}

// inModule reports whether an import path belongs to the loader's module.
func (l *Loader) inModule(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// importPackage resolves one import during typechecking: module-internal
// packages are typechecked from source (recursively), everything else
// comes from compiled export data.
func (l *Loader) importPackage(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.FixtureRoot != "" && !l.inModule(path) {
		if dir := filepath.Join(l.FixtureRoot, path); dirExists(dir) {
			if p, ok := l.pkgs[path]; ok {
				return p.Types, nil
			}
			if l.checking[path] {
				return nil, fmt.Errorf("load: fixture import cycle through %s", path)
			}
			l.checking[path] = true
			defer delete(l.checking, path)
			p, err := l.LoadDir(dir, path)
			if err != nil {
				return nil, err
			}
			l.pkgs[path] = p
			l.fixtures = append(l.fixtures, p)
			return p.Types, nil
		}
	}
	if l.inModule(path) {
		p, err := l.loadModulePackage(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.gc.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// newInfo returns a fully populated types.Info.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// check parses and typechecks one package from explicit file paths.
func (l *Loader) check(importPath, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", dir)
	}
	info := newInfo()
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(l.importPackage),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		var b strings.Builder
		for i, e := range typeErrs {
			if i > 0 {
				b.WriteString("\n")
			}
			b.WriteString(e.Error())
			if i == 9 && len(typeErrs) > 10 {
				fmt.Fprintf(&b, "\n... and %d more", len(typeErrs)-10)
				break
			}
		}
		return nil, fmt.Errorf("load: type errors in %s:\n%s", importPath, b.String())
	}
	return &Package{
		ImportPath: importPath,
		Name:       tpkg.Name(),
		Dir:        dir,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

// loadModulePackage typechecks one module-internal package from source,
// memoised.
func (l *Loader) loadModulePackage(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("load: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	m, err := l.ensureMeta(path)
	if err != nil {
		return nil, err
	}
	if m.Error != nil && len(m.GoFiles) == 0 {
		return nil, fmt.Errorf("load: %s: %s", path, m.Error.Err)
	}
	filenames := append([]string(nil), m.GoFiles...)
	if l.IncludeTests {
		filenames = append(filenames, m.TestGoFiles...)
	}
	p, err := l.check(path, m.Dir, filenames)
	if err != nil {
		return nil, err
	}
	p.Imports = append(p.Imports, m.Imports...)
	if l.IncludeTests {
		p.Imports = append(p.Imports, m.TestImports...)
	}
	l.pkgs[path] = p
	return p, nil
}

// Load expands the patterns with `go list` and returns the matched
// module-internal packages plus all their module-internal dependencies,
// in dependency order (dependencies before dependents). The Requested
// field of the result distinguishes directly matched packages.
func (l *Loader) Load(patterns ...string) ([]*Package, map[string]bool, error) {
	if err := l.goList(patterns...); err != nil {
		return nil, nil, err
	}
	// A second, plain listing tells us which packages the patterns matched
	// directly (the -deps listing mixes in every dependency).
	args := append([]string{"list", "-e"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.ModuleRoot
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	requested := make(map[string]bool)
	for _, line := range strings.Split(out.String(), "\n") {
		if line = strings.TrimSpace(line); line != "" && l.inModule(line) {
			requested[line] = true
		}
	}

	// Collect every module package reachable from the requested set.
	var order []*Package
	seen := make(map[string]bool)
	var visit func(path string) error
	visit = func(path string) error {
		if seen[path] || !l.inModule(path) {
			return nil
		}
		seen[path] = true
		m, err := l.ensureMeta(path)
		if err != nil {
			return err
		}
		if len(m.GoFiles) == 0 && !(l.IncludeTests && len(m.TestGoFiles) > 0) {
			return nil // test-only or empty package: nothing to analyze
		}
		deps := append([]string(nil), m.Imports...)
		if l.IncludeTests {
			deps = append(deps, m.TestImports...)
		}
		sort.Strings(deps)
		for _, dep := range deps {
			if dep != path { // test files may import the package itself
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		p, err := l.loadModulePackage(path)
		if err != nil {
			return err
		}
		order = append(order, p)
		return nil
	}
	var paths []string
	for path := range requested {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, nil, err
		}
	}
	return order, requested, nil
}

// LoadDir typechecks the .go files in one directory (excluding _test.go
// files) as a package with the given synthetic import path — the entry
// point for analysistest fixture packages, which live under testdata and
// are invisible to the go tool. Module-internal imports resolve from
// source; everything else from export data.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("load: %v", err)
	}
	var filenames []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			filenames = append(filenames, name)
		}
	}
	sort.Strings(filenames)
	return l.check(importPath, dir, filenames)
}
