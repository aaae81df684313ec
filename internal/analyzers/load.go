package analyzers

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the suite's one load: a stdlib-only loader that builds
// full go/types information for every package on the lint surface. It
// resolves standard-library imports through the source importer
// (importer.ForCompiler(fset, "source", nil)) and module-internal
// imports itself, by walking up to go.mod, mapping the import path to a
// directory and type-checking that directory recursively — the piece
// the source importer cannot do in module mode.

// Package is one fully type-checked package.
type Package struct {
	Dir   string // directory as walked, the prefix of diagnostic paths
	Path  string // import path within the enclosing module
	Fset  *token.FileSet
	Files []*File
	Types *types.Package
	Info  *types.Info
}

// File is one loaded file: its syntax and the package it was
// type-checked in.
type File struct {
	Fset    *token.FileSet
	AST     *ast.File
	Path    string // path as walked, used verbatim in diagnostics
	Package *Package
}

// diag builds a Diagnostic at the given position of the file.
func (f *File) diag(pos token.Pos, check, format string, args ...any) Diagnostic {
	p := f.Fset.Position(pos)
	return Diagnostic{
		File:    f.Path,
		Line:    p.Line,
		Col:     p.Column,
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	}
}

// Load type-checks the directories matched by the given package
// patterns and returns one Package per directory, sorted by directory.
// A pattern is either a directory path or a path ending in "/..." for a
// recursive walk (the familiar go-tool spelling); the default is
// ./.... Test files and testdata, vendor, hidden and underscore
// directories are skipped: tests legitimately use wall clocks and
// discarded errors, and testdata holds intentionally dirty fixtures.
func Load(patterns []string) ([]*Package, error) {
	dirs, err := expandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	l := newLoader()
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// expandPatterns resolves patterns into a sorted, de-duplicated list of
// directories containing at least one non-test Go file.
func expandPatterns(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, p := range patterns {
		if rest, ok := strings.CutSuffix(p, "..."); ok {
			root := filepath.Clean(strings.TrimSuffix(rest, "/"))
			if root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				if skipDir(d.Name()) && path != root {
					return filepath.SkipDir
				}
				add(path)
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("analyzers: walking %s: %w", p, err)
			}
			continue
		}
		info, err := os.Stat(p)
		if err != nil {
			return nil, fmt.Errorf("analyzers: %w", err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("analyzers: pattern %q is not a directory", p)
		}
		add(filepath.Clean(p))
	}
	sort.Strings(dirs)
	return dirs, nil
}

// skipDir reports whether a directory subtree is outside the lint
// surface.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// hasGoFiles reports whether dir directly contains a lintable Go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && lintableFile(e.Name()) {
			return true
		}
	}
	return false
}

// lintableFile reports whether a file name is in scope.
func lintableFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// module is one enclosing module: its root directory and module path.
type module struct {
	root string // absolute
	path string
}

// loader memoizes type-checked packages across one Load call so shared
// dependencies are checked once.
type loader struct {
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // by absolute directory
	loading map[string]bool
	mods    map[string]*module // by absolute directory
}

func newLoader() *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
		mods:    map[string]*module{},
	}
}

// moduleFor finds the module enclosing an absolute directory by walking
// up to the nearest go.mod.
func (l *loader) moduleFor(abs string) (*module, error) {
	if m, ok := l.mods[abs]; ok {
		return m, nil
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err == nil {
		path := modulePath(data)
		if path == "" {
			return nil, fmt.Errorf("analyzers: %s has no module line", filepath.Join(abs, "go.mod"))
		}
		m := &module{root: abs, path: path}
		l.mods[abs] = m
		return m, nil
	}
	parent := filepath.Dir(abs)
	if parent == abs {
		return nil, fmt.Errorf("analyzers: no go.mod found above %s", abs)
	}
	m, err := l.moduleFor(parent)
	if err != nil {
		return nil, err
	}
	l.mods[abs] = m
	return m, nil
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod []byte) string {
	sc := bufio.NewScanner(bytes.NewReader(gomod))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// loadDir parses and type-checks the lintable files of one directory.
func (l *loader) loadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("analyzers: %w", err)
	}
	if p, ok := l.pkgs[abs]; ok {
		return p, nil
	}
	if l.loading[abs] {
		return nil, fmt.Errorf("analyzers: import cycle through %s", dir)
	}
	l.loading[abs] = true
	defer delete(l.loading, abs)

	mod, err := l.moduleFor(abs)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(mod.root, abs)
	if err != nil {
		return nil, fmt.Errorf("analyzers: %w", err)
	}
	importPath := mod.path
	if rel != "." {
		importPath = mod.path + "/" + filepath.ToSlash(rel)
	}

	// Diagnostics carry dir verbatim, so prefer a working-directory-
	// relative rendering even when the package was first reached through
	// the importer (which resolves by absolute path): workflow
	// annotations need paths that mean something outside this machine.
	display := dir
	if filepath.IsAbs(display) {
		if wd, err := os.Getwd(); err == nil {
			if rel, err := filepath.Rel(wd, display); err == nil && rel != ".." &&
				!strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
				display = rel
			}
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analyzers: %w", err)
	}
	var paths []string
	var asts []*ast.File
	for _, e := range entries {
		if e.IsDir() || !lintableFile(e.Name()) {
			continue
		}
		path := filepath.Join(display, e.Name())
		af, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analyzers: %w", err)
		}
		paths = append(paths, path)
		asts = append(asts, af)
	}
	if len(asts) == 0 {
		return nil, fmt.Errorf("analyzers: no lintable Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: &modImporter{l: l, mod: mod}}
	tpkg, err := conf.Check(importPath, l.fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("analyzers: type-checking %s: %w", dir, err)
	}

	p := &Package{Dir: display, Path: importPath, Fset: l.fset, Types: tpkg, Info: info}
	for i := range asts {
		p.Files = append(p.Files, &File{Fset: l.fset, AST: asts[i], Path: paths[i], Package: p})
	}
	l.pkgs[abs] = p
	return p, nil
}

// modImporter resolves the imports of one package: module-internal
// paths map to directories under the module root and are type-checked
// from source by the loader; everything else is delegated to the
// standard-library source importer.
type modImporter struct {
	l   *loader
	mod *module
}

func (m *modImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == m.mod.path {
		p, err := m.l.loadDir(m.mod.root)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if sub, ok := strings.CutPrefix(path, m.mod.path+"/"); ok {
		p, err := m.l.loadDir(filepath.Join(m.mod.root, filepath.FromSlash(sub)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return m.l.std.Import(path)
}
