package census

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// origin is where a parsed file sits.
type origin uint8

const (
	shippedFile origin = iota // a non-test file under internal/, cmd/ or examples/
	testFile                  // a _test.go file under those trees
	benchFile                 // a file of bench/, the benchmark module that imports this one
)

// pkgFile is one parsed file, the directory it sits in, and its origin.
type pkgFile struct {
	dir    string // last element of the file's directory, e.g. "simulator"
	rel    string // the directory relative to the module root, slash-separated
	file   *ast.File
	origin origin
}

// module is a set of parsed files and what go/types resolved in them.
type module struct {
	fset   *token.FileSet
	files  []pkgFile
	info   *types.Info
	origin map[string]origin  // file name -> origin, for a position's file
	std    []*types.Interface // stdContracts' interfaces
}

// shipped returns the module's shipped files.
func (m *module) shipped() []pkgFile {
	var out []pkgFile
	for _, pf := range m.files {
		if pf.origin == shippedFile {
			out = append(out, pf)
		}
	}
	return out
}

// originAt is the origin of the file a position lies in.
func (m *module) originAt(p token.Pos) origin {
	return m.origin[m.fset.Position(p).Filename]
}

// where is a position as dir/file.go:line.
func (m *module) where(p token.Pos) string {
	pos := m.fset.Position(p)
	dir, file := filepath.Split(pos.Filename)
	return fmt.Sprintf("%s/%s:%d", filepath.Base(dir), file, pos.Line)
}

// shippedDirs are the trees, relative to the module root, whose non-test
// files ship.
var shippedDirs = []string{"internal", "cmd", "examples"}

// benchDir is the benchmark module's directory, relative to the root.
const benchDir = "bench"

// stdContracts declares the standard-library interfaces the module's types
// satisfy: a method one of them declares is called through it, so its
// callers are not the module's to find.
const stdContracts = `package std

import (
	"fmt"
	"math/rand"
	"sort"
)

type (
	Error          = error
	Stringer       = fmt.Stringer
	Sorter         = sort.Interface
	Source         = rand.Source
	Unwrapper      interface{ Unwrap() error }
	MultiUnwrapper interface{ Unwrap() []error }
	Iser           interface{ Is(error) bool }
)
`

// originOf is a file's origin from its slash-separated path relative to the
// module root.
func originOf(name string) origin {
	switch {
	case strings.HasPrefix(name, benchDir+"/"):
		return benchFile
	case strings.HasSuffix(name, "_test.go"):
		return testFile
	}
	return shippedFile
}

// parseFile parses one file (src nil: read it from disk at abs) under its
// slash-separated name relative to the module root.
func parseFile(fset *token.FileSet, name, abs string, src any) (pkgFile, error) {
	f, err := parser.ParseFile(fset, abs, src, parser.ParseComments)
	rel := path.Dir(name)
	return pkgFile{dir: path.Base(rel), rel: rel, file: f, origin: originOf(name)}, err
}

// parseTree parses every .go file the default build context selects under
// root's shipped trees, their tests included, and the top level of bench/.
func parseTree(fset *token.FileSet, root string) ([]pkgFile, error) {
	var files []pkgFile
	add := func(abs string) error {
		rel, err := filepath.Rel(root, abs)
		if err != nil {
			return err
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(abs), filepath.Base(abs)); !ok || err != nil {
			return err
		}
		pf, err := parseFile(fset, filepath.ToSlash(rel), abs, nil)
		files = append(files, pf)
		return err
	}
	for _, top := range shippedDirs {
		err := filepath.WalkDir(filepath.Join(root, top), func(p string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case !d.IsDir() && strings.HasSuffix(p, ".go"):
				return add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	bench, err := filepath.Glob(filepath.Join(root, benchDir, "*.go"))
	for _, p := range bench {
		if err == nil {
			err = add(p)
		}
	}
	return files, err
}

// loader type-checks the module's packages on demand, each with its
// in-package test files, and the standard library from export data.
type loader struct {
	fset  *token.FileSet
	info  *types.Info
	std   types.Importer
	files map[string][]*ast.File    // import path -> files
	pkgs  map[string]*types.Package // import path -> checked package; nil while checking
	errs  []error
}

func (l *loader) Import(p string) (*types.Package, error) {
	if _, ok := l.files[p]; !ok {
		return l.std.Import(p)
	}
	pkg, done := l.pkgs[p]
	if !done {
		pkg = l.check(p)
	} else if pkg == nil {
		return nil, fmt.Errorf("import cycle through %s", p)
	}
	return pkg, nil
}

func (l *loader) check(p string) *types.Package {
	l.pkgs[p] = nil
	conf := types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err) }}
	pkg, _ := conf.Check(p, l.fset, l.files[p], l.info)
	l.pkgs[p] = pkg
	return pkg
}

// typeCheck resolves files as the module modPath: each directory's package
// with its in-package tests, then each external test package. A type error
// is an error, since a rule would read a wrong resolution.
func typeCheck(fset *token.FileSet, modPath string, files []pkgFile) (*module, error) {
	m := &module{fset: fset, files: files, origin: map[string]origin{}, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	l := &loader{fset: fset, info: m.info, std: importer.ForCompiler(fset, "gc", nil),
		files: map[string][]*ast.File{}, pkgs: map[string]*types.Package{}}
	for _, pf := range files {
		p := path.Join(modPath, pf.rel)
		if strings.HasSuffix(pf.file.Name.Name, "_test") {
			p += "_test"
		}
		l.files[p] = append(l.files[p], pf.file)
		m.origin[fset.Position(pf.file.Pos()).Filename] = pf.origin
	}
	paths := make([]string, 0, len(l.files))
	for p := range l.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, done := l.pkgs[p]; !done {
			l.check(p)
		}
	}
	if len(l.errs) > 0 {
		return nil, fmt.Errorf("type-checking %d files: %v (and %d more errors)", len(files), l.errs[0], len(l.errs)-1)
	}
	f, err := parser.ParseFile(fset, "std.go", stdContracts, 0)
	if err != nil {
		return nil, err
	}
	std, err := (&types.Config{Importer: l.std}).Check("std", fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	for _, name := range std.Scope().Names() {
		m.std = append(m.std, std.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	return m, nil
}

// modPath is the module path go.mod declares.
const modPath = "github.com/hopper-sim/hopper"

// loadModule parses and type-checks the module this package sits in, once
// for every test that asks.
var loadModule = sync.OnceValues(func() (*module, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("module root not found at %s: %v", root, err)
	}
	fset := token.NewFileSet()
	files, err := parseTree(fset, root)
	if err != nil {
		return nil, err
	}
	return typeCheck(fset, modPath, files)
})

// moduleFiles is the module this package sits in, type-checked.
func moduleFiles(t *testing.T) *module {
	t.Helper()
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m.shipped()); n < 50 {
		t.Fatalf("parsed only %d shipped files", n)
	}
	return m
}

// parseSources type-checks in-memory files keyed by their slash-separated
// path ("dir/name.go") as a module whose path is empty: a file imports
// "lib" to reach the package in lib/.
func parseSources(t *testing.T, srcs map[string]string) *module {
	t.Helper()
	fset := token.NewFileSet()
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	var files []pkgFile
	for _, name := range names {
		pf, err := parseFile(fset, name, name, srcs[name])
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, pf)
	}
	m, err := typeCheck(fset, "", files)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
