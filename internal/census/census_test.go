// Package census holds one test: every exported function or method in a
// shipped file of this module has a shipped caller. It parses the non-test
// .go files under internal/, cmd/ and examples/ and flags each exported
// func whose name appears as an identifier nowhere outside its own
// declaration. Methods that satisfy an interface are exempt: the standard
// ones listed in interfaceMethods, and every method named by an interface
// type the module declares.
//
// The check is by name, not by type: a method shares its callers with every
// other function of the same name. It is the exported-API twin of "no knob
// without two values in use" (ROADMAP, standing conventions).
package census

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowed are the exported functions the census flags and the module keeps,
// each with its reason. An entry that gains a shipped caller or disappears
// fails the test, so the list can only shrink.
var allowed = map[string]string{
	// Called by bench/ until the benchmark re-points its rows at the code
	// the engines run (ROADMAP item 6a).
	"simulator.Engine.PostAfterArg":      "bench/: driveQueue",
	"scheduler.Base.ActiveJobs":          "bench/: the scheduler rows",
	"speculation.NewMonitor":             "bench/: the speculation rows; also the tests' scan oracle",
	"speculation.Monitor.CandidatesInto": "bench/: speculation.scan_us; also the tests' scan oracle",
	"transport.Pair":                     "bench/: transport.mempair_msgs_per_s; also the live tests' loopback pair",
	"cluster.Machines.NewSubsetSampler":  "bench/: cluster.subset_ns_per_target",
	"speculation.Monitor.VictimsInto":    "test oracle: the victim index's scan differential",
	"cluster.Job.RunnablePhasesScan":     "test oracle: the runnable-phase cursor's scan",
	"cluster.Job.RecomputeRunnable":      "test oracle: rebuilds the runnable set from scratch",
	"protocol.Worker.OffersOut":          "read by other packages' tests",
	"metrics.Histogram.Merge":            "ROADMAP item 7's registry merges per-node histograms",
}

// interfaceMethods are method names that satisfy a standard-library
// interface; the module's own interfaces add theirs at run time.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true,
	"Len": true, "Less": true, "Swap": true,
}

// shippedDirs are the trees, relative to the module root, whose non-test
// files ship.
var shippedDirs = []string{"internal", "cmd", "examples"}

// pkgFile is one parsed non-test file and the directory it sits in.
type pkgFile struct {
	dir  string // last element of the file's directory, e.g. "simulator"
	file *ast.File
}

// decl is one exported function or method and the key it is reported under.
type decl struct {
	key    string // dir.Name or dir.Recv.Name
	name   string
	method bool
}

// uncalled returns the sorted keys of the exported functions and methods in
// files that nothing outside their own declaration names.
func uncalled(files []pkgFile) []string {
	exempt := map[string]bool{}
	for k := range interfaceMethods {
		exempt[k] = true
	}
	used := map[string]bool{}
	var decls []decl
	for _, pf := range files {
		for _, d := range pf.file.Decls {
			self := "" // a function's own name inside its declaration is no use
			if fn, ok := d.(*ast.FuncDecl); ok {
				self = fn.Name.Name
				if fn.Name.IsExported() {
					key := pf.dir + "." + self
					if fn.Recv != nil {
						key = pf.dir + "." + recvName(fn.Recv.List[0].Type) + "." + self
					}
					decls = append(decls, decl{key: key, name: self, method: fn.Recv != nil})
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							exempt[name.Name] = true
						}
					}
				case *ast.Ident:
					if n.Name != self {
						used[n.Name] = true
					}
				}
				return true
			})
		}
	}
	var out []string
	for _, d := range decls {
		if !used[d.name] && !(d.method && exempt[d.name]) {
			out = append(out, d.key)
		}
	}
	sort.Strings(out)
	return out
}

// recvName is the type name of a method's receiver: T for T, *T, T[K] and *T[K].
func recvName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvName(t.X)
	case *ast.IndexExpr:
		return recvName(t.X)
	case *ast.IndexListExpr:
		return recvName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}

// audit returns one line per problem: an uncalled function that allow does
// not list, and an allow entry the census no longer flags.
func audit(files []pkgFile, allow map[string]string) []string {
	flagged := map[string]bool{}
	var problems []string
	for _, k := range uncalled(files) {
		flagged[k] = true
		if _, ok := allow[k]; !ok {
			problems = append(problems, k+": exported, and no shipped code calls it; delete it or move it into a _test.go file")
		}
	}
	var stale []string
	for k := range allow {
		if !flagged[k] {
			stale = append(stale, k+": on the allowlist, but it has a shipped caller now or is gone; drop the entry")
		}
	}
	sort.Strings(stale)
	return append(problems, stale...)
}

// parseShipped parses every non-test .go file under root's shipped trees.
func parseShipped(t *testing.T, root string) []pkgFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []pkgFile
	for _, top := range shippedDirs {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, pkgFile{dir: filepath.Base(filepath.Dir(path)), file: f})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

func TestEveryExportedFuncHasAShippedCaller(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	files := parseShipped(t, root)
	if len(files) < 50 {
		t.Fatalf("parsed only %d shipped files under %s", len(files), root)
	}
	for _, p := range audit(files, allowed) {
		t.Error(p)
	}
}

// parseSources parses in-memory files keyed by "dir/name.go".
func parseSources(t *testing.T, srcs map[string]string) []pkgFile {
	t.Helper()
	fset := token.NewFileSet()
	var names []string
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	var files []pkgFile
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, srcs[name], parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, pkgFile{dir: filepath.Dir(name), file: f})
	}
	return files
}

func TestCensusFlagsUncalledAndStale(t *testing.T) {
	files := parseSources(t, map[string]string{
		"lib/lib.go": `package lib

type Runner interface{ Run() }

type T struct{}

func Used() int { return 1 }
func Planted() int { return Planted() + Used() } // calls itself only
func (T) Run()             {}                   // a module interface's method
func (T) String() string   { return "" }        // a standard interface's method
func (T) Orphan()          {}
func (*T) Kept()           {}
func unexported()          {}
`,
		"app/main.go": `package main

import "lib"

func main() { _ = lib.Used() }
`,
	})
	got := audit(files, map[string]string{
		"lib.T.Kept": "kept on purpose",
		"lib.Gone":   "deleted since",
	})
	want := []string{
		"lib.Planted: exported, and no shipped code calls it; delete it or move it into a _test.go file",
		"lib.T.Orphan: exported, and no shipped code calls it; delete it or move it into a _test.go file",
		"lib.Gone: on the allowlist, but it has a shipped caller now or is gone; drop the entry",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("audit:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// An allowlisted name that gains a caller is stale too.
	files = append(files, parseSources(t, map[string]string{
		"cmd/use.go": "package main\n\nfunc use(t *lib.T) { t.Kept(); lib.Planted(); t.Orphan() }\n",
	})...)
	got = audit(files, map[string]string{"lib.T.Kept": "kept on purpose"})
	want = []string{"lib.T.Kept: on the allowlist, but it has a shipped caller now or is gone; drop the entry"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("audit after a caller appears:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
