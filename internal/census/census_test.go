// Package census holds four tests over the shipped files of this module,
// the non-test .go files under internal/, cmd/ and examples/.
//
// The first: every exported function or method has a shipped caller. It
// flags each exported func whose name appears as an identifier nowhere
// outside its own declaration. Methods that satisfy an interface are
// exempt: the standard ones listed in interfaceMethods, and every method
// named by an interface type the module declares. The check is by name,
// not by type: a method shares its callers with every other function of
// the same name. It is the exported-API twin of "no knob without two
// values in use" (ROADMAP, standing conventions).
//
// The second: the wire vocabulary is closed. Every message type the wire
// package declares (a type with a Type() MsgType method) is built, as a
// composite literal, by shipped code outside that package; a frame type
// nothing sends is dead protocol.
//
// The third: no field is written and never read. Every named field of a
// named struct type is named in a selector x.F somewhere in shipped code;
// a composite literal key is not a selector. The check is by name and by
// syntax, like the first: any selector with the field's name counts, a
// method call or an assignment's left-hand side included. So it catches
// a field that only composite literals set, not one written through x.F
// and read by tests alone.
//
// The fourth: one declaration per contract. No two interface types, named
// or written inline, declare the same set of method names.
package census

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
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
	"cluster.Job.RunnablePhasesScan":     "test oracle: the runnable-phase cursor's scan",
	"cluster.Job.RecomputeRunnable":      "test oracle: rebuilds the runnable set from scratch",
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

// rule is one census check's verdict on a flagged key and on a stale
// allowlist entry.
type rule struct {
	flaw  string // what is wrong with a flagged key, and the fix
	fixed string // why an allowlist entry the check no longer flags is stale
}

var (
	callerRule   = rule{"exported, and no shipped code calls it; delete it or move it into a _test.go file", "it has a shipped caller now or is gone"}
	readRule     = rule{"written, and no shipped code reads it; delete it", "shipped code reads it now or it is gone"}
	contractRule = rule{"declare the same method names; keep one declaration", "the declarations differ now or are gone"}
)

// audit returns one line per problem: a flagged key that allow does not
// list, and an allow entry the check no longer flags.
func (r rule) audit(flagged []string, allow map[string]string) []string {
	seen := map[string]bool{}
	var problems []string
	for _, k := range flagged {
		seen[k] = true
		if _, ok := allow[k]; !ok {
			problems = append(problems, k+": "+r.flaw)
		}
	}
	var stale []string
	for k := range allow {
		if !seen[k] {
			stale = append(stale, k+": on the allowlist, but "+r.fixed+"; drop the entry")
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

// moduleFiles parses the shipped files of the module this package sits in.
func moduleFiles(t *testing.T) []pkgFile {
	t.Helper()
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
	return files
}

func TestEveryExportedFuncHasAShippedCaller(t *testing.T) {
	for _, p := range callerRule.audit(uncalled(moduleFiles(t)), allowed) {
		t.Error(p)
	}
}

// wireDir is the directory of the package that declares the wire messages.
const wireDir = "wire"

// unsent returns the sorted names of the wire message types that no shipped
// file outside wireDir builds as a wire.T{...} composite literal. A message
// type is one with a method Type() MsgType declared in wireDir.
func unsent(files []pkgFile) []string {
	msgs := map[string]bool{}
	built := map[string]bool{}
	for _, pf := range files {
		if pf.dir == wireDir {
			for _, d := range pf.file.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Name.Name == "Type" && returnsMsgType(fn.Type) {
					msgs[recvName(fn.Recv.List[0].Type)] = true
				}
			}
			continue
		}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok {
				if sel, ok := lit.Type.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == wireDir {
						built[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	}
	var out []string
	for m := range msgs {
		if !built[m] {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

// returnsMsgType reports whether a function type returns exactly MsgType.
func returnsMsgType(ft *ast.FuncType) bool {
	if ft.Results == nil || len(ft.Results.List) != 1 {
		return false
	}
	id, ok := ft.Results.List[0].Type.(*ast.Ident)
	return ok && id.Name == "MsgType"
}

func TestEveryWireMessageIsSent(t *testing.T) {
	files := moduleFiles(t)
	if !slices.ContainsFunc(files, func(pf pkgFile) bool { return pf.dir == wireDir }) {
		t.Fatalf("no shipped files of package %s", wireDir)
	}
	for _, m := range unsent(files) {
		t.Errorf("wire.%s: a message type no shipped code outside internal/%s builds; delete it, or send it", m, wireDir)
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
	got := callerRule.audit(uncalled(files), map[string]string{
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
	got = callerRule.audit(uncalled(files), map[string]string{"lib.T.Kept": "kept on purpose"})
	want = []string{"lib.T.Kept: on the allowlist, but it has a shipped caller now or is gone; drop the entry"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("audit after a caller appears:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestCensusFlagsUnsentWireMessage(t *testing.T) {
	files := parseSources(t, map[string]string{
		"wire/wire.go": `package wire

type MsgType uint8

type Message interface{ Type() MsgType }

type Sent struct{ N int }
type Planted struct{ N int }
type Header struct{ N int } // no Type method: not a message

func (*Sent) Type() MsgType    { return 1 }
func (*Planted) Type() MsgType { return 2 }
func (*Header) Type() int      { return 3 }

func newMessage(t MsgType) Message {
	if t == 2 {
		return &Planted{} // the package building its own zero value is no sender
	}
	return &Sent{}
}
`,
		"app/main.go": `package main

import "wire"

func main() { send(&wire.Sent{N: 1}, []wire.Header{{N: 2}}) }
`,
	})
	if got, want := strings.Join(unsent(files), ","), "Planted"; got != want {
		t.Fatalf("unsent = %q, want %q", got, want)
	}
	files = append(files, parseSources(t, map[string]string{
		"cmd/use.go": "package main\n\nvar p = wire.Planted{N: 3}\n",
	})...)
	if got := unsent(files); len(got) != 0 {
		t.Fatalf("unsent after a sender appears = %q, want none", got)
	}
}

// allowedUnread are the write-only fields the module keeps, each with its
// reason; like allowed, the list can only shrink.
var allowedUnread = map[string]string{}

// unread returns the sorted keys (dir.Type.Field) of the named fields of
// named struct types that no shipped file names in a selector x.F. A
// selector on an imported package's name (pkg.F) is no read.
func unread(files []pkgFile) []string {
	fields := map[string]string{} // key -> field name
	read := map[string]bool{}
	for _, pf := range files {
		pkgs := map[string]bool{}
		for _, imp := range pf.file.Imports {
			name := path.Base(strings.Trim(imp.Path.Value, `"`))
			if imp.Name != nil {
				name = imp.Name.Name
			}
			pkgs[name] = true
		}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					for _, f := range st.Fields.List {
						for _, name := range f.Names {
							if name.Name != "_" {
								fields[pf.dir+"."+n.Name.Name+"."+name.Name] = name.Name
							}
						}
					}
				}
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); !ok || !pkgs[id.Name] {
					read[n.Sel.Name] = true
				}
			}
			return true
		})
	}
	var out []string
	for key, name := range fields {
		if !read[name] {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

func TestEveryFieldIsRead(t *testing.T) {
	for _, p := range readRule.audit(unread(moduleFiles(t)), allowedUnread) {
		t.Error(p)
	}
}

func TestCensusFlagsWriteOnlyField(t *testing.T) {
	files := parseSources(t, map[string]string{
		"lib/lib.go": `package lib

import "other"

type Run struct {
	Jobs      []int
	Scheduler string // set in a composite literal, never read
	Name      string // read through a method of the same name
	Tag       string
	_         int
}

func (r *Run) Name() string { return "" }

func fill() int {
	r := &Run{Scheduler: "x", Tag: "t"}
	_ = other.Scheduler // a package's name, not a field
	_ = r.Name()
	return len(r.Jobs)
}
`,
	})
	got := readRule.audit(unread(files), map[string]string{"lib.Run.Tag": "kept on purpose", "lib.Run.Gone": "deleted since"})
	want := []string{
		"lib.Run.Scheduler: written, and no shipped code reads it; delete it",
		"lib.Run.Gone: on the allowlist, but shipped code reads it now or it is gone; drop the entry",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("audit:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	files = append(files, parseSources(t, map[string]string{
		"cmd/use.go": "package main\n\nfunc use(r *lib.Run) string { return r.Scheduler }\n",
	})...)
	if got := unread(files); strings.Join(got, ",") != "lib.Run.Tag" {
		t.Fatalf("unread after a reader appears = %q, want [lib.Run.Tag]", got)
	}
}

// allowedContracts are the groups of interfaces the module keeps with one
// method set, each with its reason; like allowed, the list can only shrink.
var allowedContracts = map[string]string{}

// duplicateContracts returns one sorted key per set of two or more
// interface types that declare the same method names, the set's members
// joined by " = ": dir.Name for a named interface, dir.interface{M, ...}
// for one written inline. Embedded interfaces are not expanded, and an
// interface that declares no method of its own (a type constraint, any)
// is no contract.
func duplicateContracts(files []pkgFile) []string {
	byMethods := map[string][]string{}
	for _, pf := range files {
		named := map[*ast.InterfaceType]string{}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if it, ok := n.Type.(*ast.InterfaceType); ok {
					named[it] = n.Name.Name
				}
			case *ast.InterfaceType:
				var methods []string
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						methods = append(methods, name.Name)
					}
				}
				if len(methods) == 0 {
					return true
				}
				sort.Strings(methods)
				set := strings.Join(methods, ", ")
				name, ok := named[n]
				if !ok {
					name = "interface{" + set + "}"
				}
				byMethods[set] = append(byMethods[set], pf.dir+"."+name)
			}
			return true
		})
	}
	var out []string
	for _, decls := range byMethods {
		if len(decls) > 1 {
			sort.Strings(decls)
			out = append(out, strings.Join(decls, " = "))
		}
	}
	sort.Strings(out)
	return out
}

func TestOneDeclarationPerContract(t *testing.T) {
	for _, p := range contractRule.audit(duplicateContracts(moduleFiles(t)), allowedContracts) {
		t.Error(p)
	}
}

func TestCensusFlagsDuplicateContract(t *testing.T) {
	files := parseSources(t, map[string]string{
		"experiments/runner.go": `package experiments

type Arriver interface {
	Name() string
	Arrive(j *Job)
	Completed() []*Job
}

type Number interface{ ~int | ~float64 }

func pick(rng interface{ Float64() float64 }) {}
`,
		"scheduler/base.go": `package scheduler

type Engine interface {
	Completed() []*Job
	Arrive(j *Job)
	Name() string
}

type Namer interface{ Name() string }

type Ordered interface{ ~int | ~string }

func draw(rng interface{ Float64() float64 }) {}
`,
	})
	got := contractRule.audit(duplicateContracts(files), map[string]string{
		"experiments.interface{Float64} = scheduler.interface{Float64}": "kept on purpose",
		"scheduler.Gone = wire.Gone":                                    "deleted since",
	})
	want := []string{
		"experiments.Arriver = scheduler.Engine: declare the same method names; keep one declaration",
		"scheduler.Gone = wire.Gone: on the allowlist, but the declarations differ now or are gone; drop the entry",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("audit:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
