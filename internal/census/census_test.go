// Package census holds five tests over the shipped files of this module,
// the non-test .go files under internal/, cmd/ and examples/. The first
// and third resolve identifiers with go/types over the whole module: each
// package checked with its tests, and bench/ beside it.
//
// The first: every exported function or method has a shipped caller, a
// shipped file that uses the object outside its own declaration. A method
// is exempt when its receiver type implements an interface that declares
// it: one the module declares in shipped code, or a standard one in
// stdContracts. It is the exported-API twin of "no knob without two values
// in use" (ROADMAP, standing conventions).
//
// The second: the wire vocabulary is closed. Every message type the wire
// package declares (a type with a Type() MsgType method) is built, as a
// composite literal, by shipped code outside that package; a frame type
// nothing sends is dead protocol.
//
// The third: no field is written and never read. Every named field of a
// named struct type is named in a shipped selector x.F, and read somewhere
// in the module, tests included. An assignment's left-hand side, the
// operand of ++ or --, and a composite literal key are writes. A struct
// used as a map key has every field read, since a lookup compares them.
//
// The fourth: one declaration per contract. No two interface types, named
// or written inline, declare the same set of method names.
//
// The fifth: every parameter names its source. Each field of the config
// structs in paramTypes carries a comment that cites the paper (a
// Section, §, Figure or Pseudocode, with its number) or says "ours" and
// gives a reason.
//
// An allowlist entry whose reason starts with "bench/" keeps a name the
// benchmark pins (ROADMAP item 6a); it is stale once no bench/ file names
// it.
package census

import (
	"go/ast"
	"go/types"
	"regexp"
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
	"core.AllocateFairInto":              "bench/: core.allocate_us",
	"speculation.Monitor.BestVictim":     "bench/: speculation.best_victim_ns; also the tests' scan oracle",
}

// declared returns the declaration behind an instantiated function or field.
func declared(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// declKeys maps each exported function and method, and each named field of
// a named struct type, that a shipped file declares to the key it is
// reported under: dir.Name, dir.Recv.Name or dir.Type.Field.
func declKeys(m *module) (funcs, fields map[types.Object]string) {
	funcs, fields = map[types.Object]string{}, map[types.Object]string{}
	for _, pf := range m.shipped() {
		ast.Inspect(pf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Name.IsExported() {
					key := pf.dir + "." + n.Name.Name
					if n.Recv != nil {
						key = pf.dir + "." + recvName(n.Recv.List[0].Type) + "." + n.Name.Name
					}
					funcs[m.info.Defs[n.Name]] = key
				}
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					for _, f := range st.Fields.List {
						for _, name := range f.Names {
							if name.Name != "_" {
								fields[m.info.Defs[name]] = pf.dir + "." + n.Name.Name + "." + name.Name
							}
						}
					}
				}
			}
			return true
		})
	}
	return funcs, fields
}

// uncalled returns the sorted keys of the exported functions and methods
// that no shipped file uses outside their own declaration, less the
// methods called through an interface.
func uncalled(m *module) []string {
	funcs, _ := declKeys(m)
	called := m.satisfying()
	for _, pf := range m.shipped() {
		for _, d := range pf.file.Decls {
			var self types.Object // a function naming itself is no caller
			if fn, ok := d.(*ast.FuncDecl); ok {
				self = m.info.Defs[fn.Name]
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := m.info.Uses[id]; obj != nil && declared(obj) != self {
						called[declared(obj)] = true
					}
				}
				return true
			})
		}
	}
	var out []string
	for f, key := range funcs {
		if !called[f] {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// satisfying returns the methods that a shipped named type, or a pointer to
// it, implements an interface with: one a shipped file writes, or a
// standard one. A method promoted from an embedded field counts for the
// embedded type's declaration.
func (m *module) satisfying() map[types.Object]bool {
	contracts := slices.Clone(m.std)
	var named []*types.Named
	for _, pf := range m.shipped() {
		ast.Inspect(pf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				if i, ok := m.info.Types[n].Type.(*types.Interface); ok {
					contracts = append(contracts, i)
				}
			case *ast.TypeSpec:
				if t, ok := m.info.Defs[n.Name].Type().(*types.Named); ok && t.TypeParams().Len() == 0 {
					named = append(named, t)
				}
			}
			return true
		})
	}
	out := map[types.Object]bool{}
	for _, t := range named {
		ptr := types.NewPointer(t)
		for _, c := range contracts {
			if c.NumMethods() == 0 || !types.Implements(ptr, c) {
				continue
			}
			for i := range c.NumMethods() {
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, c.Method(i).Pkg(), c.Method(i).Name())
				out[declared(obj)] = true
			}
		}
	}
	return out
}

// benchNamed returns the keys of the shipped functions and fields that a
// bench/ file names, as a call, a selector or a composite literal key.
func benchNamed(m *module) map[string]bool {
	funcs, fields := declKeys(m)
	out := map[string]bool{}
	for id, obj := range m.info.Uses {
		if m.originAt(id.Pos()) != benchFile {
			continue
		}
		if k, ok := funcs[declared(obj)]; ok {
			out[k] = true
		} else if k, ok := fields[declared(obj)]; ok {
			out[k] = true
		}
	}
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
	readRule     = rule{"written, and no shipped code names it or no code reads it; delete it", "shipped code reads it now or it is gone"}
	contractRule = rule{"declare the same method names; keep one declaration", "the declarations differ now or are gone"}
	sourceRule   = rule{"a parameter whose comment names no source; cite the paper (Section, §, Figure or Pseudocode) or say \"ours\" and why", "its comment names a source now or it is gone"}
)

// audit returns one line per problem: a flagged key that allow does not
// list, an allow entry the check no longer flags, and an allow entry whose
// reason starts with "bench/" that no bench/ file names (bench holds the
// keys they name).
func (r rule) audit(flagged []string, allow map[string]string, bench map[string]bool) []string {
	seen := map[string]bool{}
	var problems []string
	for _, k := range flagged {
		seen[k] = true
		if _, ok := allow[k]; !ok {
			problems = append(problems, k+": "+r.flaw)
		}
	}
	var stale []string
	for k, why := range allow {
		switch {
		case !seen[k]:
			stale = append(stale, k+": on the allowlist, but "+r.fixed+"; drop the entry")
		case strings.HasPrefix(why, benchDir+"/") && !bench[k]:
			stale = append(stale, k+": on the allowlist for bench/, but no bench/ file names it; drop the entry")
		}
	}
	sort.Strings(stale)
	return append(problems, stale...)
}

func TestEveryExportedFuncHasAShippedCaller(t *testing.T) {
	m := moduleFiles(t)
	for _, p := range callerRule.audit(uncalled(m), allowed, benchNamed(m)) {
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
	files := moduleFiles(t).shipped()
	if !slices.ContainsFunc(files, func(pf pkgFile) bool { return pf.dir == wireDir }) {
		t.Fatalf("no shipped files of package %s", wireDir)
	}
	for _, m := range unsent(files) {
		t.Errorf("wire.%s: a message type no shipped code outside internal/%s builds; delete it, or send it", m, wireDir)
	}
}

func TestCensusFlagsUncalledAndStale(t *testing.T) {
	srcs := map[string]string{
		"lib/lib.go": `package lib

type Runner interface{ Run() }

type T struct{}
type U struct{}

func Used() int { return 1 }
func Planted() int { return Planted() + Used() } // calls itself only
func Helper()                                   {} // a method of T shares the name
func (T) Run()                                  {} // a module interface's method
func (T) String() string                        { return "" } // a standard interface's method
func (T) Helper()                               {}
func (T) Orphan()                               {}
func (*T) Kept()                                {}
func (*T) Benched()                             {}
func (U) Run(n int)                             {} // named like Runner's, but U is no Runner
func unexported()                               {}
`,
		"lib/lib_test.go": "package lib\n\nfunc use() { Helper(); T{}.Orphan() } // a test is no shipped caller\n",
		"app/main.go": `package main

import "lib"

func main() { _ = lib.Used(); lib.T{}.Helper() }
`,
		"bench/main.go": "package main\n\nimport \"lib\"\n\nfunc main() { new(lib.T).Benched() }\n",
	}
	m := parseSources(t, srcs)
	got := callerRule.audit(uncalled(m), map[string]string{
		"lib.T.Kept":    "bench/: a row no bench/ file runs",
		"lib.T.Benched": "bench/: a row",
		"lib.Gone":      "deleted since",
	}, benchNamed(m))
	want := []string{
		"lib.Helper: " + callerRule.flaw,
		"lib.Planted: " + callerRule.flaw,
		"lib.T.Orphan: " + callerRule.flaw,
		"lib.U.Run: " + callerRule.flaw,
		"lib.Gone: on the allowlist, but it has a shipped caller now or is gone; drop the entry",
		"lib.T.Kept: on the allowlist for bench/, but no bench/ file names it; drop the entry",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("audit:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// An allowlisted name that gains a caller is stale too.
	srcs["cmd/use.go"] = `package main

import "lib"

func use(t *lib.T) { t.Kept(); lib.Planted(); t.Orphan(); lib.Helper(); lib.U{}.Run(1) }
`
	got = callerRule.audit(uncalled(parseSources(t, srcs)), map[string]string{"lib.T.Kept": "kept on purpose"}, nil)
	want = []string{
		"lib.T.Benched: " + callerRule.flaw,
		"lib.T.Kept: on the allowlist, but it has a shipped caller now or is gone; drop the entry",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("audit after a caller appears:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestCensusFlagsUnsentWireMessage(t *testing.T) {
	srcs := map[string]string{
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

func send(...any) {}

func main() { send(&wire.Sent{N: 1}, []wire.Header{{N: 2}}) }
`,
	}
	if got, want := strings.Join(unsent(parseSources(t, srcs).shipped()), ","), "Planted"; got != want {
		t.Fatalf("unsent = %q, want %q", got, want)
	}
	srcs["cmd/use.go"] = "package main\n\nimport \"wire\"\n\nvar p = wire.Planted{N: 3}\n"
	if got := unsent(parseSources(t, srcs).shipped()); len(got) != 0 {
		t.Fatalf("unsent after a sender appears = %q, want none", got)
	}
}

// allowedUnread are the write-only fields the module keeps, each with its
// reason; like allowed, the list can only shrink.
var allowedUnread = map[string]string{
	// Read, or set, by bench/ alone until ROADMAP item 6a.
	"cluster.MachineClass.Name":           "bench/: sim.go's machine classes set it",
	"core.JobDemand.ID":                   "bench/: driveAllocate sets it",
	"cluster.Machine.ID":                  "bench/: drivePlace and driveLoadCache read it",
	"cluster.Executor.SaturatedTime":      "bench/: cluster.saturated_frac",
	"decentral.Counters.ProbeEventsSaved": "bench/: decentral.probe_events_saved_frac",
	// virtualConn.Send's literal is the frame log's one writer, and the
	// frame-log golden (chaos_golden_test.go) its reader.
	"live.sentFrame.at":       "test oracle: the frame-log golden prints it",
	"live.sentFrame.sched":    "test oracle: the frame-log golden prints it",
	"live.sentFrame.worker":   "test oracle: the frame-log golden prints it",
	"live.sentFrame.toWorker": "test oracle: the frame-log golden prints it",
}

// unread returns the sorted keys (dir.Type.Field) of the named fields of
// named struct types that no shipped selector x.F names, or that no file
// of the module, tests included, reads.
func unread(m *module) []string {
	_, fields := declKeys(m)
	named := map[types.Object]bool{} // by a shipped selector
	read := map[types.Object]bool{}  // anywhere in the module
	for _, pf := range m.files {
		if pf.origin == benchFile {
			continue
		}
		written := writes(pf.file)
		ast.Inspect(pf.file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if v, ok := m.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
					f := v.Origin()
					named[f] = named[f] || pf.origin == shippedFile
					read[f] = read[f] || !written[sel]
				}
			}
			return true
		})
	}
	for e, tv := range m.info.Types {
		if tv.Type == nil {
			continue
		}
		if mt, ok := tv.Type.Underlying().(*types.Map); ok && m.originAt(e.Pos()) != benchFile {
			readKey(mt.Key(), m.originAt(e.Pos()) == shippedFile, named, read)
		}
	}
	var out []string
	for f, key := range fields {
		if !named[f] || !read[f] {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// readKey marks every field of a map key type read, nested structs and
// arrays included, and named too when shipped code holds the map.
func readKey(t types.Type, shipped bool, named, read map[types.Object]bool) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := range u.NumFields() {
			f := u.Field(i).Origin()
			named[f] = named[f] || shipped
			read[f] = true
			readKey(f.Type(), shipped, named, read)
		}
	case *types.Array:
		readKey(u.Elem(), shipped, named, read)
	}
}

// writes returns the selectors f writes without reading: an assignment's
// left-hand side and the operand of ++ or --.
func writes(f *ast.File) map[*ast.SelectorExpr]bool {
	w := map[*ast.SelectorExpr]bool{}
	mark := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			w[sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				mark(e)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		}
		return true
	})
	return w
}

func TestEveryFieldIsRead(t *testing.T) {
	m := moduleFiles(t)
	for _, p := range readRule.audit(unread(m), allowedUnread, benchNamed(m)) {
		t.Error(p)
	}
}

func TestCensusFlagsWriteOnlyField(t *testing.T) {
	srcs := map[string]string{
		"other/other.go": "package other\n\nvar Scheduler = \"s\"\n",
		"lib/lib.go": `package lib

import "other"

type Run struct {
	Jobs      []int
	Scheduler string // set in a composite literal, never read
	Tag       string
	Count     int    // written through selectors, never read
	Note      string // written here, read by a test
	Bench     int    // set here, read by bench/ alone
	_         int
}

type Plan struct {
	Jobs []int // Run.Jobs is read, this one only written
}

type key struct{ a, b int } // a map key: a lookup reads every field

var seen = map[key]bool{}

func fill() int {
	r := &Run{Scheduler: "x", Tag: "t", Bench: 1}
	_ = other.Scheduler // a package's name, not a field
	r.Count++
	r.Count = 2
	r.Note = "n"
	p := Plan{Jobs: []int{1}}
	seen[key{1, 2}] = true
	_ = p
	return len(r.Jobs)
}
`,
		"lib/lib_test.go": "package lib\n\nfunc note(r *Run) string { return r.Note }\n",
		"bench/main.go":   "package main\n\nimport \"lib\"\n\nfunc main() { _ = new(lib.Run).Bench }\n",
		"lib/ext_test.go": "package lib_test\n\nimport \"lib\"\n\nvar _ = lib.Plan{}\n",
		"app/app.go":      "package main\n\nimport \"lib\"\n\nfunc main() { _ = lib.Run{Tag: \"u\"} }\n",
	}
	m := parseSources(t, srcs)
	got := readRule.audit(unread(m), map[string]string{
		"lib.Run.Tag":   "kept on purpose",
		"lib.Run.Bench": "bench/: a row",
		"lib.Run.Gone":  "deleted since",
	}, benchNamed(m))
	want := []string{
		"lib.Plan.Jobs: " + readRule.flaw,
		"lib.Run.Count: " + readRule.flaw,
		"lib.Run.Scheduler: " + readRule.flaw,
		"lib.Run.Gone: on the allowlist, but shipped code reads it now or it is gone; drop the entry",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("audit:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	srcs["cmd/use.go"] = "package main\n\nimport \"lib\"\n\nfunc use(r *lib.Run) string { return r.Scheduler }\n"
	if got := unread(parseSources(t, srcs)); strings.Join(got, ",") != "lib.Plan.Jobs,lib.Run.Bench,lib.Run.Count,lib.Run.Tag" {
		t.Fatalf("unread after a reader appears = %q, want [lib.Plan.Jobs lib.Run.Bench lib.Run.Count lib.Run.Tag]", got)
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
	for _, p := range contractRule.audit(duplicateContracts(moduleFiles(t).shipped()), allowedContracts, nil) {
		t.Error(p)
	}
}

func TestCensusFlagsDuplicateContract(t *testing.T) {
	files := parseSources(t, map[string]string{
		"experiments/runner.go": `package experiments

type Job struct{}

type Arriver interface {
	Name() string
	Arrive(j *Job)
	Completed() []*Job
}

type Number interface{ ~int | ~float64 }

func pick(rng interface{ Float64() float64 }) {}
`,
		"scheduler/base.go": `package scheduler

type Job struct{}

type Engine interface {
	Completed() []*Job
	Arrive(j *Job)
	Name() string
}

type Namer interface{ Name() string }

type Ordered interface{ ~int | ~string }

func draw(rng interface{ Float64() float64 }) {}
`,
	}).shipped()
	got := contractRule.audit(duplicateContracts(files), map[string]string{
		"experiments.interface{Float64} = scheduler.interface{Float64}": "kept on purpose",
		"scheduler.Gone = wire.Gone":                                    "deleted since",
	}, nil)
	want := []string{
		"experiments.Arriver = scheduler.Engine: declare the same method names; keep one declaration",
		"scheduler.Gone = wire.Gone: on the allowlist, but the declarations differ now or are gone; drop the entry",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("audit:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// paramTypes are the config structs (dir.Type) whose every field is a
// parameter of the reproduction: the table both planes share, each
// plane's own knobs, and the execution model the simulator draws from.
var paramTypes = []string{"speculation.Config", "scheduler.Config", "protocol.Config", "decentral.Config", "cluster.ExecModel"}

// allowedUnsourced are the parameters the module keeps without a source,
// each with its reason; like allowed, the list can only shrink.
var allowedUnsourced = map[string]string{}

// sourceRe matches a comment that cites the paper by a numbered Section,
// §, Figure or Pseudocode, or that says "ours" and goes on to a reason.
var sourceRe = regexp.MustCompile(`(Sections?|§|Figures?|Pseudocode)\s*\d|\b[Oo]urs\b[:;,(—-]?\s*\w`)

// unsourced returns the sorted keys (dir.Type.Field) of the fields of
// types whose doc and line comments together fail sourceRe, and the
// types no file declares as a struct.
func unsourced(files []pkgFile, names []string) (flagged, missing []string) {
	found := map[string]bool{}
	for _, pf := range files {
		ast.Inspect(pf.file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			key := pf.dir + "." + ts.Name.Name
			if !ok || !slices.Contains(names, key) {
				return true
			}
			found[key] = true
			for _, f := range st.Fields.List {
				if sourceRe.MatchString(f.Doc.Text() + " " + f.Comment.Text()) {
					continue
				}
				for _, name := range f.Names {
					flagged = append(flagged, key+"."+name.Name)
				}
			}
			return true
		})
	}
	for _, t := range names {
		if !found[t] {
			missing = append(missing, t)
		}
	}
	sort.Strings(flagged)
	return flagged, missing
}

func TestEveryParamNamesItsSource(t *testing.T) {
	flagged, missing := unsourced(moduleFiles(t).shipped(), paramTypes)
	for _, m := range missing {
		t.Errorf("%s: listed in paramTypes, but no shipped file declares it as a struct", m)
	}
	for _, p := range sourceRule.audit(flagged, allowedUnsourced, nil) {
		t.Error(p)
	}
}

func TestCensusFlagsUnsourcedParam(t *testing.T) {
	files := parseSources(t, map[string]string{
		"speculation/spec.go": `package speculation

type Config struct {
	// MaxCopies caps live copies. Default 2 (Section 4.2).
	MaxCopies int
	// Policy picks stragglers. Ours: LATE is what the baselines run.
	Policy string
	// Delay is a guess. Default ours.
	Delay float64
	Budget, Pool int // ours
	Cap          int // two to three refusals suffice (Figure 5b)
	// Floor is (1−ε) of the fair share, §4.3.
	Floor float64
	// Workers concludes after Pseudocode 3's refusals.
	Workers int
	// Kept has no source on purpose.
	Kept int
}

type Other struct{ Unsourced int } // not a listed type
`,
	}).shipped()
	flagged, missing := unsourced(files, []string{"speculation.Config", "cluster.ExecModel"})
	if strings.Join(missing, ",") != "cluster.ExecModel" {
		t.Fatalf("missing = %q, want [cluster.ExecModel]", missing)
	}
	got := sourceRule.audit(flagged, map[string]string{"speculation.Config.Kept": "kept on purpose", "speculation.Config.Gone": "deleted since"}, nil)
	want := []string{
		"speculation.Config.Budget: " + sourceRule.flaw,
		"speculation.Config.Delay: " + sourceRule.flaw,
		"speculation.Config.Pool: " + sourceRule.flaw,
		"speculation.Config.Gone: on the allowlist, but " + sourceRule.fixed + "; drop the entry",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("audit:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
