// Package census holds seven tests over the shipped files of this module
// (non-test .go files under internal/, cmd/ and examples/), resolved with
// go/types over one load of the whole module, tests and bench/ included.
// A TestCensusFlags test plants each rule.
//
// The first: every package-level function, method, type, constant and
// variable has a shipped use outside its own declaration; a receiver is no
// use of its type, and a blank declaration (var _ = T{}) no use of anything.
// A method implementing an interface that shipped code declares, or one in
// stdContracts, is exempt. A test helper or replica in a shipped file
// fails, whatever its name.
//
// The second: every wire message type (a Type() MsgType method) is built,
// as a composite literal, by shipped code outside package wire; a frame
// type nothing sends is dead protocol.
//
// The third: every named field of a named struct type is named in a
// shipped selector and read in the module, tests included. An assignment's
// left-hand side, ++, -- and a literal key are writes; a map key's fields
// are read.
//
// The fourth: no two interface types declare the same set of method names.
//
// The fifth: each field of the paramTypes structs cites its source in a
// comment: a numbered Section, §, Figure or Pseudocode, or "ours" and why.
//
// The sixth: no shipped file declares a name in the retired table.
//
// The seventh: outside internal/speculation, shipped code neither calls a
// oneBuilder constructor nor writes a oneBuilder field.
//
// An allowlist entry whose reason starts with "bench/" keeps a name the
// benchmark pins (ROADMAP item 6a), stale once no bench/ file names it.
package census

import (
	"go/ast"
	"go/types"
	"maps"
	"path"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// allowed are the declarations the caller rule flags and the module keeps,
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

// declKeys maps each package-level function, type, constant and variable
// a shipped file declares (bar init and main, which the runtime calls), each
// method, and each named field of a named struct type, to its key:
// dir.Name, dir.Recv.Name or dir.Type.Field.
func declKeys(m *module) (decls, fields map[types.Object]string) {
	decls, fields = map[types.Object]string{}, map[types.Object]string{}
	for id, obj := range m.info.Defs {
		if obj == nil || m.originAt(id.Pos()) != shippedFile {
			continue
		}
		key := path.Base(obj.Pkg().Path()) + "."
		if r := recvOf(obj); r != nil {
			decls[obj] = key + r.Name() + "." + obj.Name()
		} else if obj.Pkg().Scope().Lookup(obj.Name()) == obj && (obj.Name() != "main" || obj.Pkg().Name() != "main") {
			decls[obj] = key + obj.Name()
		}
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					if f := st.Field(i); !f.Embedded() && f.Name() != "_" {
						fields[f] = key + tn.Name() + "." + f.Name()
					}
				}
			}
		}
	}
	return decls, fields
}

// recvOf is a method's receiver type name; nil for an interface's method
// and any other object.
func recvOf(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		if r := fn.Type().(*types.Signature).Recv(); r != nil && !types.IsInterface(r.Type()) {
			return namedObj(r.Type())
		}
	}
	return nil
}

// uncalled returns the sorted keys of the declarations no shipped file uses
// outside the top-level function or spec declaring them, less the methods
// called through an interface. A receiver names its type without using it,
// and a declaration of _ alone names what it mentions without using it.
func uncalled(m *module) []string {
	decls, _ := declKeys(m)
	used := m.satisfying()
	for _, pf := range m.shipped() {
		var unit ast.Node     // the top-level function or spec being walked
		var recv types.Object // its receiver's type, for a method
		ast.Inspect(pf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				unit, recv = n, recvOf(m.info.Defs[n.Name])
			case *ast.TypeSpec, *ast.ValueSpec:
				if vs, ok := n.(*ast.ValueSpec); ok && !slices.ContainsFunc(vs.Names, func(id *ast.Ident) bool { return id.Name != "_" }) {
					return false // var _ I = (*T)(nil) uses neither I nor T
				}
				if unit == nil || n.Pos() >= unit.End() {
					unit, recv = n, nil
				}
			case *ast.Ident:
				if obj := declared(m.info.Uses[n]); obj != nil && obj != recv && (obj.Pos() < unit.Pos() || obj.Pos() >= unit.End()) {
					used[obj] = true
				}
			}
			return true
		})
	}
	var out []string
	for d, key := range decls {
		if !used[d] {
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

// benchNamed returns the keys of the shipped declarations and fields that a
// bench/ file names, as a call, a selector or a composite literal key.
func benchNamed(m *module) map[string]bool {
	keys, fields := declKeys(m)
	maps.Copy(keys, fields)
	out := map[string]bool{}
	for id, obj := range m.info.Uses {
		if k, ok := keys[declared(obj)]; ok && m.originAt(id.Pos()) == benchFile {
			out[k] = true
		}
	}
	return out
}

// rule is one census check's verdict on a flagged key and on a stale
// allowlist entry.
type rule struct {
	flaw  string // what is wrong with a flagged key, and the fix
	fixed string // why an allowlist entry the check no longer flags is stale
}

var (
	callerRule   = rule{"no shipped code uses it; delete it or move it into a _test.go file", "shipped code uses it now or it is gone"}
	readRule     = rule{"written, and no shipped code names it or no code reads it; delete it", "shipped code reads it now or it is gone"}
	contractRule = rule{"declare the same method names; keep one declaration", "the declarations differ now or are gone"}
	sourceRule   = rule{"a parameter whose comment names no source; cite the paper (Section, §, Figure or Pseudocode) or say \"ours\" and why", "its comment names a source now or it is gone"}
	retiredRule  = rule{"a retired name is back in shipped code; keep it in a _test.go file or delete it", "it is gone"}
	builderRule  = rule{"built or written outside internal/speculation; hold a speculation.Book, and put a default in speculation.Config.WithDefaults", "the line no longer builds or writes it"}
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

// unsent returns the sorted names of the wire message types that no
// shipped file outside wireDir builds as a composite literal. A message type
// is one with a method Type() MsgType declared in wireDir.
func unsent(m *module) []string {
	msgs, built := map[types.Object]bool{}, map[types.Object]bool{}
	for _, pf := range m.shipped() {
		ast.Inspect(pf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				r, sig := recvOf(m.info.Defs[n.Name]), m.info.Defs[n.Name].Type().(*types.Signature)
				if r != nil && pf.dir == wireDir && n.Name.Name == "Type" && sig.Results().Len() == 1 &&
					namedObj(sig.Results().At(0).Type()) == r.Pkg().Scope().Lookup("MsgType") {
					msgs[r] = true
				}
			case *ast.CompositeLit:
				if pf.dir != wireDir {
					built[namedObj(m.info.Types[n].Type)] = true
				}
			}
			return true
		})
	}
	var out []string
	for t := range msgs {
		if !built[t] {
			out = append(out, t.Name())
		}
	}
	sort.Strings(out)
	return out
}

// namedObj is the type name of a named type or of a pointer to one, and nil
// for any other type.
func namedObj(t types.Type) types.Object {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

func TestEveryWireMessageIsSent(t *testing.T) {
	m := moduleFiles(t)
	if !slices.ContainsFunc(m.shipped(), func(pf pkgFile) bool { return pf.dir == wireDir }) {
		t.Fatalf("no shipped files of package %s", wireDir)
	}
	for _, name := range unsent(m) {
		t.Errorf("wire.%s: a message type no shipped code outside internal/%s builds; delete it, or send it", name, wireDir)
	}
}

func TestCensusFlagsUncalledAndStale(t *testing.T) {
	srcs := map[string]string{
		"lib/lib.go": `package lib

type Runner interface{ Run() }

type T struct{}
type U struct{}
type Asserted struct{}

var _ Runner = (*Asserted)(nil) // a blank declaration uses neither Runner nor Asserted
var _ = U{}                     // and this one does not use U

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
func (*Asserted) Run()                          {} // Runner's method
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
		"lib.Asserted: " + callerRule.flaw,
		"lib.Helper: " + callerRule.flaw,
		"lib.Planted: " + callerRule.flaw,
		"lib.Runner: " + callerRule.flaw, // an interface no code names
		"lib.T.Orphan: " + callerRule.flaw,
		"lib.U: " + callerRule.flaw, // its own methods are no use
		"lib.U.Run: " + callerRule.flaw,
		"lib.unexported: " + callerRule.flaw,
		"lib.Gone: on the allowlist, but shipped code uses it now or it is gone; drop the entry",
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
		"cmd.use: " + callerRule.flaw, // the caller itself has none
		"lib.Asserted: " + callerRule.flaw,
		"lib.Runner: " + callerRule.flaw,
		"lib.T.Benched: " + callerRule.flaw,
		"lib.unexported: " + callerRule.flaw,
		"lib.T.Kept: on the allowlist, but shipped code uses it now or it is gone; drop the entry",
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
	if got, want := strings.Join(unsent(parseSources(t, srcs)), ","), "Planted"; got != want {
		t.Fatalf("unsent = %q, want %q", got, want)
	}
	// Another package imported under the name wire builds no wire message.
	srcs["fake/fake.go"] = "package fake\n\ntype Planted struct{ N int }\n"
	srcs["cmd/fake.go"] = "package main\n\nimport wire \"fake\"\n\nvar f = wire.Planted{N: 4}\n"
	if got, want := strings.Join(unsent(parseSources(t, srcs)), ","), "Planted"; got != want {
		t.Fatalf("unsent beside a look-alike = %q, want %q", got, want)
	}
	srcs["cmd/use.go"] = "package main\n\nimport \"wire\"\n\nvar p = wire.Planted{N: 3}\n"
	if got := unsent(parseSources(t, srcs)); len(got) != 0 {
		t.Fatalf("unsent after a sender appears = %q, want none", got)
	}
	// The wire package imported under another name is still the wire package.
	srcs["cmd/use.go"] = "package main\n\nimport w \"wire\"\n\nvar p = w.Planted{N: 3}\n"
	if got := unsent(parseSources(t, srcs)); len(got) != 0 {
		t.Fatalf("unsent after an aliased sender appears = %q, want none", got)
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

// retired are names simplifications deleted, keyed by the change and why.
var retired = map[string][]string{
	"PR 23: the reference dispatch and the fault matrix's recovery replica are test code": {"ReferenceDispatch", "chaosLayer", "assignRecord"},
	"PR 24: an offer's bookkeeping is the worker core's":                                  {"offerTracker", "pendingOffer", "offerDeadlines", "deferredReply"},
	"PR 25: a copy's record and race are cluster's; the fault wrapper went":               {"lCopy", "byTask", "detachCopy", "WrapFaulty"},
	"PR 27: the victim index is the one speculation path, with no gate or noise knob":     {"EnableIndex", "DisableIndex", "IndexEnabled", "IndexExact", "IndexedVictims", "DisableVictimIndex", "EstimateNoise"},
	"PR 29: tcpConn is the one connection":                                                {"memConn", "NewConnFlush", "TaskSpec"},
	"PR 31: the victim index is the running set; the unused fair-share engine went":       {"RunningSet", "SchedPos", "FairEngine", "NewFair", "waterfill"},
	"PR 32: live.Drive is the one client-side load driver":                                {"OpenLoop", "OpenLoopConfig", "OpenLoopStats", "openLoopJobBase", "WaitJob", "SetRecvDeadline", "forceClassedLayout", "OnJobComplete"},
	"PR 35: pointer-free heap keys, an embedded finish handle, one cluster.CopySource":    {"slotHeap", "finishEv", "CopyServiceRNG", "NewFastRand"},
	"PR 38: the straggler monitor is one job's record inside its JobBook":                 {"jobHistory", "jobStats"},
	"PR 45: a worker is its speed and capacity; Epsilon: 1 is the one fairness switch":    {"ClassSpec", "MaxHelloClasses", "classForWorker", "helloClass", "TPing", "TPong", "FairnessOff"},
	"PR 46: the experiment registry is the one list of drivers":                           {"ScenarioByID", "registerScenario", "printScenarios"},
	"a live node's clock, timers and pump are its loop's":                                 {"tickWall", "tickerEv", "offerTimerFn", "offerTimerEv", "armOfferTimer"},
	"a node timer cancels exactly in its loop; a worker's slots are its copy records":     {"retryStale", "armRetry", "cancelRetry", "retryFired", "bindCopy", "freeCopy", "stopCopy"},
	"a node's inbox is a FIFO its loop owns, and only its readers wait":                   {"inbox"},
	"a connection's flush runs only while frames wait; its Reader buffers the socket":     {"writeLoop", "drained", "notFull", "recvBuffer", "readerScratch", "inertTimer"},
	"a live peer is named once; the timer wheel is the only wall clock":                   {"WallTimers", "wallTimers", "wallTimer", "idByPeer", "schedID", "schedPeer", "prevHello"},
}

// revived returns one key (dir/file.go:line: Name, retired by ...) per
// identifier a shipped file declares, in any scope, under a retired name.
func revived(m *module, retired map[string][]string) []string {
	var out []string
	for id := range m.info.Defs {
		for reason, names := range retired {
			if slices.Contains(names, id.Name) && m.originAt(id.Pos()) == shippedFile {
				out = append(out, m.where(id.Pos())+": "+id.Name+", retired by "+reason)
			}
		}
	}
	sort.Strings(out)
	return out
}

func TestNoRetiredNameReturns(t *testing.T) {
	for _, p := range retiredRule.audit(revived(moduleFiles(t), retired), nil, nil) {
		t.Error(p)
	}
}

// oneBuilder are the estimators' and the monitor's constructors, and the
// fields whose one default is speculation.Config.WithDefaults.
var oneBuilder = []string{"stats.NewTailEstimator", "estimate.NewAlphaEstimator", "speculation.NewMonitor",
	"speculation.Config.Epsilon", "speculation.Config.BetaPrior"}

// allowedOutside are the calls and writes builtOutside flags that the
// module keeps, each with its reason; like allowed, it can only shrink.
var allowedOutside = map[string]string{
	"experiments/fig3.go:182: speculation.Config.BetaPrior": "Figure 2's example sets β = 1.6 (V_A = 5 slots): a setting, not a default",
}

// builtOutside returns one key (dir/file.go:line: key) per use of a
// oneBuilder function or write of a oneBuilder field outside speculation.
func builtOutside(m *module) []string {
	decls, fields := declKeys(m)
	var out []string
	for _, pf := range m.shipped() {
		written := writes(pf.file)
		ast.Inspect(pf.file, func(n ast.Node) bool {
			k := ""
			if id, ok := n.(*ast.Ident); ok {
				k = decls[declared(m.info.Uses[id])]
			} else if sel, ok := n.(*ast.SelectorExpr); ok && written[sel] {
				k = fields[declared(m.info.Uses[sel.Sel])]
			}
			if pf.dir != "speculation" && slices.Contains(oneBuilder, k) {
				out = append(out, m.where(n.Pos())+": "+k)
			}
			return true
		})
	}
	sort.Strings(out)
	return out
}

func TestSpeculationStateHasOneBuilder(t *testing.T) {
	for _, p := range builderRule.audit(builtOutside(moduleFiles(t)), allowedOutside, nil) {
		t.Error(p)
	}
}

func TestCensusFlagsUnusedUnexported(t *testing.T) {
	m := parseSources(t, map[string]string{
		"lib/lib.go": `package lib

type runner interface{ run() }

type impl struct{}
type fakeConn struct{} // a replica only a test builds

func (impl) run()     {} // a module interface's method
func (impl) stop()    {}
func (fakeConn) run() {}

func helper() int { return 1 }
func used() int   { return 2 }

func Start() {
	var r runner = impl{}
	r.run()
	_ = used()
}
`,
		"lib/lib_test.go": "package lib\n\nfunc use() { _ = helper(); fakeConn{}.run() }\n",
		"app/main.go":     "package main\n\nimport \"lib\"\n\nfunc main() { lib.Start() }\n",
	})
	got := callerRule.audit(uncalled(m), nil, nil)
	want := []string{
		"lib.fakeConn: " + callerRule.flaw,
		"lib.helper: " + callerRule.flaw,
		"lib.impl.stop: " + callerRule.flaw,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("audit:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestCensusFlagsRetiredName(t *testing.T) {
	m := parseSources(t, map[string]string{
		"lib/lib.go": `package lib

// Driver replaces OpenLoop: a comment may name a retired name.
type Driver struct{ byTask map[int]int }

func (Driver) WaitJob() {}

func Run() int {
	slotHeap := 1
	return slotHeap
}
`,
		"lib/lib_test.go": "package lib\n\nfunc OpenLoop() {} // a test may declare one\n",
	})
	got := retiredRule.audit(revived(m, map[string][]string{"PR 1: gone": {"OpenLoop", "byTask", "WaitJob", "slotHeap"}}), nil, nil)
	want := []string{
		"lib/lib.go:4: byTask, retired by PR 1: gone: " + retiredRule.flaw,
		"lib/lib.go:6: WaitJob, retired by PR 1: gone: " + retiredRule.flaw,
		"lib/lib.go:9: slotHeap, retired by PR 1: gone: " + retiredRule.flaw,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("audit:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestCensusFlagsSecondBuilder(t *testing.T) {
	m := parseSources(t, map[string]string{
		"stats/tail.go": `package stats

type TailEstimator struct{}

func NewTailEstimator(xm, prior float64, n int) *TailEstimator { return &TailEstimator{} }
`,
		"speculation/spec.go": `package speculation

import "stats"

type Config struct{ Epsilon, BetaPrior float64 }

func (c Config) WithDefaults() Config {
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	return c
}

type Monitor struct{}

func NewMonitor() *Monitor { return &Monitor{} }

func NewBook(c Config) *stats.TailEstimator { return stats.NewTailEstimator(1, c.BetaPrior, 10) }
`,
		"protocol/protocol.go": `package protocol

import "speculation"

type Config struct{ Spec speculation.Config }

func (c Config) WithDefaults() Config {
	if c.Spec.Epsilon == 0 {
		c.Spec.Epsilon = 0.1
	}
	c.Spec = c.Spec.WithDefaults()
	return c
}
`,
		"live/live.go": `package live

import (
	"speculation"
	"stats"
)

func build(x *speculation.Config) speculation.Config {
	_ = stats.NewTailEstimator(1, x.BetaPrior, 3)
	x.BetaPrior = 2
	x.BetaPrior++
	return speculation.Config{Epsilon: 1}
}
`,
		"live/live_test.go": "package live\n\nimport \"speculation\"\n\nvar _ = speculation.NewMonitor()\n",
	})
	got := builderRule.audit(builtOutside(m), map[string]string{
		"live/live.go:11: speculation.Config.BetaPrior":         "kept on purpose",
		"experiments/fig3.go:182: speculation.Config.BetaPrior": "deleted since",
	}, nil)
	want := []string{
		"live/live.go:10: speculation.Config.BetaPrior: " + builderRule.flaw,
		"live/live.go:9: stats.NewTailEstimator: " + builderRule.flaw,
		"protocol/protocol.go:9: speculation.Config.Epsilon: " + builderRule.flaw,
		"experiments/fig3.go:182: speculation.Config.BetaPrior: on the allowlist, but " + builderRule.fixed + "; drop the entry",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("audit:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
