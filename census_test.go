package repro

import (
	"errors"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The reachability census (ROADMAP items 6 and 17). It type-checks every
// non-test package of this module, and benchmark/ as a caller only, and
// requires a non-test use, outside the item's own declaration, of
//   - every package-level identifier, exported or not;
//   - every method, resolved by its receiver type, or reached because its
//     type satisfies an interface whose method something calls (the
//     standard library's interfaces, such as error, fmt.Stringer and
//     flag.Value, count as called);
//   - every field of an options struct (a struct type named Options,
//     *Options or *Config).
// It also requires every cmd/repro subcommand to be invoked by a CI step or
// a README command, and every flag to be passed by such a command of a
// subcommand that defines it (a flag also counts when cmd/repro passes it
// to a child process it starts). Anything else is dead weight: delete it, move
// it into the _test.go file that uses it, or list it below with the reason
// it stays.

// censusAllowRoot lists what the census finds outside internal/: the root
// package, cmd/ and examples/.
var censusAllowRoot = map[string]string{
	"repro.Dataset.GroupByKey": "the paper's GroupBy, whose exchange Corollary 14 checks; no example groups",
	"repro.Dataset.Join":       "the paper's inner join, whose exchanges Corollary 15 checks; no example joins",
	"repro.Dataset.MaxByKey":   "the paper's max aggregation (Theorem 9's certificate), the mirror of MinByKey, which examples/pipeline calls",
	"repro.Seq.Merge":          "the paper's merge of sorted sequences (Corollary 13); no example merges",
}

// censusAllowInternal lists what the census finds under internal/.
var censusAllowInternal = map[string]string{
	"internal/core.SumChecker.AccumulateScalar": "scalar oracle the root package's BenchmarkSumAccumulateEngine and exp's Fig. 3 oracle test measure the kernel against",

	"internal/comm.FaultyNetwork.ArmPeerDown": "cross-package test fixture: service and comm tests kill a PE to hold the pool to naming the dead rank",
	"internal/hashing.FamilyByName":           "cross-package test fixture: core's tests name Table 3 configurations in the paper's syntax",
	"internal/workload.EdgePairShares":        "cross-package test fixture: the edge shapes of the ops and root one-sidedness gates",
	"internal/workload.EdgeSeqShares":         "cross-package test fixture: the edge shapes of the ops and root one-sidedness gates",
}

func TestCensus(t *testing.T) {
	if raceEnabled {
		t.Skip("the census type-checks the module and the standard library from source, several times slower under -race; CI runs it in its own step without -race")
	}
	start := time.Now()
	s := newCensus(".", "repro")
	if err := s.loadTree("."); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat("benchmark/go.mod"); err != nil {
		t.Fatalf("benchmark/ must be among the census's callers: %v", err)
	}
	if err := s.loadTree("benchmark"); err != nil {
		t.Fatal(err)
	}
	found := s.dead()
	cli, err := s.cliUnpassed("README.md", ".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	found = append(found, cli...)
	t.Logf("census of %d module packages, benchmark/ calling, in %v", len(s.checked), time.Since(start).Round(time.Millisecond))

	seen := map[string]bool{}
	for _, key := range found {
		seen[key] = true
		allow := censusAllowInternal
		if !strings.HasPrefix(key, "internal/") {
			allow = censusAllowRoot
		}
		if _, ok := allow[key]; !ok {
			t.Errorf("%s is reached by no non-test code (a flag or subcommand: by no CI step or README command): delete it, move it to the _test.go that uses it, or add it to the census allow-list with a reason", key)
		}
	}
	for _, allow := range []map[string]string{censusAllowRoot, censusAllowInternal} {
		for key, reason := range allow {
			if !seen[key] {
				t.Errorf("the census allow-list names %s, which is not both declared and unreached: drop the entry", key)
			}
			if strings.TrimSpace(reason) == "" {
				t.Errorf("census allow-list entry %s has no reason", key)
			}
		}
	}
}

// TestCensusFixture holds the census to the cases a match by name gets
// wrong (testdata/census, which go build ./... skips): a dead method named
// like a live method of another type, and a dead unexported function, are
// found; a method reached only through an interface is not.
func TestCensusFixture(t *testing.T) {
	if raceEnabled {
		t.Skip("type-checks the standard library from source; runs without -race")
	}
	s := newCensus("testdata/census", "fixture")
	if err := s.loadTree("."); err != nil {
		t.Fatal(err)
	}
	got := s.dead()
	want := []string{"fixture.appendFrame", "fixture.stale.Bits"}
	if !slices.Equal(got, want) {
		t.Fatalf("census of the fixture found %v, want %v", got, want)
	}
}

// census type-checks a tree of packages whose import paths are prefix
// followed by their directory below root.
type census struct {
	root, prefix string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*censusPkg // by directory
	checked      []*censusPkg          // declarations to account for
}

type censusPkg struct {
	dir   string // slash-separated, relative to the census root
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

func newCensus(root, prefix string) *census {
	fset := token.NewFileSet()
	return &census{root: root, prefix: prefix, fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*censusPkg{}}
}

// loadTree loads every package in dir and below it. A package whose
// declarations the census accounts for is one of the root module's; a
// directory with its own go.mod (benchmark/) is loaded by its own call,
// as a caller only.
func (s *census) loadTree(dir string) error {
	callerOnly := dir != "."
	return filepath.WalkDir(filepath.Join(s.root, dir), func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(s.root, path)
		rel = filepath.ToSlash(rel)
		if rel != dir {
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && !callerOnly {
				return filepath.SkipDir
			}
		}
		p, err := s.load(rel)
		if p != nil && !callerOnly {
			s.checked = append(s.checked, p)
		}
		return err
	})
}

// Import resolves the tree's own packages from source and everything else
// through the standard library's source importer.
func (s *census) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, s.prefix+"/")
	if path == s.prefix {
		dir, ok = ".", true
	}
	if !ok {
		return s.std.Import(path)
	}
	p, err := s.load(dir)
	if p == nil && err == nil {
		err = &build.NoGoError{Dir: dir}
	}
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// load parses and type-checks the non-test files of one directory, once;
// it returns nil for a directory with none.
func (s *census) load(dir string) (*censusPkg, error) {
	if p, ok := s.pkgs[dir]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(filepath.Join(s.root, dir), 0)
	if _, ok := err.(*build.NoGoError); ok {
		s.pkgs[dir] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	p := &censusPkg{dir: dir, info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(s.root, dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	path := s.prefix
	if dir != "." {
		path += "/" + dir
	}
	conf := types.Config{Importer: s}
	if p.pkg, err = conf.Check(path, s.fset, p.files, p.info); err != nil {
		return nil, err
	}
	s.pkgs[dir] = p
	return p, nil
}

// censusDecl is one declaration the census accounts for.
type censusDecl struct {
	key      string
	from, to token.Pos // a use must lie outside
	used     bool
}

// dead returns, sorted, the keys of the accounted declarations that no
// non-test code reaches: "<dir>.<Name>" or "<dir>.<Type>.<Member>", with
// the root directory named by the import prefix.
func (s *census) dead() []string {
	decls := map[types.Object]*censusDecl{}
	recv := map[*ast.Ident]bool{} // a receiver is not a use of its type
	var named []types.Type        // the package-level defined types that are not interfaces
	for _, p := range s.checked {
		dirKey := s.prefix
		if p.dir != "." {
			dirKey = p.dir
		}
		add := func(id *ast.Ident, key string, n ast.Node) {
			if obj := p.info.Defs[id]; obj != nil && id.Name != "_" {
				decls[obj] = &censusDecl{key: dirKey + "." + key, from: n.Pos(), to: n.End()}
			}
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						if d.Name.Name != "init" && (d.Name.Name != "main" || p.pkg.Name() != "main") {
							add(d.Name, d.Name.Name, d)
						}
						continue
					}
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
					add(d.Name, censusRecvName(p.info.Defs[d.Name].(*types.Func))+"."+d.Name.Name, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.ValueSpec:
							for _, id := range sp.Names {
								add(id, id.Name, sp)
							}
						case *ast.TypeSpec:
							add(sp.Name, sp.Name.Name, sp)
							if t := p.info.Defs[sp.Name].Type(); !sp.Assign.IsValid() && !types.IsInterface(t) {
								named = append(named, t)
							}
							name := sp.Name.Name
							switch tt := sp.Type.(type) {
							case *ast.InterfaceType:
								for _, fld := range tt.Methods.List {
									for _, id := range fld.Names {
										add(id, name+"."+id.Name, fld)
									}
								}
							case *ast.StructType:
								if strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") {
									for _, fld := range tt.Fields.List {
										for _, id := range fld.Names {
											add(id, name+"."+id.Name, fld)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}

	// Uses, from every loaded package, benchmark/ included; and the
	// interface methods something calls.
	called := map[string][]types.Type{} // method name -> interfaces
	call := func(name string, iface types.Type) {
		if !slices.Contains(called[name], iface) {
			called[name] = append(called[name], iface)
		}
	}
	for _, p := range s.pkgs {
		if p == nil {
			continue
		}
		for id, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
				if r := o.Signature().Recv(); r != nil && types.IsInterface(r.Type()) {
					call(o.Name(), r.Type())
				}
			case *types.Var:
				obj = o.Origin()
			}
			if d := decls[obj]; d != nil && !recv[id] && (id.Pos() < d.from || id.Pos() >= d.to) {
				d.used = true
			}
		}
		// The standard library calls the methods of its own interfaces
		// (fmt.Stringer, flag.Value, io.Writer) on values handed to it.
		for _, imp := range p.pkg.Imports() {
			if imp.Path() == s.prefix || strings.HasPrefix(imp.Path(), s.prefix+"/") {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && types.IsInterface(tn.Type()) {
					iface := tn.Type().Underlying().(*types.Interface)
					for i := range iface.NumMethods() {
						call(iface.Method(i).Name(), tn.Type())
					}
				}
			}
		}
	}
	// A method is also reached when its type, or a type embedding it,
	// satisfies an interface whose method something calls.
	errType := types.Universe.Lookup("error").Type()
	call("Error", errType)
	for _, t := range named {
		ms := types.NewMethodSet(types.NewPointer(t))
		for i := range ms.Len() {
			m := ms.At(i).Obj().(*types.Func).Origin()
			d := decls[m]
			if d == nil || d.used {
				continue
			}
			for _, iface := range called[m.Name()] {
				if censusImplements(t, iface) {
					d.used = true
					break
				}
			}
			// errors.Is, As and Unwrap call these on an error by name.
			if (m.Name() == "Unwrap" || m.Name() == "Is" || m.Name() == "As") && censusImplements(t, errType) {
				d.used = true
			}
		}
	}

	var out []string
	for _, d := range decls {
		if !d.used {
			out = append(out, d.key)
		}
	}
	slices.Sort(out)
	return out
}

// censusImplements reports whether t or *t implements iface. A generic
// type, or an interface with unbound type parameters, is matched by method
// names only.
func censusImplements(t, iface types.Type) bool {
	it := iface.Underlying().(*types.Interface)
	if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
		return true
	}
	named, ok := t.(*types.Named)
	if !ok || named.TypeParams().Len() == 0 && !censusGenericIface(iface) {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := range it.NumMethods() {
		if ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()) == nil {
			return false
		}
	}
	return true
}

// censusGenericIface reports whether t is an interface with unbound type
// parameters, as stream.Source[T] is where the generic stream.Drain calls
// its Next.
func censusGenericIface(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if named.TypeParams().Len() > 0 && named.TypeArgs().Len() == 0 {
		return true
	}
	for i := range named.TypeArgs().Len() {
		if _, ok := named.TypeArgs().At(i).(*types.TypeParam); ok {
			return true
		}
	}
	return false
}

// censusRecvName is the name of a method's receiver type.
func censusRecvName(m *types.Func) string {
	t := m.Signature().Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// cliUnpassed returns the cmd/repro subcommands no document invokes as
// "repro <name>", as "cmd/repro <name>", and the flags no document passes
// to a subcommand that defines them, as "cmd/repro <subcommands> -<name>".
// The documents are the command lines of the CI workflow that run repro
// and the code of the README (fenced blocks and inline spans); a command
// passes the "-<name>" words that follow "repro <subcommand>" up to the
// next shell separator. A flag is defined for the subcommands whose row's
// handler reaches the function that defines it, so a helper's flag (a
// shared -transport) counts as passed when one of them passes it. A flag
// also counts as passed when cmd/repro itself hands it to a child process,
// as a "-<name>" string constant in a function the subcommand reaches.
func (s *census) cliUnpassed(readme, ci string) ([]string, error) {
	p := s.pkgs["cmd/repro"]
	if p == nil {
		return nil, errors.New("census: cmd/repro was not loaded")
	}
	var lines []string
	b, err := os.ReadFile(filepath.Join(s.root, ci))
	if err != nil {
		return nil, err
	}
	lines = append(lines, strings.Split(string(b), "\n")...)
	if b, err = os.ReadFile(filepath.Join(s.root, readme)); err != nil {
		return nil, err
	}
	var prose strings.Builder
	fenced := false
	for _, line := range strings.Split(strings.ReplaceAll(string(b), "\\\n", " "), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
		} else if fenced {
			lines = append(lines, line)
		} else {
			prose.WriteString(line + "\n")
		}
	}
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(prose.String(), -1) {
		lines = append(lines, m[1])
	}
	// passed[sub] is the set of flags the commands invoking sub pass,
	// non-nil once some command invokes sub.
	passed := map[string]map[string]bool{}
	command := regexp.MustCompile(`\brepro[ \t]+([a-z0-9]+)`)
	flagWord := regexp.MustCompile(`(?:^|[\s(/,])-([a-z][a-z0-9-]*)`)
	for _, line := range lines {
		at := command.FindAllStringSubmatchIndex(line, -1)
		for i, m := range at {
			args := line[m[1]:]
			if i+1 < len(at) {
				args = line[m[1]:at[i+1][0]]
			}
			if end := strings.IndexAny(args, ";|&"); end >= 0 {
				args = args[:end]
			}
			sub := line[m[2]:m[3]]
			if passed[sub] == nil {
				passed[sub] = map[string]bool{}
			}
			for _, f := range flagWord.FindAllStringSubmatch(args, -1) {
				passed[sub][f[1]] = true
			}
		}
	}

	sub, _ := p.pkg.Scope().Lookup("subcommand").(*types.TypeName)
	if sub == nil {
		return nil, errors.New("census: cmd/repro declares no subcommand type, whose rows name the subcommands")
	}
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decls[p.info.Defs[fd.Name].(*types.Func)] = fd
			}
		}
	}
	// rowsOf[fd] lists the subcommands whose handler reaches fd: the
	// functions a row's handler expression names, and transitively the
	// functions their bodies name.
	rowsOf := map[*ast.FuncDecl][]string{}
	var reach func(row string, n ast.Node)
	reach = func(row string, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := p.info.Uses[id].(*types.Func); ok {
					if fd := decls[fn]; fd != nil && !slices.Contains(rowsOf[fd], row) {
						rowsOf[fd] = append(rowsOf[fd], row)
						reach(row, fd)
					}
				}
			}
			return true
		})
	}
	var out []string
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			// The rows of the subcommand table, alone or in a slice
			// literal: a row's first field is its name, its third the
			// handler.
			rows := []ast.Expr{lit}
			if at, ok := lit.Type.(*ast.ArrayType); ok && censusIsType(p.info, at.Elt, sub) {
				rows = lit.Elts
			} else if !censusIsType(p.info, lit.Type, sub) {
				rows = nil
			}
			for _, row := range rows {
				if row, ok := row.(*ast.CompositeLit); ok && len(row.Elts) > 2 {
					name := censusString(p.info, row.Elts[0])
					if passed[name] == nil {
						out = append(out, "cmd/repro "+name)
					}
					reach(name, row.Elts[2])
				}
			}
			return true
		})
	}
	// A "-<name>" string constant passes the flag to a child for the
	// subcommands that reach it.
	for fd, rows := range rowsOf {
		ast.Inspect(fd, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok {
				if v, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(v, "-") {
					for _, row := range rows {
						if passed[row] != nil {
							passed[row][v[1:]] = true
						}
					}
				}
			}
			return true
		})
	}
	// Flags: the name argument of every flag definition, the package
	// flag's functions and FlagSet methods that take a name and a usage.
	for _, fd := range decls {
		rows := rowsOf[fd]
		slices.Sort(rows)
		ast.Inspect(fd, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
				return true
			}
			at, usage := -1, false
			for i := range fn.Signature().Params().Len() {
				switch fn.Signature().Params().At(i).Name() {
				case "name":
					at = i
				case "usage":
					usage = true
				}
			}
			if at < 0 || !usage {
				return true
			}
			name := censusString(p.info, call.Args[at])
			if !slices.ContainsFunc(rows, func(row string) bool { return passed[row][name] }) {
				out = append(out, strings.TrimSpace("cmd/repro "+strings.Join(rows, ","))+" -"+name)
			}
			return true
		})
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

// censusIsType reports whether e names the type tn.
func censusIsType(info *types.Info, e ast.Expr, tn *types.TypeName) bool {
	id, ok := e.(*ast.Ident)
	return ok && info.Uses[id] == tn
}

// censusString is the value of a string constant expression: a literal or
// a named constant.
func censusString(info *types.Info, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.BasicLit:
		v, _ := strconv.Unquote(e.Value)
		return v
	case *ast.Ident:
		if c, ok := info.Uses[e].(*types.Const); ok && c.Val().Kind() == constant.String {
			return constant.StringVal(c.Val())
		}
	}
	return ""
}
