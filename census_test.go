package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The reachability census (ROADMAP item 6): an exported identifier
// declared in a non-test file under internal/ must be referenced from
// non-test code of this module or of benchmark/, outside its own
// declaration — or be named in censusAllow with the reason it stays.
// Anything else is dead weight a grep by name does not find (ops.Join
// hides behind Dataset.Join), so the test names it and the fix is to
// delete it or move it into the _test.go file that needs it.
//
// Syntax only (go/parser): package-level identifiers are matched by
// qualified reference (import path + name) plus bare uses inside the
// declaring package; methods conservatively by name, since a selector's
// receiver type is not known without type-checking — a method is live if
// any non-test selector or interface mentions its name.

// censusAllow lists the exported identifiers under internal/ that no
// non-test code references and that stay anyway, each with its reason.
// Keys are "<package dir>.<Name>" or "<package dir>.<Type>.<Method>"; a
// trailing * stands for any suffix.
var censusAllow = map[string]string{
	"internal/core.SumChecker.AccumulateScalar":      "scalar oracle the root package's BenchmarkSumAccumulateEngine measures the kernel against",
	"internal/core.PermChecker.AccumulateIntoScalar": "scalar oracle: TestPolyProdMatchesSerial holds the product kernel to it, and BenchmarkPermAccumulateEngine measures the kernel against it",

	"internal/comm.NewSimNetwork":             "cross-package test fixture (root, collective, dist); dist itself builds simnet with an explicit timeout",
	"internal/comm.FaultyNetwork.ArmPeerDown": "cross-package test fixture: service and comm tests kill a PE to hold the pool to naming the dead rank",
	"internal/hashing.FamilyByName":           "cross-package test fixture: core's tests name Table 3 configurations in the paper's syntax",
	"internal/workload.EdgePairShares":        "cross-package test fixture: the edge shapes of the ops and root one-sidedness gates",
	"internal/workload.EdgeSeqShares":         "cross-package test fixture: the edge shapes of the ops and root one-sidedness gates",

	"internal/obs.Registry.Counter": "the registry's owned-counter kind; ROADMAP item 6 (seven meters → one) makes it the single source",
}

// censusDecl is one exported declaration under internal/.
type censusDecl struct {
	key      string // allow-list key
	name     string
	method   bool
	from, to token.Pos // the declaration a use must lie outside of
}

func TestCensusEveryInternalExportIsReached(t *testing.T) {
	fset := token.NewFileSet()
	type parsed struct {
		dir  string
		file *ast.File
	}
	var files []parsed
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, parsed{filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations: exported package-level names and methods in internal/.
	var decls []censusDecl
	pkgLevel := map[string]map[string]int{} // dir -> name -> index into decls
	for _, pf := range files {
		if !strings.HasPrefix(pf.dir, "internal/") {
			continue
		}
		add := func(name *ast.Ident, recv string, from, to token.Pos) {
			// A method of an unexported type is reachable only through an
			// interface (io.Reader on a connection wrapper), never by name.
			if !name.IsExported() || recv != "" && !ast.IsExported(recv) {
				return
			}
			d := censusDecl{name: name.Name, from: from, to: to}
			if recv != "" {
				d.method = true
				d.key = pf.dir + "." + recv + "." + name.Name
			} else {
				d.key = pf.dir + "." + name.Name
				if pkgLevel[pf.dir] == nil {
					pkgLevel[pf.dir] = map[string]int{}
				}
				pkgLevel[pf.dir][name.Name] = len(decls)
			}
			decls = append(decls, d)
		}
		for _, decl := range pf.file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(d.Name, censusRecvName(d), d.Pos(), d.End())
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, "", s.Pos(), s.End())
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, "", s.Pos(), s.End())
						}
					}
				}
			}
		}
	}

	// Uses, from every non-test file (internal/, the root package, cmd/,
	// examples/, benchmark/).
	used := make([]bool, len(decls))
	methodUses := map[string][]token.Pos{}
	mark := func(dir, name string, at token.Pos) {
		if i, ok := pkgLevel[dir][name]; ok && (at < decls[i].from || at >= decls[i].to) {
			used[i] = true
		}
	}
	for _, pf := range files {
		imports := map[string]string{} // local name -> package dir
		for _, imp := range pf.file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(path, "repro/")
			if !ok {
				continue
			}
			local := dir[strings.LastIndex(dir, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = dir
		}
		// Bare uses inside the declaring package: identifiers the parser
		// left unresolved (declared in another file of the package) or
		// resolved to a package-level declaration of this file.
		for _, id := range pf.file.Unresolved {
			mark(pf.dir, id.Name, id.Pos())
		}
		recv := map[*ast.FieldList]bool{}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// A receiver is not a use of its type: a type reached only
				// by its own methods is not reached.
				if n.Recv != nil {
					recv[n.Recv] = true
				}
			case *ast.FieldList:
				if recv[n] {
					return false
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
					if dir, ok := imports[x.Name]; ok {
						mark(dir, n.Sel.Name, n.Pos())
					}
				}
				methodUses[n.Sel.Name] = append(methodUses[n.Sel.Name], n.Pos())
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						methodUses[name.Name] = append(methodUses[name.Name], token.NoPos)
					}
				}
			}
			censusIdentUse(n, pf.dir, pkgLevel, decls, mark)
			return true
		})
	}
	for i, d := range decls {
		if !d.method {
			continue
		}
		for _, at := range methodUses[d.name] {
			if at < d.from || at >= d.to {
				used[i] = true
				break
			}
		}
	}

	// allowed returns the allow-list key covering a declaration, if any.
	allowed := func(key string) string {
		for pat := range censusAllow {
			if prefix, ok := strings.CutSuffix(pat, "*"); pat == key || ok && strings.HasPrefix(key, prefix) {
				return pat
			}
		}
		return ""
	}
	var dead []string
	needed := map[string]bool{}
	for i, d := range decls {
		if used[i] || d.method && censusImplicitMethod[d.name] {
			continue
		}
		if pat := allowed(d.key); pat != "" {
			needed[pat] = true
		} else {
			dead = append(dead, d.key)
		}
	}
	for pat, reason := range censusAllow {
		if !needed[pat] {
			t.Errorf("censusAllow lists %s, but nothing it names is both declared and unreferenced: drop the entry", pat)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("censusAllow entry %s has no reason", pat)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is exported under internal/ but referenced by no non-test code: delete it, move it to the _test.go that uses it, or add it to censusAllow with a reason", key)
	}
	if _, err := os.Stat("benchmark"); err != nil {
		t.Errorf("benchmark/ must be among the census roots: %v", err)
	}
}

// censusImplicitMethod names the methods the standard library calls
// through its own interfaces (error, fmt.Stringer, errors.Is/As
// unwrapping, flag.Value), so no selector in this tree mentions them.
var censusImplicitMethod = map[string]bool{"Error": true, "String": true, "Unwrap": true, "Set": true}

// censusIdentUse marks n, if it is an identifier the parser resolved to a
// package-level declaration of its own file, as a use of that name.
func censusIdentUse(n ast.Node, dir string, pkgLevel map[string]map[string]int, decls []censusDecl, mark func(dir, name string, at token.Pos)) {
	id, ok := n.(*ast.Ident)
	if !ok || id.Obj == nil {
		return
	}
	if i, ok := pkgLevel[dir][id.Name]; ok && id.Obj.Pos() >= decls[i].from && id.Obj.Pos() < decls[i].to && id.Pos() != id.Obj.Pos() {
		mark(dir, id.Name, id.Pos())
	}
}

// censusRecvName returns the receiver's type name of a method
// declaration, "" for a function.
func censusRecvName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
