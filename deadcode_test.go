package repro

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoDeadCode fails on any function or method declared in the
// non-test Go of this module that nothing refers to. Callers are the
// non-test files of this module (cmd/ and examples/ included) and of
// the bench/ module, and bench_test.go, whose benchmarks produce
// EXPERIMENTS.md's tables. A function kept without a caller needs an
// entry with a reason in testdata/deadcode_allow.txt; an entry with no
// reason, for a name that does not exist, or for a name that now has a
// caller fails the test too.
func TestNoDeadCode(t *testing.T) {
	dead, declared, err := deadScan([]string{".", "bench"}, []string{"bench_test.go"})
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(filepath.Join("testdata", "deadcode_allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkAllowlist(string(text), dead, declared) {
		t.Error(p)
	}
}

// TestDeadScanFlagsFixture runs the scan on the fixture module in
// testdata/deadfixture, which holds one function or method of each
// kind the scan must flag or pass, and checks each allowlist failure.
func TestDeadScanFlagsFixture(t *testing.T) {
	dead, declared, err := deadScan([]string{filepath.Join("testdata", "deadfixture")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"deadfixture/shapes.Bag.Len",          // a Len() int on a type no interface receives
		"deadfixture/shapes.Square.Perimeter", // an unused method
		"deadfixture/shapes.Unused",           // an unused exported function
		"deadfixture/shapes.countdown",        // called only by itself
	}
	if strings.Join(dead, " ") != strings.Join(want, " ") {
		t.Errorf("flagged %q, want %q", dead, want)
	}
	for _, name := range []string{
		"deadfixture/shapes.Square.Area",   // reached only through Shape
		"deadfixture/shapes.Square.String", // reached through fmt
		"deadfixture/shapes.Color.String",  // reached through fmt by reflection
		"deadfixture/shapes.byName.Len",    // reached through sort.Sort
		"deadfixture/shapes.Counter.Incr",  // reached through a promoted method
	} {
		if !declared[name] {
			t.Errorf("%s not declared", name)
		}
	}

	for _, tc := range []struct {
		name, allow, want string
	}{
		{"passes", "deadfixture/shapes.Bag.Len  kept for a test\n" +
			"deadfixture/shapes.Square.Perimeter  kept for a test\n" +
			"# a comment\n\n" +
			"deadfixture/shapes.Unused  kept for a test\n" +
			"deadfixture/shapes.countdown  kept for a test\n", ""},
		{"no-reason", "deadfixture/shapes.Unused\n", "deadfixture/shapes.Unused has no reason"},
		{"no-such-name", "deadfixture/shapes.Gone  was deleted\n", "deadfixture/shapes.Gone is not declared"},
		{"has-a-caller", "deadfixture/shapes.Used  kept for a test\n", "deadfixture/shapes.Used has a caller"},
		{"unlisted", "", "deadfixture/shapes.Unused has no caller"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			problems := checkAllowlist(tc.allow, dead, declared)
			got := strings.Join(problems, "\n")
			if tc.want == "" && got != "" {
				t.Fatalf("problems: %s", got)
			}
			if !strings.Contains(got, tc.want) {
				t.Fatalf("problems %q lack %q", got, tc.want)
			}
		})
	}
}

// checkAllowlist matches the allowlist text against a scan's result.
// Each entry is a name, then its reason, on one line; blank lines and
// lines starting with # are skipped. It returns one line per problem:
// a dead name without an entry, an entry without a reason, for a name
// that is not declared, or for a name that has a caller.
func checkAllowlist(text string, dead []string, declared map[string]bool) []string {
	var problems []string
	allowed := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		switch {
		case strings.TrimSpace(reason) == "":
			problems = append(problems, name+" has no reason in the allowlist")
		case !declared[name]:
			problems = append(problems, name+" is not declared; remove its allowlist entry")
		}
		allowed[name] = true
	}
	isDead := map[string]bool{}
	for _, name := range dead {
		isDead[name] = true
		if !allowed[name] {
			problems = append(problems, name+" has no caller; delete it or give it an allowlist entry with a reason")
		}
	}
	for name := range allowed {
		if declared[name] && !isDead[name] {
			problems = append(problems, name+" has a caller; remove its allowlist entry")
		}
	}
	sort.Strings(problems)
	return problems
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Main bool }
}

// deadScan type-checks the non-test files of the modules in dirs and
// returns, sorted, the functions and methods declared in the first
// module that no non-test file of any of them refers to, nor any of
// the extra files (a package of their own, in the first module's
// directory). It also returns every name declared there. main and init
// are never flagged, nor is a reference from inside a function to
// itself a caller.
//
// A method also counts as used when its receiver type is converted to
// an interface somewhere in the scanned code and either that interface
// has the method, or some interface whose method of that name is
// called is one the type implements; and when it implements one of
// the interfaces in stdlibCalls. A method that merely shares a name
// with an interface method therefore stays flagged.
func deadScan(dirs []string, extra []string) ([]string, map[string]bool, error) {
	fset := token.NewFileSet()
	s := &scan{
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*types.Package{},
		used:   map[*types.Func]bool{},
		boxed:  map[types.Type][]types.Type{},
		called: map[*types.Func]bool{},
	}
	var own []*types.Func
	for i, dir := range dirs {
		cmd := exec.Command("go", "list", "-pgo=off", "-deps", "-json", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.Bytes())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for dec.More() {
			var p listedPackage
			if err := dec.Decode(&p); err != nil {
				return nil, nil, err
			}
			if p.Standard || s.pkgs[p.ImportPath] != nil || len(p.GoFiles) == 0 {
				continue
			}
			paths := make([]string, len(p.GoFiles))
			for j, f := range p.GoFiles {
				paths[j] = filepath.Join(p.Dir, f)
			}
			files, info, err := s.check(fset, p.ImportPath, paths, nil)
			if err != nil {
				return nil, nil, err
			}
			if i == 0 && p.Module != nil && p.Module.Main {
				for _, f := range files {
					for _, d := range f.Decls {
						if fd, ok := d.(*ast.FuncDecl); ok {
							if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
								own = append(own, fn)
							}
						}
					}
				}
			}
		}
	}
	if len(extra) > 0 {
		paths := make([]string, len(extra))
		for j, f := range extra {
			paths[j] = filepath.Join(dirs[0], f)
		}
		if _, _, err := s.check(fset, "extra", paths, nil); err != nil {
			return nil, nil, err
		}
	}
	_, info, err := s.check(fset, "stdlibcalls", []string{""}, stdlibCalls)
	if err != nil {
		return nil, nil, err
	}
	var protocols []*types.Func
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			protocols = append(protocols, fn)
		}
	}
	s.resolveInterfaces()

	var dead []string
	declared := map[string]bool{}
	for _, fn := range own {
		name := funcName(fn)
		declared[name] = true
		entry := fn.Type().(*types.Signature).Recv() == nil && (fn.Name() == "main" || fn.Name() == "init")
		if !entry && !s.used[fn] && !satisfies(fn, protocols) {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	return dead, declared, nil
}

// stdlibCalls refers to the interface methods the standard library
// calls, by type assertion, on values it is handed as an any or an
// error: fmt's, errors' and the encoders'. fmt and the encoders also
// reach the fields of what they are handed by reflection, which no
// conversion in the source shows, so a method that satisfies one of
// these interfaces counts as used whatever its type.
const stdlibCalls = `package stdlibcalls

import (
	"encoding"
	"encoding/json"
	"fmt"
)

var _ = []any{
	fmt.Stringer.String, fmt.GoStringer.GoString, fmt.Formatter.Format, error.Error,
	(interface{ Unwrap() error }).Unwrap, (interface{ Unwrap() []error }).Unwrap,
	(interface{ Is(error) bool }).Is, (interface{ As(any) bool }).As,
	json.Marshaler.MarshalJSON, json.Unmarshaler.UnmarshalJSON,
	encoding.TextMarshaler.MarshalText, encoding.TextUnmarshaler.UnmarshalText,
}
`

// scan holds what deadScan learns across packages: the checked
// packages, the functions referred to, the interfaces each concrete
// type is converted to, and the interface methods called.
type scan struct {
	std    types.Importer
	pkgs   map[string]*types.Package
	used   map[*types.Func]bool
	boxed  map[types.Type][]types.Type
	called map[*types.Func]bool
}

// Import resolves a module package from those already checked, and
// any other from the standard library's source.
func (s *scan) Import(path string) (*types.Package, error) {
	if p := s.pkgs[path]; p != nil {
		return p, nil
	}
	return s.std.Import(path)
}

// check parses and type-checks one package and records its uses. A
// path of "" parses src instead.
func (s *scan) check(fset *token.FileSet, path string, paths []string, src any) ([]*ast.File, *types.Info, error) {
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	pkg, err := (&types.Config{Importer: s}).Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	s.pkgs[path] = pkg
	for _, f := range files {
		s.record(f, info)
	}
	for _, inst := range info.Instances {
		for i := 0; i < inst.TypeArgs.Len(); i++ {
			s.box(inst.TypeArgs.At(i), types.Universe.Lookup("any").Type())
		}
	}
	return files, info, nil
}

// record walks one file: every reference to a function outside its
// own declaration is a use, every method called through an interface
// is noted, and so is every conversion of a concrete type to an
// interface.
func (s *scan) record(f *ast.File, info *types.Info) {
	for _, d := range f.Decls {
		var self *types.Func
		if fd, ok := d.(*ast.FuncDecl); ok {
			self, _ = info.Defs[fd.Name].(*types.Func)
		}
		var stack []ast.Node
		ast.Inspect(d, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.Ident:
				if fn, ok := info.Uses[n].(*types.Func); ok && fn.Origin() != self {
					s.use(fn)
				}
			case *ast.CallExpr:
				s.boxCall(n, info)
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						s.boxExpr(info.TypeOf(n.Lhs[i]), n.Rhs[i], info)
					}
				}
			case *ast.ValueSpec:
				if n.Type != nil {
					for _, v := range n.Values {
						s.boxExpr(info.TypeOf(n.Type), v, info)
					}
				}
			case *ast.ReturnStmt:
				s.boxReturn(n, stack, info)
			case *ast.CompositeLit:
				s.boxLiteral(n, info)
			case *ast.SendStmt:
				if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
					s.boxExpr(ch.Elem(), n.Value, info)
				}
			}
			return true
		})
	}
}

// use marks fn used and, for an interface method, notes the call.
func (s *scan) use(fn *types.Func) {
	fn = fn.Origin()
	s.used[fn] = true
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		s.called[fn] = true
	}
}

// boxExpr notes e converted to target if target is an interface and
// e's type is not.
func (s *scan) boxExpr(target types.Type, e ast.Expr, info *types.Info) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	if from := info.TypeOf(e); from != nil && !types.IsInterface(from) {
		s.box(from, target)
	}
}

func (s *scan) box(from, target types.Type) {
	s.boxed[from] = append(s.boxed[from], target)
}

// boxCall notes the conversions a call or conversion expression makes.
func (s *scan) boxCall(call *ast.CallExpr, info *types.Info) {
	tv := info.Types[call.Fun]
	if tv.IsType() {
		if len(call.Args) == 1 {
			s.boxExpr(tv.Type, call.Args[0], info)
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if call.Ellipsis.IsValid() {
				s.boxExpr(last, arg, info)
			} else if sl, ok := last.Underlying().(*types.Slice); ok {
				s.boxExpr(sl.Elem(), arg, info)
			}
		case i < params.Len():
			s.boxExpr(params.At(i).Type(), arg, info)
		}
	}
}

// boxReturn notes the conversions a return statement makes to the
// results of the function around it.
func (s *scan) boxReturn(ret *ast.ReturnStmt, stack []ast.Node, info *types.Info) {
	var sig *types.Signature
	for i := len(stack) - 1; i >= 0 && sig == nil; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			sig, _ = info.TypeOf(fn).(*types.Signature)
		case *ast.FuncDecl:
			if obj := info.Defs[fn.Name]; obj != nil {
				sig, _ = obj.Type().(*types.Signature)
			}
		}
	}
	if sig == nil || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, r := range ret.Results {
		s.boxExpr(sig.Results().At(i).Type(), r, info)
	}
}

// boxLiteral notes the conversions a composite literal's elements make.
func (s *scan) boxLiteral(lit *ast.CompositeLit, info *types.Info) {
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	for i, elt := range lit.Elts {
		value := elt
		kv, keyed := elt.(*ast.KeyValueExpr)
		if keyed {
			value = kv.Value
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if keyed {
				if id, ok := kv.Key.(*ast.Ident); ok {
					for j := 0; j < u.NumFields(); j++ {
						if u.Field(j).Name() == id.Name {
							s.boxExpr(u.Field(j).Type(), value, info)
						}
					}
				}
			} else if i < u.NumFields() {
				s.boxExpr(u.Field(i).Type(), value, info)
			}
		case *types.Slice:
			s.boxExpr(u.Elem(), value, info)
		case *types.Array:
			s.boxExpr(u.Elem(), value, info)
		case *types.Map:
			if keyed {
				s.boxExpr(u.Key(), kv.Key, info)
			}
			s.boxExpr(u.Elem(), value, info)
		}
	}
}

// resolveInterfaces marks the methods that interface calls reach: for
// each type converted to an interface, the methods of that interface,
// and the methods of any called interface the type implements.
func (s *scan) resolveInterfaces() {
	for from, targets := range s.boxed {
		mark := func(m *types.Func) {
			obj, _, _ := types.LookupFieldOrMethod(from, true, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				s.used[fn.Origin()] = true
			}
		}
		for _, target := range targets {
			iface := target.Underlying().(*types.Interface)
			for i := 0; i < iface.NumMethods(); i++ {
				mark(iface.Method(i))
			}
		}
		ptr := types.NewPointer(from)
		for m := range s.called {
			iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(from, iface) || types.Implements(ptr, iface) {
				mark(m)
			}
		}
	}
}

// satisfies reports whether the method fn implements one of the
// interface methods in protocols.
func satisfies(fn *types.Func, protocols []*types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	for _, m := range protocols {
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if m.Name() == fn.Name() && (types.Implements(recv.Type(), iface) || types.Implements(types.NewPointer(recv.Type()), iface)) {
			return true
		}
	}
	return false
}

// funcName names fn by package path, receiver type and name, as the
// allowlist does: "repro/internal/stats.Mat.Add".
func funcName(fn *types.Func) string {
	name := fn.Pkg().Path() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name += n.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}
