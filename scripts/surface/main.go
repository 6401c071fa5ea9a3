// Command surface checks the exported surface of the packages under
// internal/. Every exported package-level name, every exported method,
// and every exported field of an exported struct, declared in a
// non-test file there, must be referenced from a non-test file of
// another package in the module, or be exempt, or be listed with a
// reason in scripts/surface.allow.
//
// Exempt are:
//   - every name of a test-support package: one named *test that no
//     non-test file imports (scripts/loc.sh counts its lines as test
//     lines);
//   - a method an interface names: an interface type of the module's
//     non-test code, fmt.Stringer, error, json.Marshaler or
//     json.Unmarshaler;
//   - a field with a json tag, whose name is the wire format's;
//   - a type named in the signature of a name that stays exported: a
//     kept function's parameters and results, a kept variable's or
//     field's type, a kept type's underlying type when that is not a
//     struct (a struct's fields are judged one by one).
//
// It also rejects a package-level variable of function type in the
// non-test code under internal/: such a variable is a process-wide hook
// that a test reassigns, which no two tests can do at once. A seam is
// an argument, a field or an interface instead. Exempt is a variable
// initialized by sync.OnceFunc, OnceValue or OnceValues: a memo of one
// computation, which nothing has a reason to point elsewhere.
//
// On failure it prints each offending name with its file and line, and
// each allowlist entry that names nothing or nothing it needs to, and
// exits 1. Run it from the module root: go run ./scripts/surface
package main

import (
	"bufio"
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

const allowFile = "scripts/surface.allow"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "surface:", err)
		os.Exit(1)
	}
}

// unit is one package's non-test files, type-checked.
type unit struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loader type-checks the module's packages from source, each once, so
// that every package sees the same objects for what it imports.
type loader struct {
	fset   *token.FileSet
	module string
	std    types.Importer
	units  map[string]*unit
	order  []*unit
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	u, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return u.pkg, nil
}

func (l *loader) load(path string) (*unit, error) {
	if u, ok := l.units[path]; ok {
		if u.pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return u, nil
	}
	u := &unit{path: path}
	l.units[path] = u
	dir := "." + strings.TrimPrefix(path, l.module)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		u.files = append(u.files, f)
	}
	u.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, u.files, u.info)
	if err != nil {
		return nil, err
	}
	u.pkg = pkg
	l.order = append(l.order, u)
	return u, nil
}

// subject is one name the rule applies to.
type subject struct {
	key   string          // package.Name, or package.Type.Member
	pos   token.Position  // where it is declared
	owner *types.TypeName // the declaring type of a method or field
	tag   string          // a field's struct tag
	kept  string          // why it stays exported; "" while it need not
}

func run() error {
	module, err := modulePath()
	if err != nil {
		return err
	}
	fset := token.NewFileSet()
	l := &loader{fset: fset, module: module, std: importer.ForCompiler(fset, "source", nil), units: map[string]*unit{}}
	var dirs []string
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dirs = append(dirs, filepath.Dir(p))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, d := range dirs {
		path := module
		if d != "." {
			path += "/" + filepath.ToSlash(d)
		}
		if _, err := l.load(path); err != nil {
			return err
		}
	}

	subjects := map[types.Object]*subject{}
	byKey := map[string]*subject{}
	add := func(obj types.Object, key string, owner *types.TypeName, tag string) {
		s := &subject{key: key, pos: fset.Position(obj.Pos()), owner: owner, tag: tag}
		subjects[obj] = s
		byKey[key] = s
	}
	imported := map[*types.Package]bool{} // by a non-test file
	for _, u := range l.order {
		for _, p := range u.pkg.Imports() {
			imported[p] = true
		}
	}
	var named []*types.Named // every named type of the module's non-test code
	for _, u := range l.order {
		testSupport := strings.HasSuffix(u.pkg.Name(), "test") && !imported[u.pkg]
		internal := strings.HasPrefix(u.path, module+"/internal/") && !testSupport
		rel := strings.TrimPrefix(u.path, module+"/internal/")
		scope := u.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if internal && obj.Exported() {
				add(obj, rel+"."+name, nil, "")
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			named = append(named, n)
			if !internal {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); m.Exported() {
					add(m, rel+"."+name+"."+m.Name(), tn, "")
				}
			}
			if st, ok := n.Underlying().(*types.Struct); ok && tn.Exported() {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						add(f, rel+"."+name+"."+f.Name(), tn, st.Tag(i))
					}
				}
			}
		}
	}

	var hooks []string
	for _, u := range l.order {
		if !strings.HasPrefix(u.path, module+"/internal/") {
			continue
		}
		for _, f := range u.files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					for _, spec := range gd.Specs {
						hooks = append(hooks, funcVars(u, spec.(*ast.ValueSpec), fset, module)...)
					}
				}
			}
		}
	}

	allow, err := readAllow()
	if err != nil {
		return err
	}
	problems := hooks
	for _, a := range allow {
		if s := byKey[a.key]; s == nil {
			problems = append(problems, fmt.Sprintf("%s:%d: %s: allowlisted, but no such exported name", allowFile, a.line, a.key))
		} else {
			s.kept = "allow"
		}
	}

	keep := func(obj types.Object, why string) {
		if o, ok := obj.(*types.Func); ok {
			obj = o.Origin()
		} else if o, ok := obj.(*types.Var); ok {
			obj = o.Origin()
		}
		if s := subjects[obj]; s != nil && (s.kept == "" || s.kept == "allow") {
			s.kept = why
		}
	}

	// References from another package's non-test files.
	for _, u := range l.order {
		foreign := func(obj types.Object) bool { return obj != nil && obj.Pkg() != nil && obj.Pkg() != u.pkg }
		for _, obj := range u.info.Uses {
			if foreign(obj) {
				keep(obj, "use")
			}
		}
		for _, sel := range u.info.Selections {
			// The embedded fields a promoted selection passes through.
			t := sel.Recv()
			idx := sel.Index()
			for _, i := range idx[:len(idx)-1] {
				st, ok := deref(t).Underlying().(*types.Struct)
				if !ok {
					break
				}
				f := st.Field(i)
				if foreign(f) {
					keep(f, "use")
				}
				t = f.Type()
			}
		}
		for _, f := range u.files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || len(lit.Elts) == 0 {
					return true
				}
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
					return true
				}
				if st, ok := u.info.Types[lit].Type.Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						if foreign(st.Field(i)) {
							keep(st.Field(i), "use")
						}
					}
				}
				return true
			})
		}
	}

	// Methods an interface names, including a method promoted into the
	// type that implements it.
	ifaces := map[*types.Interface]bool{}
	for _, u := range l.order {
		for _, tv := range u.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
				ifaces[it] = true
			}
		}
	}
	for _, std := range []struct{ pkg, name string }{{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"}} {
		p, err := l.std.Import(std.pkg)
		if err != nil {
			return err
		}
		ifaces[p.Scope().Lookup(std.name).Type().Underlying().(*types.Interface)] = true
	}
	ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	for it := range ifaces {
		if it.NumMethods() == 0 {
			continue
		}
		for _, n := range named {
			if n.TypeParams().Len() > 0 {
				continue
			}
			var t types.Type = n
			if !types.Implements(t, it) {
				if t = types.NewPointer(n); !types.Implements(t, it) {
					continue
				}
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name()); obj != nil {
					keep(obj, "interface")
				}
			}
		}
	}

	for _, s := range subjects {
		if (s.kept == "" || s.kept == "allow") && strings.Contains(s.tag, `json:"`) {
			s.kept = "json"
		}
	}

	// A type named in the signature of a name that stays exported stays
	// exported too. Walk the kept names whose owner (if any) is itself
	// exported and kept, to a fixpoint.
	seen := map[types.Object]bool{}
	hidden := map[types.Object]bool{} // unexported types a kept signature names
	var walk func(t types.Type, visited map[types.Type]bool)
	walk = func(t types.Type, visited map[types.Type]bool) {
		if t == nil || visited[t] {
			return
		}
		visited[t] = true
		switch t := t.(type) {
		case *types.Named:
			if o := t.Obj(); o.Pkg() != nil && strings.HasPrefix(o.Pkg().Path(), module+"/internal/") && !o.Exported() {
				hidden[o] = true
			}
			keep(t.Obj(), "signature")
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i), visited)
			}
		case *types.Pointer:
			walk(t.Elem(), visited)
		case *types.Slice:
			walk(t.Elem(), visited)
		case *types.Array:
			walk(t.Elem(), visited)
		case *types.Map:
			walk(t.Key(), visited)
			walk(t.Elem(), visited)
		case *types.Chan:
			walk(t.Elem(), visited)
		case *types.Signature:
			walk(t.Params(), visited)
			walk(t.Results(), visited)
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type(), visited)
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type(), visited)
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type(), visited)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for obj, s := range subjects {
			if s.kept == "" || seen[obj] {
				continue
			}
			if s.owner != nil {
				if o := subjects[s.owner]; o == nil || o.kept == "" {
					continue
				}
			}
			seen[obj] = true
			changed = true
			visited := map[types.Type]bool{}
			if _, ok := obj.(*types.TypeName); !ok {
				walk(obj.Type(), visited)
			} else if _, isStruct := obj.Type().Underlying().(*types.Struct); !isStruct {
				walk(obj.Type().Underlying(), visited)
			}
		}
	}

	type finding struct {
		pos token.Position
		msg string
	}
	var found []finding
	for _, s := range subjects {
		if s.kept == "" {
			found = append(found, finding{s.pos, s.key + ": exported, but no other package's non-test code uses it"})
		}
	}
	for o := range hidden {
		rel := strings.TrimPrefix(o.Pkg().Path(), module+"/internal/")
		found = append(found, finding{fset.Position(o.Pos()), rel + "." + o.Name() + ": unexported, but the signature of an exported name names it"})
	}
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i].pos, found[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, f := range found {
		problems = append(problems, fmt.Sprintf("%s:%d: %s", f.pos.Filename, f.pos.Line, f.msg))
	}
	for _, a := range allow {
		if s := byKey[a.key]; s != nil && s.kept != "allow" {
			problems = append(problems, fmt.Sprintf("%s:%d: %s: allowlisted, but kept by %s", allowFile, a.line, a.key, s.kept))
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		return fmt.Errorf("%d problems: unexport or delete an unused name, or allowlist it in %s with a reason; no allowlist line excuses a hook", len(problems), allowFile)
	}
	return nil
}

// funcVars reports each variable spec declares whose type is a function
// and whose value is not a sync.OnceFunc, OnceValue or OnceValues memo.
func funcVars(u *unit, spec *ast.ValueSpec, fset *token.FileSet, module string) []string {
	var out []string
	for i, id := range spec.Names {
		v, ok := u.pkg.Scope().Lookup(id.Name).(*types.Var)
		if !ok {
			continue
		}
		if _, fn := v.Type().Underlying().(*types.Signature); !fn {
			continue
		}
		if i < len(spec.Values) {
			if call, ok := spec.Values[i].(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if o := u.info.Uses[sel.Sel]; o != nil && o.Pkg() != nil && o.Pkg().Path() == "sync" && strings.HasPrefix(o.Name(), "Once") {
						continue
					}
				}
			}
		}
		out = append(out, fmt.Sprintf("%s: %s.%s: a package-level variable of function type, a process-wide hook: pass the function as an argument or a field",
			fset.Position(v.Pos()), strings.TrimPrefix(u.path, module+"/internal/"), id.Name))
	}
	return out
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func modulePath() (string, error) {
	blob, err := os.ReadFile("go.mod")
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("go.mod names no module")
}

type allowEntry struct {
	key  string
	line int
}

// readAllow reads scripts/surface.allow: one "key reason" line per
// name, '#' comments and blank lines ignored; a reason is required.
func readAllow() ([]allowEntry, error) {
	f, err := os.Open(allowFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []allowEntry
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", allowFile, n, key)
		}
		out = append(out, allowEntry{key: key, line: n})
	}
	return out, sc.Err()
}
