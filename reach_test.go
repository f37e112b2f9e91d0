package disttrain

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestReachability holds the library packages under internal/ to what
// the programs use. The programs are the main packages under cmd/,
// examples/ and benchmark/; tests never count as users. Both modules'
// non-test sources are type-checked with go/types, and four passes run
// over them:
//
//   - funcs: every function and method is reached from a program's
//     main or a package initialiser;
//   - fields: every exported field of a config, options or policy
//     struct takes more than one value — some write, a caller's or one
//     of its package's presets, but not its defaulting, stores a
//     second constant or a computed value;
//   - args: no parameter receives the same constant at every call;
//   - exports: every exported package-level name is referenced outside
//     its package, or spelled in the signature of a name that is; each
//     library package reports its findings in a subtest of its name.
//
// What a pass finds is deleted, folded into a constant or unexported.
// A survivor is listed in its pass's allow-list with the reason it
// stays; an entry that no longer matches a finding, or names nothing
// declared, fails the pass.
func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	prog := loadProgram(t)
	t.Run("funcs", func(t *testing.T) { prog.checkFuncs(t) })
	t.Run("fields", func(t *testing.T) { prog.checkFields(t) })
	t.Run("args", func(t *testing.T) { prog.checkArgs(t) })
	t.Run("exports", func(t *testing.T) { prog.checkExports(t) })
}

// reachAllow names the functions no program calls that stay, each with
// the reason. They are roots of the funcs pass, so what they call stays
// too.
var reachAllow = map[string]string{
	"trainer.Runtime.RunSequential": "the lock-step trainer the concurrent runtime is compared against",
	"solve.MinimizeConvex1D":        "the golden section the subproblem kernel inlines, pinned to it bit for bit",
	"fleet.leaseTable.Check":        "the lease-partition invariant the fleet tests assert every round",
	"fleet.leaseTable.LeasedCount":  "the leased-node count the fleet tests assert",
	"data.seededSource.Int63":       "rand.Source's method: math/rand.Rand calls it through that interface for Float64 and NormFloat64",
}

// fieldAllow names the input fields the fields pass lets hold one
// value, each with the reason. An entry spells one field,
// pkg.Type.Field, or a whole catalogue type, pkg.Type, whose presets
// are the package's own values.
var fieldAllow = map[string]string{
	"cluster.GPUSpec":              "catalogue: the accelerator the Production preset is built from",
	"data.Spec":                    "catalogue: the LAION-400M corpus shape of Figure 5",
	"model.VAEConfig":              "catalogue: the frozen SD VAE of the model zoo",
	"model.DiffusionConfig":        "catalogue: the SD-2.1 generator of the model zoo",
	"orchestrator.Spec.Microbatch": "benchmark/ writes it (benchmark/README.md: orchestrator.Spec)",
	"orchestrator.Spec.MaxGPUs":    "benchmark/ writes it (benchmark/README.md: orchestrator.Spec)",
	"orchestrator.Spec.VPP":        "benchmark/ writes it (benchmark/README.md: orchestrator.Spec)",
}

// argAllow names the parameters the args pass lets every call fix, as
// pkg.Func.param or pkg.Type.Method.param, or every parameter of one
// function as pkg.Func, each with the reason.
var argAllow = map[string]string{
	"pipeline.Simulate.sch":    "benchmark/ calls it (benchmark/README.md: pipeline.Simulate, OneFOneB)",
	"reorder.InterReorder.p2p": "benchmark/ calls it (benchmark/README.md: reorder.InterReorder)",
	"reorder.IntraReorder.m":   "Algorithm 1's DP width: examples/reordering runs Figure 11's, the reorder tests 2 to 4",
	"stepccl.NewExecutor":      "examples/stepccl's Figure 21 instance; the stepccl tests run the executor at other shapes",
}

// exportAllow names the exported package-level names the exports pass
// lets live without a reference from outside their package, each with
// the reason.
var exportAllow = map[string]string{
	"solve.MinimizeConvex1D": "the golden section the orchestrator's subproblem tests pin the inlined kernel to",
}

// stdlibCalls are the method names the standard library calls through
// its own interfaces (fmt, errors, sort, container/heap, io,
// encoding/json, flag): a method of one of these names is reached the
// way an interface call is.
var stdlibCalls = []string{
	"String", "Error", "Unwrap", "Format", "GoString",
	"Len", "Less", "Swap", "Push", "Pop",
	"Read", "Write", "Close",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText", "Set",
}

// program is both modules' non-test sources, type-checked.
type program struct {
	*srcLoader
	order []*srcPkg // by import path
}

func loadProgram(t *testing.T) *program {
	fset := token.NewFileSet()
	ld := &srcLoader{fset: fset, std: importer.Default(), pkgs: map[string]*srcPkg{}}
	err := filepath.WalkDir(".", func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		p := &srcPkg{path: "disttrain"}
		if dir != "." {
			p.path += "/" + filepath.ToSlash(dir)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		if len(p.files) > 0 {
			ld.pkgs[p.path] = p
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	prog := &program{srcLoader: ld}
	for path, p := range ld.pkgs {
		if _, err := ld.Import(path); err != nil {
			t.Fatal(err)
		}
		prog.order = append(prog.order, p)
	}
	sort.Slice(prog.order, func(i, j int) bool { return prog.order[i].path < prog.order[j].path })
	return prog
}

// lib reports whether p is a library package, one under internal/.
func (p *srcPkg) lib() bool { return p.types.Name() != "main" }

// srcLoader type-checks this module's packages from source, importing
// each on first use; everything else comes from the standard library's
// export data.
type srcLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*srcPkg
}

type srcPkg struct {
	path  string
	files []*ast.File
	info  *types.Info
	types *types.Package
}

func (l *srcLoader) Import(path string) (*types.Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		return l.std.Import(path)
	}
	if p.types == nil {
		p.info = &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: l}
		var err error
		if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
			return nil, err
		}
	}
	return p.types, nil
}

// funcKey spells a function the way the allow-lists do: pkg.Func or
// pkg.Type.Method.
func funcKey(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		name = rt.(*types.Named).Obj().Name() + "." + name
	}
	return fn.Pkg().Name() + "." + name
}

// stale fails every allow-list entry a pass's findings did not use.
func stale(t *testing.T, list string, allow map[string]string, used map[string]bool) {
	var keys []string
	for k := range allow {
		if !used[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Errorf("%s lists %s, which the pass no longer finds (or which is not declared): drop the entry", list, k)
	}
}

// checkFuncs is the funcs pass. The call graph comes from every non-test
// function body reached from a root; a call through an interface
// reaches every method of that name.
func (prog *program) checkFuncs(t *testing.T) {
	type funcDecl struct {
		decl *ast.FuncDecl
		info *types.Info
		lib  bool
	}
	decls := map[*types.Func]funcDecl{}
	byName := map[string][]*types.Func{}
	var roots []func()
	reached := map[*types.Func]bool{}
	var queue []*types.Func
	reach := func(fn *types.Func) {
		if fn = fn.Origin(); !reached[fn] {
			reached[fn] = true
			queue = append(queue, fn)
		}
	}
	called := map[string]bool{} // method names called through an interface
	callName := func(name string) {
		if !called[name] {
			called[name] = true
			for _, m := range byName[name] {
				reach(m)
			}
		}
	}
	scan := func(n ast.Node, info *types.Info) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok {
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						callName(fn.Name())
					} else {
						reach(fn)
					}
				}
			}
			return true
		})
	}
	for _, p := range prog.order {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					decls[fn] = funcDecl{d, p.info, p.lib()}
					if d.Recv != nil {
						byName[fn.Name()] = append(byName[fn.Name()], fn)
					} else if d.Name.Name == "init" || (d.Name.Name == "main" && !p.lib()) {
						roots = append(roots, func() { reach(fn) })
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						roots = append(roots, func() { scan(d, p.info) })
					}
				}
			}
		}
	}
	drain := func() {
		for len(queue) > 0 {
			fn := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if fd, ok := decls[fn]; ok && fd.decl.Body != nil {
				scan(fd.decl.Body, fd.info)
			}
		}
	}
	for _, name := range stdlibCalls {
		callName(name)
	}
	for _, root := range roots {
		root()
	}
	drain()

	used := map[string]bool{}
	for fn := range decls {
		if k := funcKey(fn); reachAllow[k] != "" && !reached[fn] {
			used[k] = true
			reach(fn)
		}
	}
	stale(t, "reachAllow", reachAllow, used)
	drain()

	var dead []string
	for fn, fd := range decls {
		if fd.lib && !reached[fn] {
			dead = append(dead, fmt.Sprintf("%s: %s", prog.fset.Position(fd.decl.Pos()), funcKey(fn)))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is reached by no program under cmd/, examples/ or benchmark/: delete it, or list it in reachAllow with the test that needs it", d)
	}
}

// constKey spells the constant value e evaluates to exactly, or ""
// when e is not a constant.
func constKey(info *types.Info, e ast.Expr) string {
	tv := info.Types[e]
	switch {
	case tv.Value != nil:
		return tv.Value.ExactString()
	case tv.IsNil():
		return "nil"
	}
	return ""
}

// readable renders a constKey for a message: an exact fraction as the
// float64 it rounds to.
func readable(key string) string {
	if r, ok := new(big.Rat).SetString(key); ok && strings.Contains(key, "/") {
		f, _ := r.Float64()
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return key
}

// zeroKey spells the zero value of t the way constKey spells a
// constant of that type.
func zeroKey(t types.Type) string {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Info()&types.IsBoolean != 0:
			return constant.MakeBool(false).ExactString()
		case u.Info()&types.IsString != 0:
			return constant.MakeString("").ExactString()
		}
		return constant.MakeInt64(0).ExactString()
	case *types.Struct, *types.Array:
		return "the zero value"
	}
	return "nil"
}

// inputStructs returns the config, options and policy structs of the
// library packages: a struct named ...Config, ...Options or ...Spec; a
// policy, which implements an interface its own package declares; and
// a struct its package defaults, which a function of the package named
// Default... or New... returns built from a literal that stores a
// constant in an exported field.
func (prog *program) inputStructs() map[*types.TypeName]bool {
	in := map[*types.TypeName]bool{}
	for _, p := range prog.order {
		if !p.lib() {
			continue
		}
		scope := p.types.Scope()
		var ifaces []*types.Interface
		for _, name := range scope.Names() {
			if it, ok := scope.Lookup(name).Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			if _, ok := tn.Type().Underlying().(*types.Struct); !ok {
				continue
			}
			for _, s := range []string{"Config", "Options", "Spec"} {
				in[tn] = in[tn] || strings.HasSuffix(name, s)
			}
			for _, it := range ifaces {
				in[tn] = in[tn] || types.Implements(tn.Type(), it) || types.Implements(types.NewPointer(tn.Type()), it)
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !(strings.HasPrefix(fd.Name.Name, "Default") || strings.HasPrefix(fd.Name.Name, "New")) {
					continue
				}
				returns := map[*types.TypeName]bool{}
				res := p.info.Defs[fd.Name].Type().(*types.Signature).Results()
				for i := 0; i < res.Len(); i++ {
					rt := res.At(i).Type()
					if ptr, ok := rt.(*types.Pointer); ok {
						rt = ptr.Elem()
					}
					if named, ok := rt.(*types.Named); ok {
						returns[named.Obj()] = true
					}
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					lit, ok := n.(*ast.CompositeLit)
					if !ok {
						return true
					}
					named, ok := p.info.Types[lit].Type.(*types.Named)
					if !ok || !returns[named.Obj()] {
						return true
					}
					for _, el := range lit.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok && kv.Key.(*ast.Ident).IsExported() && constKey(p.info, kv.Value) != "" {
							in[named.Obj()] = true
						}
					}
					return true
				})
			}
		}
	}
	return in
}

// checkFields is the fields pass. A write is a literal element, an
// assignment, an increment or taking the field's address, and it
// stores a constant only when its value is one; a keyed literal that
// leaves a field out stores the field's zero value. Writes anywhere
// count — callers', and the package's own presets and constructors —
// except the package's defaulting: an assignment to the field inside
// an if that tests it (if c.F == 0 { c.F = d }). A field is flagged
// when every write stores one constant, or nothing writes it but its
// defaulting.
func (prog *program) checkFields(t *testing.T) {
	type field struct {
		key, typ string // pkg.Type.Field, pkg.Type
		pos      token.Pos
		consts   map[string]bool // the constants writes store
		varied   bool            // a write stores a non-constant
	}
	fields := map[*types.Var]*field{}
	var all []*field
	for tn, in := range prog.inputStructs() {
		if !in {
			continue
		}
		st := tn.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if v := st.Field(i); v.Exported() {
				typ := tn.Pkg().Name() + "." + tn.Name()
				f := &field{key: typ + "." + v.Name(), typ: typ, pos: v.Pos(), consts: map[string]bool{}}
				fields[v] = f
				all = append(all, f)
			}
		}
	}
	for _, p := range prog.order {
		info := p.info
		write := func(obj types.Object, val string) {
			f := fields[obj.(*types.Var)]
			switch {
			case f == nil:
			case val == "":
				f.varied = true
			default:
				f.consts[val] = true
			}
		}
		defaulting := map[ast.Expr]bool{}
		var lhs func(e ast.Expr, val string)
		lhs = func(e ast.Expr, val string) {
			switch e := e.(type) {
			case *ast.SelectorExpr:
				if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.IsField() && !defaulting[e] {
					write(v, val)
				}
			case *ast.IndexExpr:
				lhs(e.X, "")
			}
		}
		for _, file := range p.files {
			ast.Inspect(file, func(n ast.Node) bool {
				is, ok := n.(*ast.IfStmt)
				if !ok {
					return true
				}
				tested := map[types.Object]bool{}
				ast.Inspect(is.Cond, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() && v.Pkg() == p.types {
							tested[v] = true
						}
					}
					return true
				})
				ast.Inspect(is.Body, func(n ast.Node) bool {
					if as, ok := n.(*ast.AssignStmt); ok {
						for _, l := range as.Lhs {
							if sel, ok := l.(*ast.SelectorExpr); ok && tested[info.Uses[sel.Sel]] {
								defaulting[sel] = true
							}
						}
					}
					return true
				})
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					set := map[types.Object]bool{}
					for i, el := range n.Elts {
						v, val := types.Object(st.Field(i)), el
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							v, val = info.Uses[kv.Key.(*ast.Ident)], kv.Value
						}
						set[v] = true
						write(v, constKey(info, val))
					}
					// An empty literal is a zero value being returned or
					// reset, not a configuration.
					for i := 0; i < st.NumFields() && len(n.Elts) > 0; i++ {
						if v := st.Field(i); !set[v] {
							write(v, zeroKey(v.Type()))
						}
					}
				case *ast.AssignStmt:
					for i, l := range n.Lhs {
						val := ""
						if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
							val = constKey(info, n.Rhs[i])
						}
						lhs(l, val)
					}
				case *ast.IncDecStmt:
					lhs(n.X, "")
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						lhs(n.X, "")
					}
				}
				return true
			})
		}
	}
	used := map[string]bool{}
	var found []string
	for _, f := range all {
		if f.varied || len(f.consts) > 1 {
			continue
		}
		if fieldAllow[f.key] != "" {
			used[f.key] = true
			continue
		}
		if fieldAllow[f.typ] != "" {
			used[f.typ] = true
			continue
		}
		why := "nothing but its package's defaulting writes it"
		for c := range f.consts {
			why = "every write stores " + readable(c)
		}
		found = append(found, fmt.Sprintf("%s: %s: %s", prog.fset.Position(f.pos), f.key, why))
	}
	stale(t, "fieldAllow", fieldAllow, used)
	sort.Strings(found)
	for _, s := range found {
		t.Errorf("%s — make it a constant or delete it, or list it in fieldAllow with the reason", s)
	}
}

// checkArgs is the args pass. It reads every static call of a library
// function or method; a call through an interface calls every method
// of that name. A function used as a value, or a method the standard
// library calls (stdlibCalls), has callers the pass cannot see and is
// skipped, as is a variadic parameter.
func (prog *program) checkArgs(t *testing.T) {
	type param struct {
		consts map[string]bool
		varied bool
	}
	type callee struct {
		params  []param
		calls   int
		escaped bool
		pos     token.Pos
	}
	funcs := map[*types.Func]*callee{}
	byName := map[string][]*types.Func{}
	for _, p := range prog.order {
		if !p.lib() {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if d, ok := d.(*ast.FuncDecl); ok {
					fn := p.info.Defs[d.Name].(*types.Func)
					sig := fn.Type().(*types.Signature)
					c := &callee{params: make([]param, sig.Params().Len()), pos: d.Pos()}
					for i := range c.params {
						c.params[i].consts = map[string]bool{}
					}
					funcs[fn] = c
					if d.Recv != nil {
						byName[fn.Name()] = append(byName[fn.Name()], fn)
					}
				}
			}
		}
	}
	for _, name := range stdlibCalls {
		for _, fn := range byName[name] {
			funcs[fn].escaped = true
		}
	}
	for _, p := range prog.order {
		info := p.info
		callees := map[*ast.Ident]bool{}
		for _, file := range p.files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fun := ast.Unparen(call.Fun)
				if ix, ok := fun.(*ast.IndexExpr); ok {
					fun = ix.X
				} else if ix, ok := fun.(*ast.IndexListExpr); ok {
					fun = ix.X
				}
				var id *ast.Ident
				switch fun := fun.(type) {
				case *ast.Ident:
					id = fun
				case *ast.SelectorExpr:
					id = fun.Sel
				default:
					return true
				}
				fn, ok := info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				callees[id] = true
				targets := []*types.Func{fn.Origin()}
				sig := fn.Type().(*types.Signature)
				if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
					targets = byName[fn.Name()]
				}
				for _, target := range targets {
					c := funcs[target]
					if c == nil {
						continue
					}
					c.calls++
					// f(g()) spreads one call's results over the parameters.
					spread := len(call.Args) != len(c.params)
					for i := range c.params {
						k := ""
						if !spread && !(sig.Variadic() && i == len(c.params)-1) {
							k = constKey(info, call.Args[i])
						}
						if k == "" {
							c.params[i].varied = true
						} else {
							c.params[i].consts[k] = true
						}
					}
				}
				return true
			})
		}
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok && !callees[id] {
				if c := funcs[fn.Origin()]; c != nil {
					c.escaped = true
				}
			}
		}
	}
	used := map[string]bool{}
	var found []string
	for fn, c := range funcs {
		if c.escaped || c.calls == 0 {
			continue
		}
		sig := fn.Type().(*types.Signature)
		for i, pr := range c.params {
			if pr.varied || len(pr.consts) != 1 {
				continue
			}
			key := funcKey(fn) + "." + sig.Params().At(i).Name()
			if argAllow[key] != "" {
				used[key] = true
				continue
			}
			if argAllow[funcKey(fn)] != "" {
				used[funcKey(fn)] = true
				continue
			}
			for k := range pr.consts {
				found = append(found, fmt.Sprintf("%s: %s: every one of %d calls passes %s", prog.fset.Position(c.pos), key, c.calls, readable(k)))
			}
		}
	}
	stale(t, "argAllow", argAllow, used)
	sort.Strings(found)
	for _, s := range found {
		t.Errorf("%s — fold it into the function, or list it in argAllow with the reason", s)
	}
}

// checkExports is the exports pass. A declaration's signature is what
// it spells outside any function body: a func's parameter and result
// types, a var's or const's declared type, a struct's exported field
// types, an interface's methods and every exported method's signature,
// an alias's target.
func (prog *program) checkExports(t *testing.T) {
	sigs := map[types.Object][]ast.Node{}
	var decls []types.Object
	for _, p := range prog.order {
		if !p.lib() {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						obj := p.info.Defs[d.Name]
						sigs[obj] = append(sigs[obj], d.Type)
						decls = append(decls, obj)
					} else if d.Name.IsExported() {
						recv := p.info.Defs[d.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
						if ptr, ok := recv.(*types.Pointer); ok {
							recv = ptr.Elem()
						}
						obj := recv.(*types.Named).Obj()
						sigs[obj] = append(sigs[obj], d.Type)
					}
				case *ast.GenDecl:
					for _, sp := range d.Specs {
						switch sp := sp.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[sp.Name]
							decls = append(decls, obj)
							if st, ok := sp.Type.(*ast.StructType); ok {
								for _, fd := range st.Fields.List {
									if len(fd.Names) == 0 || fd.Names[0].IsExported() {
										sigs[obj] = append(sigs[obj], fd.Type)
									}
								}
							} else {
								sigs[obj] = append(sigs[obj], sp.Type)
							}
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								obj := p.info.Defs[n]
								decls = append(decls, obj)
								if sp.Type != nil {
									sigs[obj] = append(sigs[obj], sp.Type)
								}
							}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	var queue []types.Object
	use := func(obj types.Object) {
		if obj != nil && !used[obj] {
			used[obj] = true
			queue = append(queue, obj)
		}
	}
	for _, p := range prog.order {
		for _, obj := range p.info.Uses {
			if obj.Pkg() != nil && obj.Pkg() != p.types && obj.Parent() == obj.Pkg().Scope() {
				use(obj)
			}
		}
	}
	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		p := prog.pkgs[obj.Pkg().Path()]
		if p == nil {
			continue
		}
		info := p.info
		for _, n := range sigs[obj] {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if o := info.Uses[id]; o != nil && o.Pkg() != nil && o.Parent() == o.Pkg().Scope() {
						use(o)
					}
				}
				return true
			})
		}
	}
	allowed := map[string]bool{}
	found := map[string][]string{} // by package name
	for _, obj := range decls {
		if !obj.Exported() || used[obj] {
			continue
		}
		key := obj.Pkg().Name() + "." + obj.Name()
		if exportAllow[key] != "" {
			allowed[key] = true
			continue
		}
		found[obj.Pkg().Name()] = append(found[obj.Pkg().Name()], fmt.Sprintf("%s: %s", prog.fset.Position(obj.Pos()), key))
	}
	stale(t, "exportAllow", exportAllow, allowed)
	// One subtest a library package, so a finding names its package in
	// the test that fails.
	for _, p := range prog.order {
		if !p.lib() {
			continue
		}
		t.Run(p.types.Name(), func(t *testing.T) {
			sort.Strings(found[p.types.Name()])
			for _, s := range found[p.types.Name()] {
				t.Errorf("%s is referenced by nothing outside its package and spelled in no referenced signature: unexport or delete it, or list it in exportAllow with the reason", s)
			}
		})
	}
}
