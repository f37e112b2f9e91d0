package disttrain

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	spec, corpus, err := NewSpec(MLLM9B(), 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalGPUs() > 32 {
		t.Fatalf("plan exceeds fleet: %d GPUs", plan.TotalGPUs())
	}
	res, err := Train(NewTrainConfig(spec, plan, corpus), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.MFU <= 0 || res.TokensPerSec <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

func TestFacadeBaselines(t *testing.T) {
	spec, corpus, err := NewSpec(MLLM9B(), 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := PlanMegatron(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(NewMegatronTrainConfig(spec, mg, corpus), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := PlanDistMM(spec); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeFrozen(t *testing.T) {
	spec, corpus, err := NewSpecFrozen(MLLM9B(), 4, 32, LLMOnly)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(NewTrainConfig(spec, plan, corpus), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MFU <= 0 {
		t.Fatal("frozen run produced no MFU")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 10 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	if _, err := Experiment("nope", true); err == nil {
		t.Error("unknown experiment accepted")
	}
	tb, err := Experiment("table2", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Errorf("table2 rows = %d", len(tb.Rows))
	}
	if out := tb.Render(); len(out) == 0 {
		t.Error("empty render")
	}
}

func TestFacadeFleet(t *testing.T) {
	spec, corpus, err := NewSpec(MLLM9B(), 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"fifo": "fifo", "fair-share": "fair-share", "fair": "fair-share", "priority": "priority",
	} {
		if got, err := ParseFleetPolicy(name); err != nil || got.Name() != want {
			t.Errorf("ParseFleetPolicy(%q) = %v, %v, want %s", name, got, err, want)
		}
	}
	// The unknown-name error lists the registered schedulers.
	if _, err := ParseFleetPolicy("nope"); err == nil || !strings.Contains(err.Error(), "fifo") {
		t.Errorf("ParseFleetPolicy(nope) error %v should list registered names", err)
	}
	pol, err := ParseFleetPolicy("fair-share")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewPlanCache(SearchOptions{})
	tmpl := NewTrainConfig(spec, nil, corpus)
	res, err := RunFleet(FleetConfig{
		Cluster: spec.Cluster,
		Jobs: []FleetJobSpec{
			{Name: "x", Train: tmpl, Iters: 2, MinNodes: 2, MaxNodes: 2},
			{Name: "y", Train: tmpl, Iters: 2, MinNodes: 2, MaxNodes: 2},
		},
		Policy: pol,
		Cache:  cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanSearches != 1 || res.PlanCoalesced != 1 {
		t.Errorf("shared cache: %d searches, %d coalesced", res.PlanSearches, res.PlanCoalesced)
	}
	for _, jr := range res.Jobs {
		if jr.Err != nil {
			t.Fatalf("job %s: %v", jr.Name, jr.Err)
		}
		if jr.Result.MFU <= 0 {
			t.Errorf("job %s: implausible MFU", jr.Name)
		}
	}
	// The shared cache is warm for the next fleet with the same spec.
	if cache.Len() != 1 {
		t.Errorf("cache holds %d fingerprints", cache.Len())
	}
}

// TestFacadeNamesHaveCallers keeps the facade caller-backed: every
// exported top-level name of disttrain.go must be referenced as
// disttrain.<Name> somewhere under cmd/ or examples/, or be spelled in
// the signature of a name that is. Tests do not count as callers —
// they reach anything else through internal/ directly.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "disttrain.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// signature[name] lists the identifiers name's declaration spells
	// outside any function body: a func's parameter and result types, a
	// var's declared type.
	signature := map[string][]string{}
	spelled := func(n ast.Node) (out []string) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				out = append(out, id.Name)
			}
			return true
		})
		return out
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				signature[d.Name.Name] = spelled(d.Type)
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						signature[sp.Name.Name] = nil
					}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						if n.IsExported() {
							// The type only: a bare `var X = pkg.Y`
							// spells nothing.
							var typ []string
							if sp.Type != nil {
								typ = spelled(sp.Type)
							}
							signature[n.Name] = typ
						}
					}
				}
			}
		}
	}

	var src bytes.Buffer
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			b, err := os.ReadFile(path)
			src.Write(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	called := map[string]bool{}
	for _, m := range regexp.MustCompile(`\bdisttrain\.([A-Z]\w*)`).FindAllSubmatch(src.Bytes(), -1) {
		called[string(m[1])] = true
	}
	backed := map[string]bool{}
	for name := range signature {
		if called[name] {
			backed[name] = true
			for _, id := range signature[name] {
				backed[id] = true
			}
		}
	}
	for name := range signature {
		if !backed[name] {
			t.Errorf("facade exports %s, which nothing under cmd/ or examples/ references and no referenced name's signature spells", name)
		}
	}
}

// reachAllow names the functions TestInternalFuncsReachable lets live
// without a program calling them, each with the reason. They are
// roots of the second pass, so what they call stays too.
var reachAllow = map[string]string{
	"orchestrator.PlanDistTrainSequential": "the one-worker search every parallel search is compared against",
	"trainer.Runtime.RunSequential":        "the lock-step trainer the concurrent runtime is compared against",
	"solve.MinimizeConvex1D":               "the golden section the subproblem kernel inlines, pinned to it bit for bit",
	"orchestrator.Evaluate":                "the brute-force oracle the pruned search is compared against",
	"fleet.LeaseTable.Check":               "the lease-partition invariant the fleet tests assert every round",
	"fleet.LeaseTable.LeasedCount":         "the leased-node count the fleet tests assert",
	"store.Disk.CorruptSkips":              "counts corrupt entries served as misses; the store's fault tests read it",
	"store.WithCorruptHandler":             "the test seam the store's fault tests observe corruption through",
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

// TestInternalFuncsReachable holds the library packages to the rule the
// facade follows: every non-test function and method of a non-main
// package in this module is reachable from a program — the main
// packages under cmd/, examples/ and benchmark/ — or from a
// package-level initialiser. The call graph comes from go/types over
// both modules' non-test sources; a call through an interface reaches
// every method of that name. What only tests call is deleted, or named
// in reachAllow with the reason it stays.
func TestInternalFuncsReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
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

	type funcDecl struct {
		decl *ast.FuncDecl
		info *types.Info
		lib  bool // declared in a non-main package
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
	for path, p := range ld.pkgs {
		if _, err := ld.Import(path); err != nil {
			t.Fatal(err)
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					decls[fn] = funcDecl{d, p.info, p.types.Name() != "main"}
					if d.Recv != nil {
						byName[fn.Name()] = append(byName[fn.Name()], fn)
					} else if d.Name.Name == "init" || (d.Name.Name == "main" && p.types.Name() == "main") {
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

	// key spells a function the way reachAllow does: pkg.Func or
	// pkg.Type.Method.
	key := func(fn *types.Func) string {
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
	allowed := map[string]bool{}
	for fn := range decls {
		k := key(fn)
		if _, ok := reachAllow[k]; ok {
			allowed[k] = true
			if reached[fn] {
				t.Errorf("reachAllow lists %s, which a program reaches: drop the entry", k)
			}
			reach(fn)
		}
	}
	for k := range reachAllow {
		if !allowed[k] {
			t.Errorf("reachAllow lists %s, which is not declared", k)
		}
	}
	drain()

	var dead []string
	for fn, fd := range decls {
		if fd.lib && !reached[fn] {
			dead = append(dead, fmt.Sprintf("%s: %s", fset.Position(fd.decl.Pos()), key(fn)))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is reached by no program under cmd/, examples/ or benchmark/: delete it, or list it in reachAllow with the test that needs it", d)
	}
}

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
		p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: l}
		var err error
		if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
			return nil, err
		}
	}
	return p.types, nil
}

// TestPreprocessNamesHaveCallers holds internal/preprocess to the same
// rule as the facade: every exported top-level func, type and var of
// the package is referenced as preprocess.<Name> from non-test Go
// outside it — this module or benchmark/ — or spelled in the signature
// of a func that is. A name only the package and its tests use is
// unexported or deleted, not kept for a caller that does not exist.
func TestPreprocessNamesHaveCallers(t *testing.T) {
	const pkgDir = "internal/preprocess"
	files, err := filepath.Glob(pkgDir + "/*.go")
	if err != nil {
		t.Fatal(err)
	}
	signature := map[string][]string{} // exported name -> identifiers its func signature spells
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					var ids []string
					ast.Inspect(d.Type, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							ids = append(ids, id.Name)
						}
						return true
					})
					signature[d.Name.Name] = ids
				}
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							signature[sp.Name.Name] = nil
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() && d.Tok == token.VAR {
								signature[n.Name] = nil
							}
						}
					}
				}
			}
		}
	}
	if len(signature) == 0 {
		t.Fatal("found no exported names: the guard is looking in the wrong place")
	}

	var src bytes.Buffer
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == pkgDir || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		src.Write(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	backed := map[string]bool{}
	for _, m := range regexp.MustCompile(`\bpreprocess\.([A-Z]\w*)`).FindAllSubmatch(src.Bytes(), -1) {
		name := string(m[1])
		backed[name] = true
		for _, id := range signature[name] {
			backed[id] = true
		}
	}
	for name := range signature {
		if !backed[name] {
			t.Errorf("%s exports %s, which no non-test Go outside the package references and no referenced func's signature spells", pkgDir, name)
		}
	}
}

// TestCLIRejectsBadArguments runs the real binaries on the argument
// holes that used to panic, print a table of zeros, or silently
// regenerate every experiment: each must exit 1 with one line on
// stderr.
func TestCLIRejectsBadArguments(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three binaries")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"disttrain-fleet", "disttrain-data", "disttrain-bench"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", cmd, err, out)
		}
	}
	for _, tc := range []struct {
		cmd  string
		args []string
		want string
	}{
		{"disttrain-fleet", []string{"-jobs", "-1"}, "disttrain-fleet: -jobs must be at least 1\n"},
		{"disttrain-data", []string{"-samples", "0"}, "disttrain-data: -samples must be at least 1\n"},
		{"disttrain-data", []string{"-samples", "-1"}, "disttrain-data: -samples must be at least 1\n"},
		{"disttrain-bench", []string{"fig13"}, "disttrain-bench: unexpected argument \"fig13\" (select an experiment with -experiment)\n"},
	} {
		t.Run(tc.cmd+" "+strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			c := exec.Command(filepath.Join(bin, tc.cmd), tc.args...)
			c.Stdout, c.Stderr = &stdout, &stderr
			err := c.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 1 {
				t.Errorf("exit = %v, want status 1", err)
			}
			if stderr.String() != tc.want {
				t.Errorf("stderr = %q, want %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty: %q", stdout.String())
			}
		})
	}
}
