package lint

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// unsetByPrograms lists the settable values no program sets and that stay
// anyway, each with the test or benchmark that needs it: the seam it is there
// for (DESIGN.md §8.6). Like //h2lint:ignore, an entry without its reason is
// not accepted, and neither is one whose reason has since been deleted.
var unsetByPrograms = map[string]string{
	"internal/obs.FlightRecorderConfig.Clock":   "TestFlightRecorderRateLimitAndCap",
	"internal/scan.Options.Backoff":             "TestRetryScheduleDeterministic",
	"internal/scan.Options.Clock":               "TestRetryScheduleDeterministic",
	"internal/server.DetectorConfig.Thresholds": "TestDetectorFlagsEveryScenario",
	"internal/server.Server.DisableFingerprint": "BenchmarkFingerprintOverhead",
}

// TestSurfaceFollowsUse holds the option surface to its use: every exported
// field of an ...Options, ...Config, Server or Framer type is written, and
// every exported SetX method called, in non-test code. A writer is an
// assignment outside the declaring package or a composite literal anywhere
// (DefaultOptions, DefaultConfig pass programs' values on that way); an
// assignment inside the declaring package is a defaulting branch and is not.
func TestSurfaceFollowsUse(t *testing.T) {
	l, pkgs := repoPackages(t)
	used := make(map[types.Object]bool)
	for _, p := range pkgs {
		// mark notes the field or method e names as written or called here.
		mark := func(e ast.Expr, anywhere bool) {
			id, _ := e.(*ast.Ident)
			if sel, ok := e.(*ast.SelectorExpr); ok {
				id = sel.Sel
			}
			if id == nil {
				return
			}
			obj := p.Info.Uses[id]
			if v, ok := obj.(*types.Var); ok && v.IsField() && (anywhere || v.Pkg() != p.Types) {
				used[v.Origin()] = true
			}
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != p.Types {
				used[fn.Origin()] = true
			}
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					mark(n.Key, true)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						mark(lhs, false)
					}
				case *ast.CallExpr:
					mark(n.Fun, false)
				}
				return true
			})
		}
	}
	optionType := regexp.MustCompile(`(Options|Config)$|^(Server|Framer)$`)
	setter := regexp.MustCompile(`^Set[A-Z]`)
	unset := make(map[string]bool)
	for _, p := range pkgs {
		rel := strings.TrimPrefix(p.Path, l.ModulePath+"/")
		if strings.HasPrefix(rel, "bench/") {
			continue // the benchmark's packages are not this rule's to edit
		}
		for _, name := range p.Types.Scope().Names() {
			tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok && optionType.MatchString(name) {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !used[f] {
						unset[rel+"."+name+"."+f.Name()] = true
					}
				}
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				// SetDeadline and its kin are net.Conn's, called through it.
				if m := named.Method(i); setter.MatchString(m.Name()) && !strings.HasSuffix(m.Name(), "Deadline") && !used[m] {
					unset[rel+"."+name+"."+m.Name()] = true
				}
			}
		}
	}

	tests := make(map[string]bool)
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
	_ = filepath.WalkDir(l.ModuleRoot, func(path string, _ os.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, "_test.go") {
			src, _ := os.ReadFile(path)
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				tests[string(m[1])] = true
			}
		}
		return nil
	})
	for name := range unset {
		if unsetByPrograms[name] == "" {
			t.Errorf("%s: no program sets or calls it; make it a constant, or list it in unsetByPrograms with the test that needs it", name)
		}
	}
	for name, why := range unsetByPrograms {
		if !unset[name] || !tests[why] {
			t.Errorf("unsetByPrograms[%q] is stale: a program sets it now, it is gone, or no _test.go file declares %s", name, why)
		}
	}
}

// TestRootDeclaresWhatItExports holds the root package to the paper's
// experiments (DESIGN.md §8.8): an exported name there is declared there. A
// type alias, a constant or variable whose value is another package's, or a
// function whose whole body is one call into another package is a second
// name for something a program can import under its first.
func TestRootDeclaresWhatItExports(t *testing.T) {
	l, pkgs := repoPackages(t)
	for _, p := range pkgs {
		if p.Path != l.ModulePath {
			continue
		}
		// foreign reports whether e is pkg.Name or a call chain rooted at one.
		var foreign func(e ast.Expr) bool
		foreign = func(e ast.Expr) bool {
			switch e := e.(type) {
			case *ast.CallExpr:
				return foreign(e.Fun)
			case *ast.SelectorExpr:
				if id, ok := e.X.(*ast.Ident); ok {
					_, isPkg := p.Info.Uses[id].(*types.PkgName)
					return isPkg
				}
				return foreign(e.X)
			}
			return false
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok {
					if !fn.Name.IsExported() || fn.Recv != nil || len(fn.Body.List) != 1 {
						continue
					}
					var e ast.Expr
					switch s := fn.Body.List[0].(type) {
					case *ast.ReturnStmt:
						if len(s.Results) == 1 {
							e = s.Results[0]
						}
					case *ast.ExprStmt:
						e = s.X
					}
					if _, isCall := e.(*ast.CallExpr); isCall && foreign(e) {
						t.Errorf("func %s only forwards to another package; call that one", fn.Name)
					}
					continue
				}
				for _, spec := range d.(*ast.GenDecl).Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() && spec.Assign.IsValid() {
							t.Errorf("type %s is an alias; name the type by the package that declares it", spec.Name)
						}
					case *ast.ValueSpec:
						for i, v := range spec.Values {
							if spec.Names[i].IsExported() && foreign(v) {
								t.Errorf("%s re-exports another package's value", spec.Names[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestWorkflowNamesAreQuoted: the standard library has no YAML parser, and the
// way this repository's workflow has failed to load is a plain `name:` scalar
// holding ": " (a nested mapping to a YAML reader) or " #" (a comment).
func TestWorkflowNamesAreQuoted(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	files, _ := filepath.Glob(filepath.Join(l.ModuleRoot, ".github", "workflows", "*.yml"))
	if len(files) == 0 {
		t.Fatal("no workflow under .github/workflows")
	}
	name := regexp.MustCompile(`^\s*(?:- )?name:\s+([^"'].*)$`)
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := name.FindStringSubmatch(line); m != nil && (strings.Contains(m[1], ": ") || strings.Contains(m[1], " #")) {
				t.Errorf("%s:%d: unquoted name %q does not parse as a YAML scalar; quote it", filepath.Base(file), i+1, m[1])
			}
		}
	}
}
