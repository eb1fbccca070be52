package lint

import (
	"go/token"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// sharedLoader memoizes one Loader across every test in the package: the
// expensive part of loading is type-checking the standard library, which
// the loader caches per instance.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(".")
})

func loadFixture(t *testing.T, rel string) *Package {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", rel))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", rel, err)
	}
	return pkg
}

// wantAnn is one backquoted-regexp want annotation from a fixture.
type wantAnn struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantPattern = regexp.MustCompile("// want(?: `([^`]+)`)+")
var backquoted = regexp.MustCompile("`([^`]+)`")

// parseWants extracts the want annotations of every file in pkg.
func parseWants(t *testing.T, pkg *Package) []*wantAnn {
	t.Helper()
	var wants []*wantAnn
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !wantPattern.MatchString(c.Text) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range backquoted.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &wantAnn{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// runGolden runs one analyzer over fixture packages and checks its
// diagnostics against the fixtures' want annotations, both ways: every
// diagnostic must be expected, and every expectation must fire.
func runGolden(t *testing.T, a *Analyzer, fixtures ...string) {
	t.Helper()
	var pkgs []*Package
	var wants []*wantAnn
	for _, rel := range fixtures {
		pkg := loadFixture(t, rel)
		pkgs = append(pkgs, pkg)
		wants = append(wants, parseWants(t, pkg)...)
	}
	for _, d := range Run([]*Analyzer{a}, pkgs) {
		found := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestUncheckedErrGolden(t *testing.T) {
	runGolden(t, UncheckedErrAnalyzer, "uncheckederr/a")
}

func TestRetainGolden(t *testing.T) {
	runGolden(t, RetainAnalyzer, "retain/a")
}

func TestHotAllocGolden(t *testing.T) {
	runGolden(t, HotAllocAnalyzer, "hotalloc/internal/frame", "hotalloc/a")
}

// TestSuppression pins the //h2lint:ignore contract directly: a directive
// without a reason does not suppress, one with a reason does, and "all"
// matches every analyzer.
func TestSuppression(t *testing.T) {
	base := Diagnostic{Analyzer: "retain", Pos: token.Position{Filename: "x.go", Line: 10, Column: 3}}
	cases := []struct {
		name string
		dir  ignoreDirective
		want bool
	}{
		{"same line", ignoreDirective{analyzer: "retain", reason: "r", file: "x.go", line: 10}, true},
		{"line above", ignoreDirective{analyzer: "retain", reason: "r", file: "x.go", line: 9}, true},
		{"wildcard", ignoreDirective{analyzer: "all", reason: "r", file: "x.go", line: 10}, true},
		{"no reason", ignoreDirective{analyzer: "retain", file: "x.go", line: 10}, false},
		{"wrong analyzer", ignoreDirective{analyzer: "hotalloc", reason: "r", file: "x.go", line: 10}, false},
		{"wrong file", ignoreDirective{analyzer: "retain", reason: "r", file: "y.go", line: 10}, false},
		{"too far", ignoreDirective{analyzer: "retain", reason: "r", file: "x.go", line: 8}, false},
	}
	for _, tc := range cases {
		if got := suppressed(base, []ignoreDirective{tc.dir}); got != tc.want {
			t.Errorf("%s: suppressed = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// repoPackages loads every package of the real module.
func repoPackages(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load(./...): %v", err)
	}
	return l, pkgs
}

// TestRepoClean is the self-clean gate: every analyzer over every package
// of the real module must produce zero diagnostics.
func TestRepoClean(t *testing.T) {
	_, pkgs := repoPackages(t)
	diags := Run(All(), pkgs)
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
	if len(diags) == 0 && len(pkgs) < 10 {
		t.Errorf("suspiciously few packages loaded: %d", len(pkgs))
	}
}

// TestAnalyzerRegistry pins the catalog: three analyzers, each documented and
// under a name of its own (the name selects the analyzer's h2lint flag).
func TestAnalyzerRegistry(t *testing.T) {
	all := All()
	if len(all) != 3 {
		t.Fatalf("All() returned %d analyzers, want 3", len(all))
	}
	names := make(map[string]bool)
	for _, a := range all {
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		if names[a.Name] {
			t.Errorf("two analyzers named %q", a.Name)
		}
		names[a.Name] = true
	}
}
