package lint

import (
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

// TestUncheckedErrGolden checks UncheckedErr against the fixture's want
// annotations both ways: every diagnostic must be expected, and every
// expectation must fire.
func TestUncheckedErrGolden(t *testing.T) {
	pkg := loadFixture(t, "uncheckederr/a")
	wants := parseWants(t, pkg)
	for _, d := range UncheckedErr(pkg) {
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
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	return l, pkgs
}

// TestRepoClean is the self-clean gate: UncheckedErr over every package of
// the real module must produce zero diagnostics.
func TestRepoClean(t *testing.T) {
	l, pkgs := repoPackages(t)
	for _, p := range pkgs {
		for _, d := range UncheckedErr(p) {
			d.Pos.Filename, _ = filepath.Rel(l.ModuleRoot, d.Pos.Filename)
			t.Errorf("repo not lint-clean: %s", d)
		}
	}
	if len(pkgs) < 10 {
		t.Errorf("suspiciously few packages loaded: %d", len(pkgs))
	}
}
