// Package lint is H2Scope's project-specific static-analysis framework,
// built from scratch on the standard library's go/parser, go/ast, and
// go/types — no golang.org/x/tools dependency.
//
// The scanner's value rests on protocol-level correctness: a probe that
// leaks a connection, drops a Framer error, keeps a recycled frame payload,
// or allocates on the gated hot path silently corrupts or slows a
// measurement study, and no test in the tree fails when it happens. The
// analyzers in this package enforce exactly those four code shapes; the
// cmd/h2lint driver runs them over the module and CI fails on any finding.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis at a
// fraction of its surface: an Analyzer owns a name, a doc string, and a Run
// function; Run receives a Pass giving it the type-checked syntax of one
// package plus a Report sink. Diagnostics render vet-style as
// "file:line:col: analyzer: message".
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI flags. It must be
	// a valid flag name (lowercase, no spaces).
	Name string
	// Doc is a one-line description shown by `h2lint -list`.
	Doc string
	// Run analyzes a single package, reporting findings through pass.Report.
	Run func(pass *Pass)
}

// Pass carries the type-checked syntax of one package into an analyzer.
type Pass struct {
	// Fset maps token positions back to file/line/column.
	Fset *token.FileSet
	// Pkg is the package under analysis.
	Pkg *Package
	// Analyzer is the pass's analyzer (Report stamps its name).
	Analyzer *Analyzer

	report func(Diagnostic)
}

// Files returns the package's parsed files.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// TypesInfo returns the package's type-checking results.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// TypesPkg returns the package's *types.Package.
func (p *Pass) TypesPkg() *types.Package { return p.Pkg.Types }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Analyzer names the pass that produced the finding.
	Analyzer string `json:"analyzer"`
	// Pos locates the finding (file is module-relative when produced by
	// Runner.Run with a module root).
	Pos token.Position `json:"-"`
	// Message explains the finding.
	Message string `json:"message"`
}

// String renders the diagnostic vet-style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Run applies analyzers to pkgs and returns the findings sorted by position
// (file, line, column) then analyzer name. Findings covered by a
// //h2lint:ignore <analyzer> <reason> directive on the same line or the line
// above are dropped; the reason is mandatory and "all" matches every
// analyzer.
func Run(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ignores := parseIgnores(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Fset:     pkg.Fset,
				Pkg:      pkg,
				Analyzer: a,
				report: func(d Diagnostic) {
					if suppressed(d, ignores) {
						return
					}
					diags = append(diags, d)
				},
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// All returns the full battery of H2Scope analyzers in a stable order. Each
// is here because a defect seeded into the real packages was reported by it
// and by nothing else (DESIGN.md §8.5 has the seeds, including the ones each
// analyzer is known to miss).
func All() []*Analyzer {
	return []*Analyzer{
		UncheckedErrAnalyzer,
		RetainAnalyzer,
		HotAllocAnalyzer,
	}
}
