// Command h2lint runs H2Scope's project-specific static analyzers (see
// internal/lint) over the module and reports vet-style diagnostics.
//
// Usage:
//
//	h2lint [flags] [patterns ...]
//
// Patterns default to ./... (every package in the module). Each analyzer
// has an enable/disable flag (-uncheckederr=false, ...); -json switches to
// machine output. Exit status: 0 clean, 1 diagnostics reported, 2 usage or
// load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"h2scope/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("h2lint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	list := fs.Bool("list", false, "list analyzers and exit")
	dir := fs.String("C", ".", "analyze the module containing this `directory`")
	enabled := make(map[string]*bool)
	for _, a := range lint.All() {
		enabled[a.Name] = fs.Bool(a.Name, true, a.Doc)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(out, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var analyzers []*lint.Analyzer
	for _, a := range lint.All() {
		if *enabled[a.Name] {
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	diags := lint.Run(analyzers, pkgs)
	for i := range diags {
		// Module-relative paths keep output stable across checkouts.
		if rel, err := filepath.Rel(loader.ModuleRoot, diags[i].Pos.Filename); err == nil {
			diags[i].Pos.Filename = rel
		}
	}

	if *jsonOut {
		type jsonDiag struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Message  string `json:"message"`
		}
		rows := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			rows = append(rows, jsonDiag{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
	}

	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "h2lint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		}
		return 1
	}
	return 0
}
