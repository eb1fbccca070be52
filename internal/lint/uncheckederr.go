// Package lint is the module's one static check and the loader the tests
// that read the module's source share. It is built on the standard
// library's go/parser, go/ast and go/types alone.
//
// UncheckedErr is here because a seeded defect of its kind — a silently
// dropped Framer, deadline or store error — is reported by it and by no test
// (DESIGN.md §8.5): a dropped Framer error turns "the server rejected our
// provocation" into "the server ignored it", a corrupted measurement rather
// than a crash. TestRepoClean runs it over every package of the module in
// `go test ./...`; there is no separate driver.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

// String renders the diagnostic vet-style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
}

// UncheckedErr reports, in source order, the silently discarded error
// returns in pkg from the I/O surfaces a probe's verdict depends on:
// frame.Framer read, write and flush methods, h2conn.Conn frame senders,
// net.Conn deadline setters, and http.ResponseWriter bodies (the metrics
// exposition endpoint, where a dropped error serves a truncated scrape as
// if it were complete).
//
// The same treatment covers the results side of the measurement pipeline: a
// dropped store.Writer.Append error loses a census record after the probe
// already paid for it, and a dropped metrics.DebugServer.Close error hides a
// wedged observability endpoint.
//
// Only implicit discards are reported (a call in statement position, or
// under go/defer where the result is unrecoverable). An explicit `_ =`
// assignment is an acknowledged discard and passes: the codebase uses it
// where an error is genuinely uninteresting (best-effort ACKs, teardown).
func UncheckedErr(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{Pos: pkg.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
	}
	info := pkg.Info
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			verb := ""
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = s.X.(*ast.CallExpr)
			case *ast.GoStmt:
				call, verb = s.Call, "go "
			case *ast.DeferStmt:
				call, verb = s.Call, "defer "
			}
			if call == nil {
				return true
			}
			f := calleeFunc(info, call)
			if f == nil {
				return true
			}
			if !returnsError(info, call) {
				return true
			}
			if why := errCriticalCall(info, call, f); why != "" {
				report(call.Pos(), "%s%s: error return is silently discarded (handle it or assign to _ explicitly)", verb, why)
			}
			return true
		})
	}
	return diags
}

// errCriticalCall classifies a call whose error must not be dropped,
// returning a human-readable description of the callee ("" if the call is
// not on the critical surface).
func errCriticalCall(info *types.Info, call *ast.CallExpr, f *types.Func) string {
	if isDeadlineSetter(f) {
		recv := recvTypeOf(info, call)
		if recv != nil && isNetConnLike(recv) {
			return "(net.Conn)." + f.Name()
		}
		return ""
	}
	recv := recvTypeOf(info, call)
	if recv == nil {
		return ""
	}
	switch {
	case namedTypeIs(recv, "internal/frame", "Framer"):
		// Flush included: on a coalescing framer the Write* calls only
		// append, and Flush is where the socket error surfaces.
		if strings.HasPrefix(f.Name(), "Write") || f.Name() == "ReadFrame" || f.Name() == "Flush" {
			return "(*frame.Framer)." + f.Name()
		}
	case isH2Conn(recv):
		if strings.HasPrefix(f.Name(), "Write") ||
			strings.HasPrefix(f.Name(), "OpenStream") || f.Name() == "Ping" {
			return "(*h2conn.Conn)." + f.Name()
		}
	case isResponseWriterLike(recv):
		if f.Name() == "Write" {
			return "(http.ResponseWriter)." + f.Name()
		}
	case namedTypeIs(recv, "internal/store", "Writer"):
		if f.Name() == "Append" {
			return "(*store.Writer)." + f.Name()
		}
	case namedTypeIs(recv, "internal/metrics", "DebugServer"):
		if f.Name() == "Close" {
			return "(*metrics.DebugServer)." + f.Name()
		}
	}
	return ""
}
