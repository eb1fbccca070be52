package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// UncheckedErrAnalyzer flags silently discarded error returns from the I/O
// surfaces a probe's verdict depends on: frame.Framer read, write and flush
// methods, h2conn.Conn frame senders, net.Conn deadline setters, and
// http.ResponseWriter bodies (the metrics exposition endpoint). A dropped
// Framer error turns "the server rejected our provocation" into "the server
// ignored it" — a corrupted measurement, not a crash — and a dropped
// ResponseWriter.Write error serves a truncated /metrics scrape as if it
// were complete.
//
// The same treatment covers the results side of the measurement pipeline: a
// dropped store.Writer.Append error loses a census record after the probe
// already paid for it, a dropped metrics.DebugServer.Close error
// hides a wedged observability endpoint, and a trace.Tracer.Subscribe whose
// *Subscription result is discarded leaks a live bus subscription that can
// never be closed.
//
// Only implicit discards are flagged (a call in statement position, or
// under go/defer where the result is unrecoverable). An explicit `_ =`
// assignment is an acknowledged discard and passes: the codebase uses it
// where an error is genuinely uninteresting (best-effort ACKs, teardown).
var UncheckedErrAnalyzer = &Analyzer{
	Name: "uncheckederr",
	Doc:  "flags ignored error returns from Framer read/write/flush, h2conn.Conn senders, deadline setters, store/metrics writers, and discarded trace subscriptions",
	Run:  runUncheckedErr,
}

func runUncheckedErr(pass *Pass) {
	info := pass.TypesInfo()
	for _, file := range pass.Files() {
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
			if isDiscardedSubscription(f) {
				pass.Reportf(call.Pos(), "%s(*trace.Tracer).Subscribe: the returned Subscription is discarded and can never be closed — it leaks from the bus", verb)
				return true
			}
			if !returnsError(info, call) {
				return true
			}
			if why := errCriticalCall(info, call, f); why != "" {
				pass.Reportf(call.Pos(), "%s%s: error return is silently discarded (handle it or assign to _ explicitly)", verb, why)
			}
			return true
		})
	}
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
	case namedTypeIs(recv, "internal/obs", "FlightRecorder"):
		// A dropped Dump error loses the forensic evidence the recorder
		// exists to capture; a dropped Close error loses the manifest.
		if f.Name() == "Dump" || f.Name() == "Close" {
			return "(*obs.FlightRecorder)." + f.Name()
		}
	}
	return ""
}

// isDiscardedSubscription reports whether call is a Subscribe returning a
// *trace.Subscription whose result is being thrown away (the analyzer only
// sees the call in statement/go/defer position, so reaching here means the
// result is unrecoverable).
func isDiscardedSubscription(f *types.Func) bool {
	if f.Name() != "Subscribe" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	ptr, ok := sig.Results().At(0).Type().Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	return namedTypeIs(ptr.Elem(), "internal/trace", "Subscription")
}
