package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// namedTypeIs reports whether t (after stripping pointers and aliases) is
// the named type with the given package-path suffix and type name. Matching
// by path suffix instead of exact path keeps analyzers testable: golden
// fixtures live under testdata/src/... yet mimic real package layouts.
func namedTypeIs(t types.Type, pathSuffix, name string) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == pathSuffix || strings.HasSuffix(p, "/"+pathSuffix)
}

// hasMethod reports whether t's method set (value or pointer, interface or
// concrete) contains a method with the given name.
func hasMethod(t types.Type, name string) bool {
	obj, _, _ := types.LookupFieldOrMethod(derefType(t), true, nil, name)
	_, ok := obj.(*types.Func)
	return ok
}

func derefType(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// isNetConnLike reports whether t is a transport connection: either the
// net.Conn interface itself, a concrete type implementing its
// deadline/close contract (structural check — so *tls.Conn, *netsim.Conn,
// and fixture doubles all match without importing net here), or the
// project's h2conn.Conn.
func isNetConnLike(t types.Type) bool {
	if t == nil {
		return false
	}
	if isH2Conn(t) {
		return true
	}
	return hasMethod(t, "Close") &&
		hasMethod(t, "SetDeadline") &&
		hasMethod(t, "SetReadDeadline") &&
		hasMethod(t, "RemoteAddr")
}

// isResponseWriterLike reports whether t satisfies net/http.ResponseWriter's
// shape (Header/Write/WriteHeader) — the surface the metrics exposition
// endpoint writes scrape bodies through. The check is structural so wrapped
// and fixture ResponseWriters match without importing net/http here.
func isResponseWriterLike(t types.Type) bool {
	if t == nil {
		return false
	}
	return hasMethod(t, "Header") &&
		hasMethod(t, "Write") &&
		hasMethod(t, "WriteHeader")
}

// isH2Conn reports whether t is (a pointer to) internal/h2conn's Conn.
func isH2Conn(t types.Type) bool {
	return namedTypeIs(t, "internal/h2conn", "Conn")
}

// calleeFunc resolves the *types.Func a call expression invokes, or nil for
// calls through function values, conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call (net.Dial, h2conn.Dial, ...).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// recvTypeOf returns the receiver type of the method a call invokes, or nil
// when the call is not a method call.
func recvTypeOf(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil
	}
	return s.Recv()
}

// callResults returns the result tuple of call, or nil.
func callResults(info *types.Info, call *ast.CallExpr) *types.Tuple {
	tv, ok := info.Types[call]
	if !ok {
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t
	default:
		if tv.Type == nil || tv.IsVoid() {
			return nil
		}
		return types.NewTuple(types.NewVar(0, nil, "", tv.Type))
	}
}

// returnsError reports whether the call's last result is the error type.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	res := callResults(info, call)
	if res == nil || res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// isDeadlineSetter reports whether f is a SetDeadline/SetReadDeadline/
// SetWriteDeadline method returning error — the net.Conn deadline contract.
func isDeadlineSetter(f *types.Func) bool {
	switch f.Name() {
	case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
	default:
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return sig.Results().Len() == 1 &&
		types.Identical(sig.Results().At(0).Type(), types.Universe.Lookup("error").Type())
}

// terminatesFlow reports whether stmt unconditionally ends the surrounding
// flow of control: a return, a panic, or a call that never returns
// (os.Exit, log.Fatal*, testing's Fatal*).
func terminatesFlow(info *types.Info, stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave the block; the conservative walker
		// treats them as terminating the path it is tracking.
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			return true
		}
		if f := calleeFunc(info, call); f != nil {
			switch f.Name() {
			case "Exit", "Fatal", "Fatalf", "Fatalln", "Goexit":
				return true
			}
		}
	}
	return false
}
