package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// RetainAnalyzer enforces the framer's payload-ownership contract (see the
// "Read buffer ownership" section on frame.Framer): everything ReadFrame
// returns — the typed frame and every payload slice reachable from it — is
// recycled storage, valid only until the next ReadFrame on the same framer.
// The analyzer tracks aliases of ReadFrame results and of frame-typed
// parameters intra-procedurally and flags the escapes that outlive that
// window: stores into struct fields, map or slice elements, channel sends,
// goroutine hand-offs, retaining appends, and assignments to variables that
// survive the read loop. frame.CopyPayload launders a value clean, as do
// string conversions and byte-wise spread appends (both deep-copy).
//
// Before this analyzer the contract was enforced only by the runtime
// aliasing regression tests, which catch a violation when the recycled
// buffer happens to be overwritten under an exercised path; the static pass
// rules the escape out on every path.
var RetainAnalyzer = &Analyzer{
	Name: "retain",
	Doc:  "flags aliases of recycled ReadFrame payloads that escape past the next ReadFrame without frame.CopyPayload",
	Run:  runRetain,
}

// taintSource records where a tracked value came from.
type taintSource struct {
	// pos is the originating ReadFrame call (or parameter).
	pos token.Pos
	// loop is the innermost for/range statement enclosing the originating
	// ReadFrame, nil when the call is straight-line or the source is a
	// parameter.
	loop ast.Stmt
}

func runRetain(pass *Pass) {
	// The framer's own package owns the recycled buffers; its stores into
	// scratch frames are the mechanism, not a violation.
	if p := pass.TypesPkg().Path(); p == "internal/frame" || strings.HasSuffix(p, "/internal/frame") {
		return
	}
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &retainWalker{
				pass:   pass,
				info:   pass.TypesInfo(),
				taints: make(map[*types.Var]*taintSource),
			}
			w.seedParams(fd)
			w.walk(fd.Body)
		}
	}
}

// retainWalker carries one function's alias state through a source-ordered
// AST walk.
type retainWalker struct {
	pass   *Pass
	info   *types.Info
	taints map[*types.Var]*taintSource
	stack  []ast.Node
}

// seedParams taints frame-typed parameters: a function that receives a
// Frame has received recycled storage and inherits the contract.
func (w *retainWalker) seedParams(fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			v, ok := w.info.Defs[name].(*types.Var)
			if !ok || !isFrameValue(v.Type()) {
				continue
			}
			w.taints[v] = &taintSource{pos: name.Pos()}
		}
	}
}

// isFrameValue reports whether t is the frame.Frame interface or a pointer
// to one of the typed frame structs (*DataFrame, *HeadersFrame, ...).
func isFrameValue(t types.Type) bool {
	if namedTypeIs(t, "internal/frame", "Frame") {
		return true
	}
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Name(), "Frame") {
		return false
	}
	p := obj.Pkg().Path()
	return p == "internal/frame" || strings.HasSuffix(p, "/internal/frame")
}

// isReadFrameCall reports whether call is (*frame.Framer).ReadFrame.
func isReadFrameCall(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	if f == nil || f.Name() != "ReadFrame" {
		return false
	}
	recv := recvTypeOf(info, call)
	return recv != nil && namedTypeIs(recv, "internal/frame", "Framer")
}

// isCopyPayloadCall reports whether call is frame.CopyPayload, the contract's
// designated escape hatch.
func isCopyPayloadCall(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	if f == nil || f.Name() != "CopyPayload" || f.Pkg() == nil {
		return false
	}
	p := f.Pkg().Path()
	return p == "internal/frame" || strings.HasSuffix(p, "/internal/frame")
}

// walk visits node and its children in source order, maintaining the
// ancestor stack and dispatching the statements that move values around.
func (w *retainWalker) walk(node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		if n == nil {
			w.stack = w.stack[:len(w.stack)-1]
			return false
		}
		w.stack = append(w.stack, n)
		switch s := n.(type) {
		case *ast.AssignStmt:
			w.assign(s)
		case *ast.SendStmt:
			if w.taintOf(s.Value) != nil {
				w.report(s.Value.Pos(), "sent on a channel")
			}
		case *ast.GoStmt:
			w.goStmt(s)
		case *ast.TypeSwitchStmt:
			// switch v := f.(type): every clause binds an implicit v of its
			// own, and each one aliases what f does.
			if as, ok := s.Assign.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
				if src := w.taintOf(as.Rhs[0]); src != nil {
					for _, clause := range s.Body.List {
						if v, ok := w.info.Implicits[clause].(*types.Var); ok {
							w.taints[v] = src
						}
					}
				}
			}
		case *ast.RangeStmt:
			// range over a tainted slice taints the element variable.
			if src := w.taintOf(s.X); src != nil && s.Value != nil {
				if v := localObject(w.info, s.Value); v != nil {
					if t := w.info.TypeOf(s.Value); t != nil && typeRetainsPointers(t) {
						w.taints[v] = src
					}
				}
			}
		}
		return true
	})
}

// assign applies one assignment statement to the taint state.
func (w *retainWalker) assign(s *ast.AssignStmt) {
	// Multi-value forms: f, err := fr.ReadFrame() and d, ok := f.(*DataFrame).
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		if src := w.taintOf(s.Rhs[0]); src != nil {
			w.assignOne(s.Lhs[0], src)
		}
		return
	}
	for i, r := range s.Rhs {
		if i >= len(s.Lhs) {
			break
		}
		l := s.Lhs[i]
		src := w.taintOf(r)
		if src == nil {
			// A clean reassignment clears a previously tainted variable.
			if v := localObject(w.info, l); v != nil {
				delete(w.taints, v)
			}
			continue
		}
		w.assignOne(l, src)
	}
}

// assignOne records or reports one tainted value landing in lhs.
func (w *retainWalker) assignOne(lhs ast.Expr, src *taintSource) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		v := localObject(w.info, id)
		if v == nil {
			return
		}
		w.taints[v] = src
		// Loop-carried retention: a variable declared outside the loop that
		// contains the ReadFrame survives into the next iteration — past the
		// next ReadFrame.
		if src.loop != nil && !declaredWithin(v, src.loop) {
			w.report(id.Pos(), "assigned to a variable that outlives the ReadFrame loop iteration")
		}
		return
	}
	switch lhs.(type) {
	case *ast.SelectorExpr:
		w.report(lhs.Pos(), "stored in a struct field")
	case *ast.IndexExpr:
		w.report(lhs.Pos(), "stored in a map or slice element")
	case *ast.StarExpr:
		w.report(lhs.Pos(), "stored through a pointer")
	}
}

// goStmt flags tainted values crossing into a goroutine, which races the
// next ReadFrame by construction.
func (w *retainWalker) goStmt(s *ast.GoStmt) {
	for _, arg := range s.Call.Args {
		if w.taintOf(arg) != nil {
			w.report(arg.Pos(), "passed to a goroutine")
		}
	}
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if v, ok := w.info.Uses[id].(*types.Var); ok {
				if _, tainted := w.taints[v]; tainted {
					w.report(id.Pos(), "captured by a goroutine closure")
					return false
				}
			}
			return true
		})
	}
}

// taintOf resolves the taint source an expression aliases, or nil when the
// expression is clean (including values laundered through CopyPayload,
// copying conversions, and byte-wise spread appends).
func (w *retainWalker) taintOf(expr ast.Expr) *taintSource {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v, ok := w.info.Uses[e].(*types.Var); ok {
			return w.taints[v]
		}
	case *ast.SelectorExpr:
		src := w.taintOf(e.X)
		if src == nil {
			return nil
		}
		if t := w.info.TypeOf(e); t != nil && !typeRetainsPointers(t) {
			return nil // scalar field copies by value
		}
		return src
	case *ast.IndexExpr:
		src := w.taintOf(e.X)
		if src == nil {
			return nil
		}
		if t := w.info.TypeOf(e); t != nil && !typeRetainsPointers(t) {
			return nil
		}
		return src
	case *ast.SliceExpr:
		return w.taintOf(e.X)
	case *ast.TypeAssertExpr:
		return w.taintOf(e.X)
	case *ast.StarExpr:
		return w.taintOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return w.taintOf(e.X)
		}
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if src := w.taintOf(elt); src != nil {
				return src
			}
		}
	case *ast.CallExpr:
		return w.taintOfCall(e)
	}
	return nil
}

// taintOfCall classifies call results: ReadFrame births a taint, CopyPayload
// and copying conversions launder one, append retains or copies depending on
// its shape, and every other call is trusted to not leak what it was passed.
func (w *retainWalker) taintOfCall(call *ast.CallExpr) *taintSource {
	if isReadFrameCall(w.info, call) {
		return &taintSource{pos: call.Pos(), loop: enclosingLoop(w.stack)}
	}
	if isCopyPayloadCall(w.info, call) {
		return nil
	}
	if target, ok := isConversion(w.info, call); ok {
		// string([]byte) and []T-of-scalars([]byte) copy; conversions between
		// pointer-carrying types keep the alias.
		if !typeRetainsPointers(target) || elemCopiesClean(target) {
			return nil
		}
		if len(call.Args) == 1 {
			return w.taintOf(call.Args[0])
		}
		return nil
	}
	if builtinName(w.info, call) == "append" && len(call.Args) > 0 {
		for i, arg := range call.Args[1:] {
			src := w.taintOf(arg)
			if src == nil {
				continue
			}
			spread := call.Ellipsis.IsValid() && i == len(call.Args)-2
			if spread {
				if t := w.info.TypeOf(arg); t != nil && elemCopiesClean(t) {
					continue // append(dst, data...) deep-copies the bytes
				}
			}
			return src
		}
		// The destination slice may itself be tainted (resizing an alias).
		return w.taintOf(call.Args[0])
	}
	return nil
}

func (w *retainWalker) report(pos token.Pos, how string) {
	w.pass.Reportf(pos, "recycled frame payload %s; it is valid only until the next ReadFrame — detach it with frame.CopyPayload", how)
}
