package lint

// This file is the package's dataflow layer: the shared machinery the retain
// and hotalloc analyzers are built on. uncheckederr only needs to look at one
// expression at a time; these two need to know how values *move* — which
// locals alias a recycled payload, which functions a hot entry point can
// reach, which statements sit on a cold early-exit path. Everything here is
// intra-procedural plus a conservative same-package call graph: no SSA, no
// x/tools, just ordered walks over the type-checked AST the loader already
// produces.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// --- comment directives ---

// ignoreDirective is one parsed //h2lint:ignore comment.
type ignoreDirective struct {
	analyzer string
	reason   string
	line     int
	file     string
}

// parseIgnores extracts every //h2lint:ignore directive of pkg. The accepted
// form is
//
//	//h2lint:ignore <analyzer> <reason...>
//
// and the directive suppresses diagnostics of that analyzer on its own line
// or the line directly below (so it works both as a trailing comment and as
// a line of its own above the construct). A reason is mandatory: a
// suppression nobody can re-evaluate later is a time bomb.
func parseIgnores(pkg *Package) []ignoreDirective {
	var out []ignoreDirective
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//h2lint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				pos := pkg.Fset.Position(c.Pos())
				d := ignoreDirective{line: pos.Line, file: pos.Filename}
				if len(fields) > 0 {
					d.analyzer = fields[0]
				}
				if len(fields) > 1 {
					d.reason = strings.Join(fields[1:], " ")
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// suppressed reports whether d is covered by one of the directives: same
// analyzer (or "all"), same file, directive on the diagnostic's line or the
// line above, and a non-empty reason.
func suppressed(d Diagnostic, dirs []ignoreDirective) bool {
	for _, dir := range dirs {
		if dir.reason == "" {
			continue
		}
		if dir.analyzer != d.Analyzer && dir.analyzer != "all" {
			continue
		}
		if dir.file != d.Pos.Filename {
			continue
		}
		if dir.line == d.Pos.Line || dir.line == d.Pos.Line-1 {
			return true
		}
	}
	return false
}

// hasHotPathDirective reports whether fn's doc comment carries the
// //h2:hotpath marker, opting the function into hotalloc's reachability
// roots.
func hasHotPathDirective(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, "//h2:hotpath") {
			return true
		}
	}
	return false
}

// --- call graph ---

// funcDecls maps every function and method declared in the package to its
// declaration.
func funcDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	info := pass.TypesInfo()
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if f, ok := info.Defs[fd.Name].(*types.Func); ok {
				out[f] = fd
			}
		}
	}
	return out
}

// callees returns the distinct same-package functions the statically
// resolvable calls under root invoke. Calls through function values,
// interfaces the checker cannot devirtualize, and other packages are
// silently absent — the conservative direction for reachability walks that
// trust what they cannot see.
func callees(info *types.Info, root ast.Node, decls map[*types.Func]*ast.FuncDecl) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(info, call)
		if f == nil || seen[f] {
			return true
		}
		if _, local := decls[f]; local {
			seen[f] = true
			out = append(out, f)
		}
		return true
	})
	return out
}

// reachableFrom walks the same-package call graph from the root set and
// returns, for every reachable function, the root it was first reached from
// (roots map to themselves).
func reachableFrom(info *types.Info, roots []*types.Func, decls map[*types.Func]*ast.FuncDecl) map[*types.Func]*types.Func {
	out := make(map[*types.Func]*types.Func)
	var queue []*types.Func
	for _, r := range roots {
		if _, ok := decls[r]; !ok {
			continue
		}
		if _, ok := out[r]; !ok {
			out[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		decl := decls[fn]
		if decl == nil || decl.Body == nil {
			continue
		}
		for _, callee := range callees(info, decl.Body, decls) {
			if _, ok := out[callee]; !ok {
				out[callee] = out[fn]
				queue = append(queue, callee)
			}
		}
	}
	return out
}

// --- cold-path classification ---

// blockTerminates reports whether a statement list unconditionally leaves
// the surrounding flow (its last statement is a return, panic, or branch).
func blockTerminates(info *types.Info, stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	return terminatesFlow(info, stmts[len(stmts)-1])
}

// coldBlocks collects the early-exit blocks of fn: if/else bodies that end
// by leaving the flow. The hot-path analyzers treat allocations inside them
// as error-path work the steady state never executes — the same distinction
// the 0 allocs/op gate draws dynamically, drawn statically.
func coldBlocks(info *types.Info, fn ast.Node) map[*ast.BlockStmt]bool {
	cold := make(map[*ast.BlockStmt]bool)
	ast.Inspect(fn, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if blockTerminates(info, ifStmt.Body.List) {
			cold[ifStmt.Body] = true
		}
		if els, ok := ifStmt.Else.(*ast.BlockStmt); ok && blockTerminates(info, els.List) {
			cold[els] = true
		}
		return true
	})
	return cold
}

// inColdBlock reports whether pos falls inside one of the collected cold
// blocks.
func inColdBlock(cold map[*ast.BlockStmt]bool, pos token.Pos) bool {
	for b := range cold {
		if b.Pos() <= pos && pos < b.End() {
			return true
		}
	}
	return false
}

// --- alias / escape helpers ---

// typeRetainsPointers reports whether storing a value of type t can retain
// heap memory: slices, maps, pointers, interfaces, channels, functions, and
// aggregates containing them. Scalars and pointer-free structs/arrays copy
// by value, so assigning them cannot alias a recycled buffer.
func typeRetainsPointers(t types.Type) bool {
	return typeRetainsPointersSeen(t, make(map[types.Type]bool))
}

func typeRetainsPointersSeen(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.String || u.Kind() == types.UnsafePointer
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Array:
		return typeRetainsPointersSeen(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if typeRetainsPointersSeen(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// elemCopiesClean reports whether spreading a value of slice type t into
// append copies the payload out of the recycled buffer: true when the
// element type itself retains no pointers (append(dst, data...) on []byte or
// []Setting deep-copies; on []Frame it would retain the frames).
func elemCopiesClean(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return !typeRetainsPointers(sl.Elem())
}

// enclosingLoop returns the innermost for/range statement in stack (a path
// of ancestors, outermost first) that encloses the last element, or nil.
func enclosingLoop(stack []ast.Node) ast.Stmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.ForStmt:
			return s
		case *ast.RangeStmt:
			return s
		}
	}
	return nil
}

// declaredWithin reports whether obj's declaration lies inside node's source
// range.
func declaredWithin(obj types.Object, node ast.Node) bool {
	if obj == nil || node == nil {
		return false
	}
	return node.Pos() <= obj.Pos() && obj.Pos() < node.End()
}

// localObject resolves an identifier expression to the object it names when
// that object is a variable, and nil otherwise.
func localObject(info *types.Info, expr ast.Expr) *types.Var {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// isConversion reports whether call is a type conversion (not a function or
// builtin call), returning the target type.
func isConversion(info *types.Info, call *ast.CallExpr) (types.Type, bool) {
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	if !ok || !tv.IsType() {
		return nil, false
	}
	return tv.Type, true
}

// builtinName returns the name of the builtin a call invokes ("" otherwise).
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}
