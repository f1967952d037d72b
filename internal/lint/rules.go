package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Shared helpers for the rule implementations.

// calleeObj resolves the object a call expression invokes: a function,
// method, or builtin. Generic instantiations resolve to their origin
// object. Returns nil for calls through function-typed values.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	fn := ast.Unparen(call.Fun)
	switch ix := fn.(type) {
	case *ast.IndexExpr:
		fn = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fn = ast.Unparen(ix.X)
	}
	switch fn := fn.(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// objInPkg reports whether obj is declared in the package with the given
// import path.
func objInPkg(obj types.Object, path string) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	b, ok := calleeObj(info, call).(*types.Builtin)
	return ok && b.Name() == name
}

// pkgFuncCall reports whether the call invokes the package-level function
// pkgPath.name (e.g. rng.StringCoord), resolved through the type checker so
// aliased imports are still caught.
func pkgFuncCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	obj := calleeObj(info, call)
	f, ok := obj.(*types.Func)
	return ok && f.Name() == name && objInPkg(f, pkgPath) && f.Type().(*types.Signature).Recv() == nil
}

// finding constructs a Finding at pos.
func (p *Package) finding(pos token.Pos, rule, msg string) Finding {
	return Finding{Pos: p.Fset.Position(pos), Rule: rule, Msg: msg}
}

// inspectFiles walks every file of the package.
func (p *Package) inspectFiles(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}
