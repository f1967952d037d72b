package lint

import (
	"go/ast"
	"go/types"
)

// split-in-parallel: drawing from a generator captured from the enclosing
// scope inside an engine.Run/RunShard worker closure makes each job's draws
// depend on the job completion order, which varies with the worker count.
// That breaks the workers=1 == workers=N byte-identity contract. Worker
// closures must derive their streams from job coordinates via
// rng.At/rng.DeriveSeed. A function literal handed its own stream as a
// parameter (a sweep grid's job body) is held to the same rule: it may draw
// from that stream and from none it captured.

// enginePoolFuncs are the worker-pool entry points whose closures are
// checked.
var enginePoolFuncs = map[string]bool{"Run": true, "RunShard": true}

func checkSplitInParallel(cfg *Config, pkg *Package) []Finding {
	if !cfg.IsDeterministic(pkg.Path) {
		return nil
	}
	var out []Finding
	pkg.inspectFiles(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if takesStream(cfg, pkg, n) {
				out = append(out, checkWorkerClosure(cfg, pkg, n)...)
			}
		case *ast.CallExpr:
			obj := calleeObj(pkg.Info, n)
			if !objInPkg(obj, cfg.EnginePkg) || !enginePoolFuncs[obj.Name()] {
				return true
			}
			for _, arg := range n.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok && !takesStream(cfg, pkg, lit) {
					out = append(out, checkWorkerClosure(cfg, pkg, lit)...)
				}
			}
		}
		return true
	})
	return out
}

// takesStream reports whether a function literal has an rng stream
// parameter.
func takesStream(cfg *Config, pkg *Package, lit *ast.FuncLit) bool {
	for _, f := range lit.Type.Params.List {
		if isRngRand(cfg, pkg.Info.TypeOf(f.Type)) {
			return true
		}
	}
	return false
}

// checkWorkerClosure flags uses of captured parent generators inside one
// worker closure.
func checkWorkerClosure(cfg *Config, pkg *Package, lit *ast.FuncLit) []Finding {
	var out []Finding
	reported := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || reported[obj] || !isRngRand(cfg, v.Type()) {
			return true
		}
		// Declared outside the closure means it is a captured parent
		// stream; anything declared by the closure itself (params or
		// locals, e.g. r := rng.At(...)) is job-local and fine.
		if v.Pos() < lit.Pos() || v.Pos() > lit.Body.End() {
			reported[obj] = true
			out = append(out, pkg.finding(id.Pos(), "split-in-parallel",
				"parallel worker uses rng stream "+v.Name()+" captured from the enclosing scope; "+
					"derive a job-local stream from its coordinates with rng.At/DeriveSeed"))
		}
		return true
	})
	return out
}

// isRngRand reports whether t is rng.Rand or a pointer to it.
func isRngRand(cfg *Config, t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	return o.Name() == "Rand" && objInPkg(o, cfg.RngPkg)
}
