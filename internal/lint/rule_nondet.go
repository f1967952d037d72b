package lint

import (
	"go/ast"
	"strconv"
)

// nondet-source: deterministic packages must not import math/rand (any
// version) or crypto/rand, and must not read the wall clock via time.Now or
// time.Since. All randomness has to come from internal/rng streams derived
// from a seed and job coordinates, so that every exhibit byte is a pure
// function of its inputs. cmd/ packages and internal/obs, the telemetry
// package whose API hands no time value back, are not on the deterministic
// list.

var nondetImports = map[string]string{
	"math/rand":    "use internal/rng streams derived from a seed instead",
	"math/rand/v2": "use internal/rng streams derived from a seed instead",
	"crypto/rand":  "deterministic packages cannot use OS entropy",
}

var nondetTimeFuncs = []string{"Now", "Since"}

func checkNondetSource(cfg *Config, pkg *Package) []Finding {
	if !cfg.IsDeterministic(pkg.Path) {
		return nil
	}
	var out []Finding
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, bad := nondetImports[path]; bad {
				out = append(out, pkg.finding(imp.Pos(), "nondet-source",
					"deterministic package imports "+path+"; "+why))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, name := range nondetTimeFuncs {
				if pkgFuncCall(pkg.Info, call, "time", name) {
					out = append(out, pkg.finding(call.Pos(), "nondet-source",
						"deterministic package reads the wall clock via time."+name+
							"; results must be a pure function of seed and coordinates"))
				}
			}
			return true
		})
	}
	return out
}
