package lint

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
)

// seed-coord-literal: two call sites in one package passing the same string
// literal to rng.StringCoord receive the *same* coordinate, so streams that
// look independent at both sites are in fact identical — correlated
// randomness that silently biases Monte-Carlo estimates. Each distinct
// purpose needs a distinct coordinate label (the repository convention is a
// slash-scoped path like "fig11/trial/..."). Only plain string literals are
// compared; computed labels (concatenations with a series or pattern name)
// are assumed to be distinguished by their dynamic part.
//
// The first occurrence anchors the label; every later duplicate site is
// flagged, pointing back at the anchor. Intentional stream sharing goes
// through one helper that holds the label, so the literal appears once.

func checkSeedCoordLiteral(cfg *Config, pkg *Package) []Finding {
	if !cfg.IsDeterministic(pkg.Path) {
		return nil
	}
	sites := map[string][]token.Pos{}
	pkg.inspectFiles(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		if !pkgFuncCall(pkg.Info, call, cfg.RngPkg, "StringCoord") {
			return true
		}
		lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		val, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		sites[val] = append(sites[val], call.Pos())
		return true
	})
	labels := make([]string, 0, len(sites))
	for label, positions := range sites {
		if len(positions) > 1 {
			labels = append(labels, label)
		}
	}
	sort.Strings(labels)
	var out []Finding
	for _, label := range labels {
		positions := sites[label]
		sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
		first := pkg.Fset.Position(positions[0])
		for _, pos := range positions[1:] {
			out = append(out, pkg.finding(pos, "seed-coord-literal",
				"rng.StringCoord("+strconv.Quote(label)+") duplicates the coordinate first used at "+
					filepath.Base(first.Filename)+":"+strconv.Itoa(first.Line)+
					"; identical coordinates mean identical streams — use a distinct label"))
		}
	}
	return out
}
