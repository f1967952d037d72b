package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Phase 1 of the interprocedural analyzer: per-function summaries over a
// call graph.
//
// Every function declaration and function literal in the analyzed program
// becomes a funcNode carrying facts (wall-clock reads, rng sources,
// order-sensitive map ranges, package-level state writes) and unresolved
// call records. Linking resolves those records into edges:
//
//   - static calls to module functions/methods resolve directly;
//   - calls through function-typed values resolve by signature to every
//     address-taken module function with that signature (function literals
//     count as address-taken);
//   - interface method calls resolve by class-hierarchy analysis: every
//     named module type implementing the interface contributes its method;
//   - referencing a function without calling it adds a conservative edge
//     (the reference usually escapes into a call somewhere downstream).
//
// The result deliberately over-approximates reachability: the phase 2
// rule (rule_purity.go) must never miss a path, and spurious ones are
// cheap to inspect thanks to the witness path in each diagnostic.

// fact is one determinism-relevant effect observed in a function body.
type fact struct {
	pos token.Pos
	msg string
}

// funcNode is one function declaration or literal in the program.
type funcNode struct {
	id   string // stable sort key: pkg path + file:offset
	name string // display name for witness paths, e.g. service.(*Server).handleTopology
	pkg  *Package
	sig  *types.Signature
	obj  types.Object // declared object; nil for literals
	pos  token.Pos

	facts        []fact
	callObjs     []types.Object // resolved static callees (module or std)
	indirectSigs []string       // signature keys of calls through func values
	ifaceCalls   []*types.Func  // interface methods invoked
	refObjs      []types.Object // functions referenced as values
	lits         []*funcNode    // nested function literals

	handlerSig bool // has the func(http.ResponseWriter, *http.Request) shape

	succ []*funcNode // linked call-graph edges, sorted by id
}

// rootDecl is a purity entry point found during collection, before linking.
type rootDecl struct {
	label string
	node  *funcNode    // resolved in-package (literal or decl)
	obj   types.Object // cross-package reference, resolved at link time
}

// pkgResult is everything phase 1 extracts from one package. Collection is
// package-local, so packages can be processed by parallel workers; linking
// merges results in deterministic package order.
type pkgResult struct {
	pkg   *Package
	nodes []*funcNode // source order
	roots []rootDecl
	allow allowSet
}

// Program is the linked whole-program view phase 2 rules run over.
type Program struct {
	Module   string
	Packages []*Package // deterministic (path) order

	objNode   map[types.Object]*funcNode
	nodes     []*funcNode // all nodes sorted by id
	roots     []rootDecl  // resolved: node non-nil, sorted by id
	implCache map[*types.Func][]*funcNode
	named     []*types.Named // module named types, for CHA
}

// collectPackage builds the pkgResult for one package. It touches only the
// package's own ASTs and type info, so it is safe to run concurrently with
// other packages' collections.
func collectPackage(cfg *Config, pkg *Package) *pkgResult {
	res := &pkgResult{
		pkg:   pkg,
		allow: allowIndex(pkg),
	}
	c := &collector{cfg: cfg, pkg: pkg, res: res, callFun: map[ast.Node]bool{}}
	for _, f := range pkg.Files {
		// Pre-pass: mark identifiers in call position (so a plain reference
		// to a function can be told apart from calling it) and find exhibit
		// Run registrations.
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				fun := ast.Unparen(call.Fun)
				switch ix := fun.(type) {
				case *ast.IndexExpr:
					fun = ast.Unparen(ix.X)
				case *ast.IndexListExpr:
					fun = ast.Unparen(ix.X)
				}
				switch fun := fun.(type) {
				case *ast.Ident:
					c.callFun[fun] = true
				case *ast.SelectorExpr:
					c.callFun[fun.Sel] = true
				}
			}
			return true
		})
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok {
				c.exhibitRoots(lit)
			}
			return true
		})
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			node := c.newNode(fd.Name.Pos(), c.declName(fd), pkg.Info.Defs[fd.Name])
			c.walkBody(node, fd.Body)
			res.nodes = append(res.nodes, node)
		}
	}
	return res
}

type collector struct {
	cfg     *Config
	pkg     *Package
	res     *pkgResult
	callFun map[ast.Node]bool
}

func (c *collector) newNode(pos token.Pos, name string, obj types.Object) *funcNode {
	p := c.pkg.Fset.Position(pos)
	n := &funcNode{
		id:   c.pkg.Path + "\x00" + filepath.Base(p.Filename) + fmt.Sprintf(":%06d", p.Offset),
		name: name,
		pkg:  c.pkg,
		obj:  obj,
		pos:  pos,
	}
	if obj != nil {
		if sig, ok := obj.Type().(*types.Signature); ok {
			n.sig = sig
			n.handlerSig = isHandlerSig(sig)
		}
	}
	return n
}

// declName renders a FuncDecl as pkg.Name or pkg.(*T).Name.
func (c *collector) declName(fd *ast.FuncDecl) string {
	base := c.pkg.Types.Name()
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return base + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	var recv string
	switch t := ast.Unparen(t).(type) {
	case *ast.StarExpr:
		recv = "(*" + exprBase(t.X) + ")"
	default:
		recv = exprBase(t)
	}
	return base + "." + recv + "." + fd.Name.Name
}

// exprBase extracts the base type name of a receiver expression.
func exprBase(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return exprBase(e.X)
	case *ast.IndexListExpr:
		return exprBase(e.X)
	}
	return "?"
}

// litName renders a FuncLit by its position, e.g. service.func@server.go:41.
func (c *collector) litName(lit *ast.FuncLit) string {
	p := c.pkg.Fset.Position(lit.Pos())
	return c.pkg.Types.Name() + ".func@" + filepath.Base(p.Filename) + ":" + fmt.Sprint(p.Line)
}

// walkBody collects facts and call records for node from body, recursing
// into nested function literals as separate child nodes.
func (c *collector) walkBody(node *funcNode, body *ast.BlockStmt) {
	info := c.pkg.Info
	allowed := c.cfg.fileAllowed(c.pkg.Fset.Position(body.Pos()).Filename)
	addFact := func(pos token.Pos, msg string) {
		if !allowed {
			node.facts = append(node.facts, fact{pos: pos, msg: msg})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			child := c.newNode(n.Pos(), c.litName(n), nil)
			if sig, ok := info.TypeOf(n).(*types.Signature); ok {
				child.sig = sig
				child.handlerSig = isHandlerSig(sig)
			}
			node.lits = append(node.lits, child)
			c.walkBody(child, n.Body)
			return false
		case *ast.CallExpr:
			c.recordCall(node, n, addFact)
			return true
		case *ast.Ident:
			if c.callFun[n] {
				return true
			}
			if f, ok := info.Uses[n].(*types.Func); ok && inModule(f, c.cfg) {
				node.refObjs = append(node.refObjs, f)
			}
			return true
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.recordGlobalWrite(node, lhs, addFact)
			}
			return true
		case *ast.IncDecStmt:
			c.recordGlobalWrite(node, n.X, addFact)
			return true
		case *ast.BlockStmt:
			c.recordMapRanges(node, n.List, addFact)
			return true
		case *ast.CaseClause:
			c.recordMapRanges(node, n.Body, addFact)
			return true
		case *ast.CommClause:
			c.recordMapRanges(node, n.Body, addFact)
			return true
		}
		return true
	})
}

// recordCall classifies one call expression into a static, indirect, or
// interface call record, and emits nondeterminism facts for standard
// library sources.
func (c *collector) recordCall(node *funcNode, call *ast.CallExpr, addFact func(token.Pos, string)) {
	info := c.pkg.Info
	obj := calleeObj(info, call)
	switch f := obj.(type) {
	case *types.Builtin:
		return
	case *types.TypeName:
		return // conversion through a named type
	case *types.Func:
		sig, _ := f.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				node.ifaceCalls = append(node.ifaceCalls, f)
				return
			}
		}
		switch {
		case objInPkg(f, "time") && (f.Name() == "Now" || f.Name() == "Since" || f.Name() == "Until"):
			addFact(call.Pos(), "wall-clock call time."+f.Name())
		case objInPkg(f, "math/rand") || objInPkg(f, "math/rand/v2"):
			addFact(call.Pos(), "unseeded randomness via "+f.Pkg().Path()+"."+f.Name())
		case objInPkg(f, "crypto/rand"):
			addFact(call.Pos(), "OS entropy via crypto/rand."+f.Name())
		}
		node.callObjs = append(node.callObjs, f)
		return
	default:
		// nil (expression call) or *types.Var (call through a func-typed
		// variable, parameter, or struct field like Cache.build): dispatch
		// by signature to every address-taken function of that shape.
		fun := ast.Unparen(call.Fun)
		if _, isLit := fun.(*ast.FuncLit); isLit {
			return // the containment edge to the literal's node covers this
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return // conversion
		}
		if t := info.TypeOf(call.Fun); t != nil {
			if sig, ok := t.Underlying().(*types.Signature); ok {
				node.indirectSigs = append(node.indirectSigs, sigKey(sig))
			}
		}
	}
}

// recordGlobalWrite emits a fact when an assignment target is (or indexes
// into) a package-level variable of a module package. init functions are
// exempt: they run once before any handler or exhibit.
func (c *collector) recordGlobalWrite(node *funcNode, lhs ast.Expr, addFact func(token.Pos, string)) {
	if strings.HasSuffix(node.name, ".init") {
		return
	}
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
			continue
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
			continue
		}
		break
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	v, ok := c.pkg.Info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || !inModule(v, c.cfg) {
		return
	}
	if v.Parent() != v.Pkg().Scope() {
		return // not package-level
	}
	addFact(lhs.Pos(), "mutates package-level state "+v.Pkg().Name()+"."+v.Name())
}

// recordMapRanges emits a fact for each order-sensitive map range in the
// statement list, reusing the per-function rule's effect and sorted-later
// logic so both layers agree on what counts as order-sensitive.
func (c *collector) recordMapRanges(node *funcNode, list []ast.Stmt, addFact func(token.Pos, string)) {
	for i, stmt := range list {
		rs, ok := stmt.(*ast.RangeStmt)
		if !ok {
			continue
		}
		t := c.pkg.Info.TypeOf(rs.X)
		if t == nil {
			continue
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			continue
		}
		effect, appendTo := orderSensitiveEffect(c.cfg, c.pkg, rs.Body)
		if effect == "" {
			continue
		}
		if appendTo != nil && sortedLater(c.pkg, list[i+1:], appendTo) {
			continue
		}
		addFact(rs.Pos(), "order-sensitive map range ("+effect+")")
	}
}

// exhibitRoots records the Run field of every exhibit-registry composite
// literal as a purity entry point.
func (c *collector) exhibitRoots(lit *ast.CompositeLit) {
	if c.cfg.ExhibitPkg == "" {
		return
	}
	t := c.pkg.Info.TypeOf(lit)
	if t == nil {
		return
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Exhibit" || !objInPkg(named.Obj(), c.cfg.ExhibitPkg) {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	runIdx := -1
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == "Run" {
			runIdx = i
		}
	}
	if runIdx < 0 {
		return
	}
	label := c.pkg.Types.Name() + ".Exhibit@" + c.posLabel(lit.Pos())
	for i, el := range lit.Elts {
		var val ast.Expr
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Run" {
				continue
			}
			val = kv.Value
		} else if i == runIdx {
			val = el
		} else {
			continue
		}
		c.rootFromExpr(label, val)
	}
}

// rootFromExpr resolves an exhibit Run expression to a root: a literal, a
// function reference, or (for factory calls like scenarioSweep(0)) the
// factory function itself, whose nested literals the containment edges
// cover.
func (c *collector) rootFromExpr(label string, e ast.Expr) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.FuncLit:
		// The literal's node is created during walkBody of its enclosing
		// function; record the position and resolve at link time via the
		// node table keyed by position.
		c.res.roots = append(c.res.roots, rootDecl{label: label, node: &funcNode{pos: e.Pos(), pkg: c.pkg}})
	case *ast.Ident:
		if f, ok := c.pkg.Info.Uses[e].(*types.Func); ok {
			c.res.roots = append(c.res.roots, rootDecl{label: label, obj: f})
		}
	case *ast.SelectorExpr:
		if f, ok := c.pkg.Info.Uses[e.Sel].(*types.Func); ok {
			c.res.roots = append(c.res.roots, rootDecl{label: label, obj: f})
		}
	case *ast.CallExpr:
		if f, ok := calleeObj(c.pkg.Info, e).(*types.Func); ok {
			c.res.roots = append(c.res.roots, rootDecl{label: label, obj: f})
		}
	}
}

func (c *collector) posLabel(pos token.Pos) string {
	p := c.pkg.Fset.Position(pos)
	return filepath.Base(p.Filename) + ":" + fmt.Sprint(p.Line)
}

// inModule reports whether the object is declared in a module package (as
// opposed to the standard library).
func inModule(obj types.Object, cfg *Config) bool {
	return obj != nil && obj.Pkg() != nil && isModulePath(obj.Pkg().Path(), cfg)
}

func isModulePath(path string, cfg *Config) bool {
	mod := cfg.modulePath()
	return path == mod || strings.HasPrefix(path, mod+"/")
}

// sigKey canonicalizes a signature to parameter and result types, ignoring
// the receiver: a bound method value and a plain function with the same
// shape dispatch identically through a function-typed value.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	b.WriteByte('(')
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), nil))
	}
	b.WriteString(")(")
	for i := 0; i < sig.Results().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), nil))
	}
	b.WriteByte(')')
	return b.String()
}

// isHandlerSig reports whether sig has the net/http handler shape
// func(http.ResponseWriter, *http.Request).
func isHandlerSig(sig *types.Signature) bool {
	if sig == nil || sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	return types.TypeString(sig.Params().At(0).Type(), nil) == "net/http.ResponseWriter" &&
		types.TypeString(sig.Params().At(1).Type(), nil) == "*net/http.Request"
}

// link merges per-package results into a Program and resolves all call
// records into edges. results must be in deterministic package order.
func link(cfg *Config, results []*pkgResult) *Program {
	prog := &Program{
		Module:    cfg.modulePath(),
		objNode:   map[types.Object]*funcNode{},
		implCache: map[*types.Func][]*funcNode{},
	}
	posNode := map[string]*funcNode{} // pkg path + decl pos -> node
	var addNode func(n *funcNode)
	addNode = func(n *funcNode) {
		prog.nodes = append(prog.nodes, n)
		posNode[posNodeKey(n.pkg.Path, n.pos)] = n
		if n.obj != nil {
			prog.objNode[n.obj] = n
		}
		for _, lit := range n.lits {
			addNode(lit)
		}
	}
	for _, r := range results {
		prog.Packages = append(prog.Packages, r.pkg)
		for _, n := range r.nodes {
			addNode(n)
		}
		scope := r.pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				if _, isIface := named.Underlying().(*types.Interface); !isIface {
					prog.named = append(prog.named, named)
				}
			}
		}
	}
	sort.Slice(prog.nodes, func(i, j int) bool { return prog.nodes[i].id < prog.nodes[j].id })

	// Address-taken index: every literal plus every referenced declaration.
	sigIndex := map[string][]*funcNode{}
	taken := map[*funcNode]bool{}
	take := func(n *funcNode) {
		if n == nil || taken[n] || n.sig == nil {
			return
		}
		taken[n] = true
		key := sigKey(n.sig)
		sigIndex[key] = append(sigIndex[key], n)
	}
	for _, n := range prog.nodes {
		if n.obj == nil {
			take(n) // every literal is address-taken by construction
		}
		for _, ref := range n.refObjs {
			take(prog.objNode[ref])
		}
	}
	for _, r := range results {
		for _, rd := range r.roots {
			if rd.obj != nil {
				take(prog.objNode[rd.obj])
			}
		}
	}

	// Resolve edges.
	for _, n := range prog.nodes {
		seen := map[*funcNode]bool{}
		add := func(t *funcNode) {
			if t != nil && t != n && !seen[t] {
				seen[t] = true
				n.succ = append(n.succ, t)
			}
		}
		for _, obj := range n.callObjs {
			add(prog.objNode[obj])
		}
		for _, obj := range n.refObjs {
			add(prog.objNode[obj])
		}
		for _, lit := range n.lits {
			add(lit)
		}
		for _, key := range n.indirectSigs {
			for _, t := range sigIndex[key] {
				add(t)
			}
		}
		for _, m := range n.ifaceCalls {
			for _, t := range prog.implementers(m) {
				add(t)
			}
		}
		sort.Slice(n.succ, func(i, j int) bool { return n.succ[i].id < n.succ[j].id })
	}

	// Resolve roots: handler-shaped functions plus exhibit Run entries.
	seenRoot := map[*funcNode]bool{}
	for _, n := range prog.nodes {
		if n.handlerSig {
			prog.roots = append(prog.roots, rootDecl{label: "HTTP handler " + n.name, node: n})
			seenRoot[n] = true
		}
	}
	for _, r := range results {
		for _, rd := range r.roots {
			n := rd.node
			if n != nil {
				n = posNode[posNodeKey(n.pkg.Path, n.pos)]
			} else {
				n = prog.objNode[rd.obj]
			}
			if n == nil || seenRoot[n] {
				continue
			}
			seenRoot[n] = true
			prog.roots = append(prog.roots, rootDecl{label: "exhibit Run " + n.name, node: n})
		}
	}
	sort.Slice(prog.roots, func(i, j int) bool { return prog.roots[i].node.id < prog.roots[j].node.id })
	return prog
}

// implementers resolves an interface method to the corresponding concrete
// methods of every named module type that implements the interface.
func (prog *Program) implementers(m *types.Func) []*funcNode {
	if nodes, ok := prog.implCache[m]; ok {
		return nodes
	}
	var out []*funcNode
	sig, _ := m.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		prog.implCache[m] = nil
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		prog.implCache[m] = nil
		return nil
	}
	for _, named := range prog.named {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(named, true, m.Pkg(), m.Name())
		if f, ok := obj.(*types.Func); ok {
			if n := prog.objNode[f]; n != nil {
				out = append(out, n)
			}
		}
	}
	prog.implCache[m] = out
	return out
}

// posNodeKey keys the position -> node table.
func posNodeKey(pkgPath string, pos token.Pos) string {
	return pkgPath + ":" + fmt.Sprint(int(pos))
}

// reach runs a BFS from root and returns the predecessor map (node -> the
// node it was first reached from; root maps to nil). Traversal order is
// deterministic because succ lists are sorted.
func reach(root *funcNode) map[*funcNode]*funcNode {
	pred := map[*funcNode]*funcNode{root: nil}
	queue := []*funcNode{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, s := range n.succ {
			if _, ok := pred[s]; !ok {
				pred[s] = n
				queue = append(queue, s)
			}
		}
	}
	return pred
}

// witnessPath renders the call chain root -> ... -> n from a predecessor
// map.
func witnessPath(pred map[*funcNode]*funcNode, n *funcNode) string {
	var parts []string
	for at := n; at != nil; at = pred[at] {
		parts = append(parts, at.name)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, " -> ")
}
