package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// This file is the whole-program layer of the framework: a static call
// graph over every loaded package, shared by the interprocedural rules
// (dettaint), the hotpath-escape gate and maprange's look through calls
// (OrderedEffectPath). The graph is
// deliberately an over-approximation — it must never miss a possible call,
// and it tolerates edges that cannot happen at runtime:
//
//   - direct calls and method calls resolve exactly through go/types;
//   - interface method calls fan out to every module-declared method with
//     the same name and parameter count (no points-to analysis);
//   - function values are tracked by a flow-insensitive "what functions
//     were ever assigned to this variable/field/parameter" map, and an
//     invocation through such an object calls everything that flowed in;
//   - function values stored in slices, maps or returned from functions
//     are not tracked (best-effort, documented in DESIGN.md §3i).
//
// The loader type-checks each package once, so a declaration is one
// types.Object program-wide and the graph keys by identity: a declared
// function by its *types.Func, a literal by its *ast.FuncLit, and a tracked
// function value by the *types.Var (variable, field or parameter) holding
// it. Objects are keyed through Origin(), so every instantiation of a
// generic declaration shares one key.

// Program is the whole-repo view that program-level rules (Rule.RunProgram)
// operate on, in contrast to the per-package Pass.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
	// ModuleRoot is the directory holding go.mod, resolved from the first
	// package's directory; ModulePath is its module declaration. Both are
	// empty when resolution fails (program rules then skip work that needs
	// the module on disk, such as the escape gate's go build).
	ModuleRoot string
	ModulePath string
	// EscapeOutput, when non-nil, replaces the real `go build -gcflags=-m`
	// invocation of the hotpath-escape rule with canned compiler output —
	// the seam the golden tests use to exercise both Go 1.22 and 1.24
	// diagnostic formats without requiring both toolchains.
	EscapeOutput func() ([]byte, error)

	graph *CallGraph
}

// ProgramPass carries the Program through one program rule's run.
type ProgramPass struct {
	Prog  *Program
	rule  *Rule
	diags *[]Diagnostic
}

// Reportf records a finding at pos, resolved through the program fileset.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportAt(p.Prog.Fset.Position(pos), format, args...)
}

// ReportAt records a finding at an already-resolved position. The escape
// gate uses it directly: compiler diagnostics arrive as file:line:col text,
// not token.Pos values.
func (p *ProgramPass) ReportAt(position token.Position, format string, args ...any) {
	report(p.diags, p.rule, position, format, args...)
}

// NewProgram assembles the program view over the loaded packages.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs}
	if len(pkgs) == 0 {
		return prog
	}
	prog.Fset = pkgs[0].Fset
	for dir := pkgs[0].Dir; ; {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			prog.ModuleRoot = dir
			if mp, err := modulePath(filepath.Join(dir, "go.mod")); err == nil {
				prog.ModulePath = mp
			}
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			break
		}
		dir = parent
	}
	return prog
}

// CallGraph returns the program's call graph, building it on first use.
func (prog *Program) CallGraph() *CallGraph {
	if prog.graph == nil {
		prog.graph = buildCallGraph(prog)
	}
	return prog.graph
}

// CGNode is one function in the call graph: a declared function or method
// (Func non-nil) or a function literal.
type CGNode struct {
	// Func is the declared function or method; nil for a literal.
	Func *types.Func
	Name string // human-readable, e.g. "(*epc.MME).handleAttach"
	// Pkg is set for functions whose source was analyzed;
	// referenced-but-unanalyzed functions (standard library, mostly) are
	// body-less leaves.
	Pkg *Package
	// Root marks event-handler entry points: functions whose value flows
	// into a sim.Engine scheduling API (Schedule, ScheduleArg, After) or
	// into sim.NewTicker.
	Root bool
	// Edges are the node's calls, ordered by callee then call position.
	Edges []CGEdge

	id int // creation order, the graph's deterministic tie-break
}

// CGEdge is one call: the callee and the call's position.
type CGEdge struct {
	To  *CGNode
	Pos token.Pos
}

// cgKey identifies a node (a *types.Func or an *ast.FuncLit) or a flow-map
// entry, which may also be a *types.Var.
type cgKey interface{ Pos() token.Pos }

// CallGraph holds the program's nodes and the handler roots.
type CallGraph struct {
	// Roots lists the handler roots in creation order.
	Roots []*CGNode

	nodes map[cgKey]*CGNode
	order []*CGNode // every node, in creation order

	// toEffect maps every node that can reach an ordered effect (see
	// isOrderedEffect) to its next hop on a shortest path there, nil for an
	// effect itself. Built by the first OrderedEffectPath query.
	toEffect map[*CGNode]*CGNode
}

// Node returns fn's node, or nil when the graph never saw fn.
func (g *CallGraph) Node(fn *types.Func) *CGNode { return g.nodes[fn.Origin()] }

// isOrderedEffect reports whether a call to fn has observable order:
// sim.Engine scheduling (schedMethods) — same-instant events fire in
// enqueue order — or a netsim packet send (Send, Inject).
func isOrderedEffect(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || !isMethod(fn) {
		return false
	}
	if strings.HasSuffix(fn.Pkg().Path(), "internal/netsim") {
		return netsimSendNames[fn.Name()]
	}
	return isSchedulingAPI(fn)
}

// OrderedEffectPath reports whether fn can reach an ordered effect and, if
// so, renders the shortest such call chain, e.g.
// "(*ENB).requestRelease -> (*Core).sendS1AP -> (*Endpoint).Send". The
// reachability is computed once per graph, by a breadth-first walk up the
// reversed edges from every effect node.
func (g *CallGraph) OrderedEffectPath(fn *types.Func) (string, bool) {
	if g.toEffect == nil {
		g.toEffect = map[*CGNode]*CGNode{}
		callers := map[*CGNode][]*CGNode{}
		var queue []*CGNode
		for _, n := range g.order {
			for _, e := range n.Edges {
				callers[e.To] = append(callers[e.To], n)
			}
			if isOrderedEffect(n.Func) {
				g.toEffect[n] = nil
				queue = append(queue, n)
			}
		}
		for ; len(queue) > 0; queue = queue[1:] {
			for _, c := range callers[queue[0]] {
				if _, seen := g.toEffect[c]; !seen {
					g.toEffect[c] = queue[0]
					queue = append(queue, c)
				}
			}
		}
	}
	n := g.Node(fn)
	if _, ok := g.toEffect[n]; !ok {
		return "", false
	}
	var names []string
	for ; n != nil; n = g.toEffect[n] {
		names = append(names, n.Name)
	}
	return strings.Join(names, " -> "), true
}

// HandlerReachable walks the graph from the handler roots and returns the
// reachable nodes in BFS order plus, for every reached node, the node it was
// first reached from (nil for roots). The parent chain renders the
// diagnostic paths.
func (g *CallGraph) HandlerReachable() (order []*CGNode, parent map[*CGNode]*CGNode) {
	parent = map[*CGNode]*CGNode{}
	for _, r := range g.Roots {
		parent[r] = nil
	}
	order = append(order, g.Roots...)
	for i := 0; i < len(order); i++ {
		for _, e := range order[i].Edges {
			if _, seen := parent[e.To]; !seen {
				parent[e.To] = order[i]
				order = append(order, e.To)
			}
		}
	}
	return order, parent
}

// PathTo renders the call chain from a handler root down to n, e.g.
// "(*CIServer).onFrame -> (*Backend).match -> slowHash".
func (g *CallGraph) PathTo(parent map[*CGNode]*CGNode, n *CGNode) string {
	var names []string
	for ; n != nil; n = parent[n] {
		names = append(names, n.Name)
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " -> ")
}

// recvString prints a receiver type as "(T)" or "(*T)".
func recvString(t types.Type) string {
	ptr := ""
	if p, ok := t.(*types.Pointer); ok {
		ptr, t = "*", p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return "(" + ptr + n.Obj().Name() + ")"
	}
	return "(" + ptr + t.String() + ")"
}

// displayName renders a node name for diagnostics: methods keep the
// receiver, plain functions drop the package path's directory part.
func displayName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return recvString(sig.Recv().Type()) + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// schedMethods are the sim.Engine methods whose function-typed arguments
// become event handlers.
var schedMethods = map[string]bool{
	"Schedule":    true,
	"ScheduleArg": true,
	"After":       true,
}

// isSimPkg reports whether path is the simulation-engine package (or a
// fixture standing in for it).
func isSimPkg(path string) bool {
	return path == "internal/sim" || strings.HasSuffix(path, "/internal/sim")
}

// isSchedulingAPI reports whether fn is one of the engine entry points that
// turn a function value into an event handler.
func isSchedulingAPI(fn *types.Func) bool {
	if fn.Pkg() == nil || !isSimPkg(fn.Pkg().Path()) {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return recvString(sig.Recv().Type()) == "(*Engine)" && schedMethods[fn.Name()]
	}
	return fn.Name() == "NewTicker"
}

// isFuncTyped reports whether v holds a function value.
func isFuncTyped(v *types.Var) bool {
	_, ok := v.Type().Underlying().(*types.Signature)
	return ok
}

// varKey returns obj's flow-map key when it is a variable, nil otherwise.
func varKey(obj types.Object) cgKey {
	if v, ok := obj.(*types.Var); ok {
		return v.Origin()
	}
	return nil
}

type varCallSite struct {
	from *CGNode
	key  cgKey
	pos  token.Pos
}

type ifaceCallSite struct {
	from  *CGNode
	name  string
	arity int
	pos   token.Pos
}

type cgBuilder struct {
	prog  *Program
	nodes map[cgKey]*CGNode
	order []*CGNode
	// flows records, per tracked variable, the set of function (or other
	// variable) keys whose values were assigned to it.
	flows map[cgKey]map[cgKey]bool
	// varCalls and ifaceCalls are invocation sites resolved after all flows
	// are known.
	varCalls   []varCallSite
	ifaceCalls []ifaceCallSite
	// methodIndex maps "name/arity" to every analyzed method with that
	// shape — the interface-dispatch over-approximation.
	methodIndex map[string][]*CGNode
	// rootRefs are the function/variable keys passed to scheduling APIs.
	rootRefs map[cgKey]bool
}

func buildCallGraph(prog *Program) *CallGraph {
	b := &cgBuilder{
		prog:        prog,
		nodes:       map[cgKey]*CGNode{},
		flows:       map[cgKey]map[cgKey]bool{},
		methodIndex: map[string][]*CGNode{},
		rootRefs:    map[cgKey]bool{},
	}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				b.walkDecl(pkg, fd)
			}
		}
	}
	b.resolve()

	g := &CallGraph{nodes: b.nodes, order: b.order}
	for _, n := range b.order {
		if n.Root {
			g.Roots = append(g.Roots, n)
		}
		sort.Slice(n.Edges, func(i, j int) bool {
			if n.Edges[i].To != n.Edges[j].To {
				return n.Edges[i].To.id < n.Edges[j].To.id
			}
			return n.Edges[i].Pos < n.Edges[j].Pos
		})
	}
	return g
}

// newNode registers a node under key.
func (b *cgBuilder) newNode(key cgKey, n *CGNode) *CGNode {
	n.id = len(b.order)
	b.nodes[key] = n
	b.order = append(b.order, n)
	return n
}

// declNode returns (creating if needed) the node for a declared function.
func (b *cgBuilder) declNode(pkg *Package, fd *ast.FuncDecl) *CGNode {
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return nil
	}
	n := b.ensureFunc(fn)
	n.Pkg = pkg
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		idx := fd.Name.Name + "/" + strconv.Itoa(sig.Params().Len())
		b.methodIndex[idx] = append(b.methodIndex[idx], n)
	}
	return n
}

// ensureFunc returns the node for fn, creating a body-less leaf if it has
// not been seen.
func (b *cgBuilder) ensureFunc(fn *types.Func) *CGNode {
	fn = fn.Origin()
	if n := b.nodes[fn]; n != nil {
		return n
	}
	return b.newNode(fn, &CGNode{Func: fn, Name: displayName(fn)})
}

// litNode returns (creating if needed) the node for a literal lexically
// inside parent.
func (b *cgBuilder) litNode(pkg *Package, parent *CGNode, lit *ast.FuncLit) *CGNode {
	if n := b.nodes[lit]; n != nil {
		return n
	}
	line := b.prog.Fset.Position(lit.Pos()).Line
	return b.newNode(lit, &CGNode{
		Name: parent.Name + ".func@" + strconv.Itoa(line),
		Pkg:  pkg,
	})
}

// walkDecl builds nodes and edges for one top-level declaration, descending
// into nested function literals with the literal as the current node.
func (b *cgBuilder) walkDecl(pkg *Package, fd *ast.FuncDecl) {
	root := b.declNode(pkg, fd)
	if root == nil {
		return
	}
	var walk func(cur *CGNode, n ast.Node)
	walk = func(cur *CGNode, n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				walk(b.litNode(pkg, cur, x), x.Body)
				return false
			case *ast.CallExpr:
				b.call(cur, pkg, x)
			case *ast.AssignStmt:
				b.assign(pkg, x)
			case *ast.ValueSpec:
				for i, name := range x.Names {
					if i < len(x.Values) {
						b.flow(varKey(pkg.Info.Defs[name]), b.funcValues(pkg, x.Values[i]))
					}
				}
			case *ast.CompositeLit:
				b.compositeFlows(pkg, x)
			}
			return true
		})
	}
	walk(root, fd.Body)
}

func (b *cgBuilder) assign(pkg *Package, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		var obj types.Object
		switch lhs := ast.Unparen(as.Lhs[i]).(type) {
		case *ast.Ident:
			obj = objectOf(pkg.Info, lhs)
		case *ast.SelectorExpr:
			obj = pkg.Info.Uses[lhs.Sel]
		}
		b.flow(varKey(obj), b.funcValues(pkg, as.Rhs[i]))
	}
}

// compositeFlows records function values stored into struct fields through
// composite literals (keyed or positional).
func (b *cgBuilder) compositeFlows(pkg *Package, lit *ast.CompositeLit) {
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				b.flow(varKey(pkg.Info.Uses[id]), b.funcValues(pkg, kv.Value))
			}
			continue
		}
		if i < st.NumFields() {
			b.flow(varKey(st.Field(i)), b.funcValues(pkg, elt))
		}
	}
}

// call resolves one call expression into graph edges, flow records, root
// marks, or a deferred var/interface invocation.
func (b *cgBuilder) call(cur *CGNode, pkg *Package, call *ast.CallExpr) {
	if fn := calleeFunc(pkg.Info, call); fn != nil {
		if isInterfaceMethod(fn) {
			// Over-approximate dispatch through module-declared interfaces
			// only; standard-library interfaces (error, Stringer, sort) fan
			// out to formatting helpers everywhere and would drown the graph
			// in impossible edges.
			if fn.Pkg() != nil && isModulePath(b.prog, fn.Pkg().Path()) {
				if sig, ok := fn.Type().(*types.Signature); ok {
					b.ifaceCalls = append(b.ifaceCalls, ifaceCallSite{cur, fn.Name(), sig.Params().Len(), call.Pos()})
				}
			}
			return
		}
		cur.Edges = append(cur.Edges, CGEdge{b.ensureFunc(fn), call.Pos()})
		b.flowArgs(pkg, fn, call)
		if isSchedulingAPI(fn) {
			b.markRoots(pkg, fn, call)
		}
		return
	}
	fun := ast.Unparen(call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		cur.Edges = append(cur.Edges, CGEdge{b.litNode(pkg, cur, lit), call.Pos()})
		return
	}
	// Invocation through a function-typed variable, field or parameter.
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = objectOf(pkg.Info, fun)
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	}
	if v, ok := obj.(*types.Var); ok && isFuncTyped(v) {
		b.varCalls = append(b.varCalls, varCallSite{cur, v.Origin(), call.Pos()})
	}
}

// flowArgs records function values passed as arguments into the callee's
// parameters, so invocations of the parameter inside the callee resolve
// back to these arguments.
func (b *cgBuilder) flowArgs(pkg *Package, fn *types.Func, call *ast.CallExpr) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		if i >= sig.Params().Len() {
			break
		}
		if param := sig.Params().At(i); isFuncTyped(param) {
			b.flow(param.Origin(), b.funcValues(pkg, arg))
		}
	}
}

// markRoots marks every function value passed to a scheduling API as an
// event-handler root (directly, or via the flow map for indirect values).
func (b *cgBuilder) markRoots(pkg *Package, fn *types.Func, call *ast.CallExpr) {
	sig, _ := fn.Type().(*types.Signature)
	for i, arg := range call.Args {
		if sig != nil && i < sig.Params().Len() && !isFuncTyped(sig.Params().At(i)) {
			continue
		}
		for _, key := range b.funcValues(pkg, arg) {
			b.rootRefs[key] = true
		}
	}
}

// funcValues resolves an expression to the keys its function value may
// denote: a literal, a named function or method value, or (indirectly) a
// tracked variable.
func (b *cgBuilder) funcValues(pkg *Package, expr ast.Expr) []cgKey {
	var obj types.Object
	switch e := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		// The literal's node is created when walkDecl descends into it.
		return []cgKey{e}
	case *ast.Ident:
		obj = objectOf(pkg.Info, e)
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[e.Sel]
	}
	switch obj := obj.(type) {
	case *types.Func:
		return []cgKey{b.ensureFunc(obj).Func}
	case *types.Var:
		if isFuncTyped(obj) {
			return []cgKey{obj.Origin()}
		}
	}
	return nil
}

func (b *cgBuilder) flow(key cgKey, values []cgKey) {
	if key == nil || len(values) == 0 {
		return
	}
	set := b.flows[key]
	if set == nil {
		set = map[cgKey]bool{}
		b.flows[key] = set
	}
	for _, v := range values {
		set[v] = true
	}
}

// resolve turns deferred invocations and root references into edges and
// root marks, chasing flow keys transitively (a parameter may hold a field
// value that holds a method value).
func (b *cgBuilder) resolve() {
	memo := map[cgKey][]*CGNode{}
	var funcsOf func(key cgKey, seen map[cgKey]bool) []*CGNode
	funcsOf = func(key cgKey, seen map[cgKey]bool) []*CGNode {
		if got, ok := memo[key]; ok {
			return got
		}
		if seen[key] {
			return nil
		}
		seen[key] = true
		set := map[*CGNode]bool{}
		if n := b.nodes[key]; n != nil {
			set[n] = true
		}
		for v := range b.flows[key] {
			if n := b.nodes[v]; n != nil {
				set[n] = true
				continue
			}
			for _, f := range funcsOf(v, seen) {
				set[f] = true
			}
		}
		out := make([]*CGNode, 0, len(set))
		for n := range set {
			out = append(out, n)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
		memo[key] = out
		return out
	}

	for _, vc := range b.varCalls {
		for _, n := range funcsOf(vc.key, map[cgKey]bool{}) {
			vc.from.Edges = append(vc.from.Edges, CGEdge{n, vc.pos})
		}
	}
	for _, ic := range b.ifaceCalls {
		for _, n := range b.methodIndex[ic.name+"/"+strconv.Itoa(ic.arity)] {
			ic.from.Edges = append(ic.from.Edges, CGEdge{n, ic.pos})
		}
	}
	for ref := range b.rootRefs {
		for _, n := range funcsOf(ref, map[cgKey]bool{}) {
			n.Root = true
		}
	}
}

// isInterfaceMethod reports whether fn is declared on an interface type.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// isModulePath reports whether path belongs to the analyzed module (or its
// testdata stand-ins, which reuse the module path prefix).
func isModulePath(prog *Program, path string) bool {
	if prog.ModulePath == "" {
		return false
	}
	return path == prog.ModulePath || strings.HasPrefix(path, prog.ModulePath+"/")
}
