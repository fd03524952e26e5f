package analysis

import (
	"fmt"
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
// Because the loader type-checks a package once for analysis (test files
// folded in) and once more when another package imports it, the same
// function is represented by distinct *types.Func objects in different
// type-checking universes. Nodes are therefore keyed by a stable printed
// name (package path, receiver, function name), never by object identity.

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
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    p.rule.Name,
		Message: fmt.Sprintf(format, args...),
	})
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
// (Fn non-nil) or a function literal.
type CGNode struct {
	Key  string
	Name string // human-readable, e.g. "(*epc.MME).handleAttach"
	Pos  token.Pos
	// Body and Pkg are set for functions whose source was analyzed;
	// referenced-but-unanalyzed functions (standard library, mostly) are
	// body-less leaves.
	Body *ast.BlockStmt
	Pkg  *Package
	// Decl is the enclosing top-level declaration — the node's own for
	// named functions, the lexically enclosing one for literals. Parameter
	// keys resolve against it, because handler closures capture parameters
	// bound outside their bodies.
	Decl *ast.FuncDecl
	// Root marks event-handler entry points: functions whose value flows
	// into a sim.Engine scheduling API (Schedule, ScheduleArg, After) or
	// into sim.NewTicker.
	Root bool

	edges []cgEdge
}

type cgEdge struct {
	to  string
	pos token.Pos
}

// CallGraph holds the program's nodes and the handler roots.
type CallGraph struct {
	Nodes map[string]*CGNode
	// RootKeys lists handler-root node keys in sorted order.
	RootKeys []string

	// toEffect maps every node that can reach an ordered effect (see
	// isOrderedEffect) to its next hop on a shortest path there, "" for an
	// effect itself. Built by the first OrderedEffectPath query.
	toEffect map[string]string
}

// isOrderedEffect reports whether a node key is a call whose order is
// observable: sim.Engine scheduling (schedMethods) — same-instant events
// fire in enqueue order — or a netsim packet send (Send, Inject).
func isOrderedEffect(key string) bool {
	dot := strings.LastIndex(key, ".")
	if dot < 0 {
		return false
	}
	recv, name := key[:dot], key[dot+1:]
	switch {
	case strings.HasSuffix(recv, "internal/sim.(*Engine)"):
		return schedMethods[name]
	case strings.HasSuffix(recv, ")"):
		i := strings.LastIndex(recv, ".(")
		return i >= 0 && strings.HasSuffix(recv[:i], "internal/netsim") && netsimSendNames[name]
	}
	return false
}

// OrderedEffectPath reports whether the function keyed key can reach an
// ordered effect and, if so, renders the shortest such call chain, e.g.
// "(*ENB).requestRelease -> (*Core).sendS1AP -> (*Endpoint).Send". The
// reachability is computed once per graph, by a breadth-first walk up the
// reversed edges from every effect node.
func (g *CallGraph) OrderedEffectPath(key string) (string, bool) {
	if g.toEffect == nil {
		g.toEffect = map[string]string{}
		keys := make([]string, 0, len(g.Nodes))
		for k := range g.Nodes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		callers := map[string][]string{}
		var queue []string
		for _, k := range keys {
			for _, e := range g.Nodes[k].edges {
				callers[e.to] = append(callers[e.to], k)
			}
			if isOrderedEffect(k) {
				g.toEffect[k] = ""
				queue = append(queue, k)
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
	if _, ok := g.toEffect[key]; !ok {
		return "", false
	}
	var names []string
	for k := key; k != ""; k = g.toEffect[k] {
		names = append(names, g.Nodes[k].Name)
	}
	return strings.Join(names, " -> "), true
}

// Edges returns n's callee keys with the call positions, deterministically
// ordered.
func (n *CGNode) Edges() []struct {
	Key string
	Pos token.Pos
} {
	out := make([]struct {
		Key string
		Pos token.Pos
	}, len(n.edges))
	for i, e := range n.edges {
		out[i] = struct {
			Key string
			Pos token.Pos
		}{e.to, e.pos}
	}
	return out
}

// HandlerReachable walks the graph from the handler roots and returns the
// reachable nodes in BFS order plus, for every reached node, the key of the
// node it was first reached from ("" for roots). The parent chain renders
// the diagnostic paths.
func (g *CallGraph) HandlerReachable() (order []*CGNode, parent map[string]string) {
	parent = map[string]string{}
	var queue []string
	for _, k := range g.RootKeys {
		parent[k] = ""
		queue = append(queue, k)
	}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		n := g.Nodes[key]
		if n == nil {
			continue
		}
		order = append(order, n)
		for _, e := range n.edges {
			if _, seen := parent[e.to]; seen {
				continue
			}
			parent[e.to] = key
			queue = append(queue, e.to)
		}
	}
	return order, parent
}

// PathTo renders the call chain from a handler root down to key, e.g.
// "(*CIServer).onFrame -> (*Backend).match -> slowHash".
func (g *CallGraph) PathTo(parent map[string]string, key string) string {
	var names []string
	for k := key; k != ""; k = parent[k] {
		name := k
		if n := g.Nodes[k]; n != nil {
			name = n.Name
		}
		names = append(names, name)
		if _, ok := parent[k]; !ok {
			break
		}
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " -> ")
}

// funcKey returns a stable identifier for fn that is independent of which
// type-checking universe resolved it: "pkgpath.(recv).Name" for methods,
// "pkgpath.Name" otherwise.
func funcKey(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return pkg + "." + recvString(sig.Recv().Type()) + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
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

// displayName renders a node name for diagnostics: method keys keep the
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

type varCallSite struct {
	from *CGNode
	key  string
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
	nodes map[string]*CGNode
	// flows records, per tracked object key, the set of function (or other
	// object) keys whose values were assigned to it.
	flows map[string]map[string]bool
	// varCalls and ifaceCalls are invocation sites resolved after all flows
	// are known.
	varCalls   []varCallSite
	ifaceCalls []ifaceCallSite
	// methodIndex maps "name/arity" to the keys of every analyzed method
	// with that shape — the interface-dispatch over-approximation.
	methodIndex map[string][]string
	// rootRefs are the function/object keys passed to scheduling APIs.
	rootRefs map[string]bool
}

func buildCallGraph(prog *Program) *CallGraph {
	b := &cgBuilder{
		prog:        prog,
		nodes:       map[string]*CGNode{},
		flows:       map[string]map[string]bool{},
		methodIndex: map[string][]string{},
		rootRefs:    map[string]bool{},
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

	g := &CallGraph{Nodes: b.nodes}
	for key, n := range b.nodes {
		if n.Root {
			g.RootKeys = append(g.RootKeys, key)
		}
		sort.Slice(n.edges, func(i, j int) bool {
			if n.edges[i].to != n.edges[j].to {
				return n.edges[i].to < n.edges[j].to
			}
			return n.edges[i].pos < n.edges[j].pos
		})
	}
	sort.Strings(g.RootKeys)
	return g
}

// declNode returns (creating if needed) the node for a declared function.
func (b *cgBuilder) declNode(pkg *Package, fd *ast.FuncDecl) *CGNode {
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return nil
	}
	n := b.ensureFunc(fn)
	n.Body = fd.Body
	n.Pkg = pkg
	n.Decl = fd
	n.Pos = fd.Pos()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		idx := fd.Name.Name + "/" + strconv.Itoa(sig.Params().Len())
		b.methodIndex[idx] = append(b.methodIndex[idx], n.Key)
	}
	return n
}

// ensureFunc returns the node for fn, creating a body-less leaf if it has
// not been seen.
func (b *cgBuilder) ensureFunc(fn *types.Func) *CGNode {
	key := funcKey(fn)
	n := b.nodes[key]
	if n == nil {
		n = &CGNode{Key: key, Name: displayName(fn), Pos: fn.Pos()}
		b.nodes[key] = n
	}
	return n
}

// litKey keys a function literal by its source position, which is unique
// and stable within the shared fileset.
func (b *cgBuilder) litKey(lit *ast.FuncLit) string {
	p := b.prog.Fset.Position(lit.Pos())
	return "lit:" + p.Filename + ":" + strconv.Itoa(p.Line) + ":" + strconv.Itoa(p.Column)
}

func (b *cgBuilder) litNode(pkg *Package, parent *CGNode, lit *ast.FuncLit) *CGNode {
	key := b.litKey(lit)
	n := b.nodes[key]
	if n == nil {
		p := b.prog.Fset.Position(lit.Pos())
		n = &CGNode{
			Key:  key,
			Name: parent.Name + ".func@" + strconv.Itoa(p.Line),
			Pos:  lit.Pos(),
			Body: lit.Body,
			Pkg:  pkg,
			Decl: parent.Decl,
		}
		b.nodes[key] = n
	}
	return n
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
				child := b.litNode(pkg, cur, x)
				walk(child, x.Body)
				return false
			case *ast.CallExpr:
				b.call(cur, pkg, x)
			case *ast.AssignStmt:
				b.assign(cur, pkg, x)
			case *ast.ValueSpec:
				for i, name := range x.Names {
					if i < len(x.Values) {
						b.flow(b.objKey(pkg, cur, pkg.Info.Defs[name]), b.funcValues(pkg, cur, x.Values[i]))
					}
				}
			case *ast.CompositeLit:
				b.compositeFlows(cur, pkg, x)
			}
			return true
		})
	}
	walk(root, fd.Body)
}

func (b *cgBuilder) assign(cur *CGNode, pkg *Package, as *ast.AssignStmt) {
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
		if v, ok := obj.(*types.Var); ok {
			b.flow(b.objKey(pkg, cur, v), b.funcValues(pkg, cur, as.Rhs[i]))
		}
	}
}

// compositeFlows records function values stored into struct fields through
// composite literals (keyed or positional).
func (b *cgBuilder) compositeFlows(cur *CGNode, pkg *Package, lit *ast.CompositeLit) {
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
				if f, ok := pkg.Info.Uses[id].(*types.Var); ok {
					b.flow(b.objKey(pkg, cur, f), b.funcValues(pkg, cur, kv.Value))
				}
			}
			continue
		}
		if i < st.NumFields() {
			b.flow(b.objKey(pkg, cur, st.Field(i)), b.funcValues(pkg, cur, elt))
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
		b.ensureFunc(fn)
		cur.edges = append(cur.edges, cgEdge{funcKey(fn), call.Pos()})
		b.flowArgs(cur, pkg, fn, call)
		if isSchedulingAPI(fn) {
			b.markRoots(cur, pkg, fn, call)
		}
		return
	}
	fun := ast.Unparen(call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		cur.edges = append(cur.edges, cgEdge{b.litKey(lit), call.Pos()})
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
	if v, ok := obj.(*types.Var); ok {
		if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
			b.varCalls = append(b.varCalls, varCallSite{cur, b.objKey(pkg, cur, v), call.Pos()})
		}
	}
}

// flowArgs records function values passed as arguments into the callee's
// parameter keys, so invocations of the parameter inside the callee resolve
// back to these arguments.
func (b *cgBuilder) flowArgs(cur *CGNode, pkg *Package, fn *types.Func, call *ast.CallExpr) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		if i >= sig.Params().Len() {
			break
		}
		if _, isSig := sig.Params().At(i).Type().Underlying().(*types.Signature); !isSig {
			continue
		}
		b.flow(paramKey(fn, i), b.funcValues(pkg, cur, arg))
	}
}

// markRoots marks every function value passed to a scheduling API as an
// event-handler root (directly, or via the flow map for indirect values).
func (b *cgBuilder) markRoots(cur *CGNode, pkg *Package, fn *types.Func, call *ast.CallExpr) {
	sig, _ := fn.Type().(*types.Signature)
	for i, arg := range call.Args {
		if sig != nil && i < sig.Params().Len() {
			if _, isSig := sig.Params().At(i).Type().Underlying().(*types.Signature); !isSig {
				continue
			}
		}
		for _, key := range b.funcValues(pkg, cur, arg) {
			b.rootRefs[key] = true
		}
	}
}

// paramKey identifies the i'th parameter of fn across type-check universes.
func paramKey(fn *types.Func, i int) string {
	return funcKey(fn) + "#p" + strconv.Itoa(i)
}

// objKey returns the flow-map key for a variable-like object. Fields and
// package-level variables get universe-independent keys; parameters of the
// current declaration use the owning function's key; other locals are keyed
// by position (they never cross universes).
func (b *cgBuilder) objKey(pkg *Package, cur *CGNode, obj types.Object) string {
	v, ok := obj.(*types.Var)
	if !ok {
		if obj == nil {
			return ""
		}
		return "obj:" + b.posKey(obj.Pos())
	}
	if v.IsField() {
		pkgPath := ""
		if v.Pkg() != nil {
			pkgPath = v.Pkg().Path()
		}
		return "field:" + pkgPath + "." + v.Name() + ":" + types.TypeString(v.Type(), nil)
	}
	// Parameter of the enclosing declaration?
	if cur != nil && cur.Decl != nil && cur.Pkg == pkg {
		if fn, ok := pkg.Info.Defs[cur.Decl.Name].(*types.Func); ok {
			if sig, ok := fn.Type().(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					if sig.Params().At(i) == v {
						return paramKey(fn, i)
					}
				}
			}
		}
	}
	if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return "pkgvar:" + v.Pkg().Path() + "." + v.Name()
	}
	return "local:" + b.posKey(v.Pos())
}

func (b *cgBuilder) posKey(pos token.Pos) string {
	p := b.prog.Fset.Position(pos)
	return p.Filename + ":" + strconv.Itoa(p.Line) + ":" + strconv.Itoa(p.Column)
}

// funcValues resolves an expression to the function keys its value may
// denote: a literal, a named function or method value, or (indirectly) a
// tracked object's key.
func (b *cgBuilder) funcValues(pkg *Package, cur *CGNode, expr ast.Expr) []string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		// The literal's node is created when walkDecl descends into it.
		return []string{b.litKey(e)}
	case *ast.Ident:
		switch obj := objectOf(pkg.Info, e).(type) {
		case *types.Func:
			b.ensureFunc(obj)
			return []string{funcKey(obj)}
		case *types.Var:
			if _, isSig := obj.Type().Underlying().(*types.Signature); isSig {
				return []string{b.objKey(pkg, cur, obj)}
			}
		}
	case *ast.SelectorExpr:
		switch obj := pkg.Info.Uses[e.Sel].(type) {
		case *types.Func:
			b.ensureFunc(obj)
			return []string{funcKey(obj)}
		case *types.Var:
			if _, isSig := obj.Type().Underlying().(*types.Signature); isSig {
				return []string{b.objKey(pkg, cur, obj)}
			}
		}
	}
	return nil
}

func (b *cgBuilder) flow(key string, values []string) {
	if key == "" || len(values) == 0 {
		return
	}
	set := b.flows[key]
	if set == nil {
		set = map[string]bool{}
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
	memo := map[string][]string{}
	var funcsOf func(key string, seen map[string]bool) []string
	funcsOf = func(key string, seen map[string]bool) []string {
		if got, ok := memo[key]; ok {
			return got
		}
		if seen[key] {
			return nil
		}
		seen[key] = true
		set := map[string]bool{}
		if b.nodes[key] != nil {
			set[key] = true
		}
		for v := range b.flows[key] {
			if b.nodes[v] != nil {
				set[v] = true
				continue
			}
			for _, f := range funcsOf(v, seen) {
				set[f] = true
			}
		}
		out := make([]string, 0, len(set))
		for k := range set {
			out = append(out, k)
		}
		sort.Strings(out)
		memo[key] = out
		return out
	}

	for _, vc := range b.varCalls {
		for _, key := range funcsOf(vc.key, map[string]bool{}) {
			vc.from.edges = append(vc.from.edges, cgEdge{key, vc.pos})
		}
	}
	for _, ic := range b.ifaceCalls {
		for _, key := range b.methodIndex[ic.name+"/"+strconv.Itoa(ic.arity)] {
			ic.from.edges = append(ic.from.edges, cgEdge{key, ic.pos})
		}
	}
	for ref := range b.rootRefs {
		for _, key := range funcsOf(ref, map[string]bool{}) {
			if n := b.nodes[key]; n != nil {
				n.Root = true
			}
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
