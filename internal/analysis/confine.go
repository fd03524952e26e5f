package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// PartitionConfineRule turns the cluster's runtime confinement panics
// (DESIGN.md §3g: SendTo/CrossSchedule window checks) into compile-time
// findings. In partitioned runs every handler executes on one partition's
// engine, and the only sanctioned ways to affect another partition are
// Engine.SendTo, Engine.CrossSchedule and the netsim links built on them. The rule therefore inspects every function
// reachable from an event handler (per the whole-program call graph) and
// flags:
//
//   - cluster control from handler context: calls to sim.Cluster methods
//     (AddPartition, RunUntil, RunFor, SetLookahead) or NewCluster — a
//     handler adding or advancing partitions is either re-entrant or about
//     to touch foreign state;
//   - one handler body making local-effect calls on engines rooted at two
//     different access paths: scheduling on both m.eng and peer.eng in one
//     handler is exactly the cross-partition write the outbox APIs exist
//     to mediate.
//
// The check is an over-approximation: two roots may alias the same engine
// at runtime (same-partition collaborators), in which case the site is
// suppressed with //acacia:allow partition-confine <why both engines are
// one partition>. internal/sim (the engine itself) is exempt.
func PartitionConfineRule() *Rule {
	return &Rule{
		Name:       "partition-confine",
		Doc:        "handler-reachable code must not touch other partitions' engines outside SendTo/CrossSchedule",
		RunProgram: runPartitionConfine,
	}
}

// localEffectMethods are the sim.Engine methods whose effect lands on the
// receiver engine itself: scheduling, clock/RNG/metrics reads, and run
// control. SendTo and CrossSchedule are deliberately absent — they are the
// sanctioned cross-partition APIs.
var localEffectMethods = map[string]bool{
	"Schedule":    true,
	"ScheduleAt":  true,
	"ScheduleArg": true,
	"After":       true,
	"AfterArg":    true,
	"Now":         true,
	"RNG":         true,
	"Metrics":     true,
	"Run":         true,
	"RunUntil":    true,
	"RunFor":      true,
	"Stop":        true,
}

// clusterControlFuncs are the sim.Cluster entry points (plus NewCluster)
// that make sense only from the driver, never from inside a handler.
var clusterControlFuncs = map[string]bool{
	"AddPartition": true,
	"RunUntil":     true,
	"RunFor":       true,
	"SetLookahead": true,
}

func runPartitionConfine(p *ProgramPass) {
	graph := p.Prog.CallGraph()
	order, _ := graph.HandlerReachable()

	// Only the handler-reachable bodies themselves are handler context. The
	// enclosing declaration is often a driver that merely defines handler
	// literals inline — its own statements (building the cluster, advancing
	// it) are exactly what drivers are for and must not be judged by handler
	// rules. Aliases are still resolved over the whole enclosing
	// declaration, because handler closures capture locals like
	// `ueEng := ueN.Engine()` bound outside.
	var nodes []*CGNode
	for _, n := range order {
		if n.Body == nil || n.Pkg == nil {
			continue
		}
		base := strings.TrimSuffix(n.Pkg.Path, "_test")
		if isSimPkg(base) {
			continue
		}
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Body.Pos() < nodes[j].Body.Pos() })
	// Drop nodes nested inside an already-kept body: a literal defined in a
	// handler function is scanned along with its parent.
	var kept []*CGNode
	for _, n := range nodes {
		nested := false
		for _, k := range kept {
			if k.Pkg == n.Pkg && n.Body.Pos() >= k.Body.Pos() && n.Body.End() <= k.Body.End() {
				nested = true
				break
			}
		}
		if !nested {
			kept = append(kept, n)
		}
	}

	for _, n := range kept {
		checkConfinement(p, n)
	}
}

// baseKey renders the rooted access path an engine expression is reached
// through — "tb@1234.eng", "a@88.nodes[i].Engine()" — with field selection
// kept in the key, so a.eng and a.peer count as different engines even
// though both chains root at a. Local aliases are resolved at record time:
// after `eng := a.eng`, uses of eng and of a.eng compare equal. An empty
// key means the expression is not a trackable path (e.g. an engine returned
// by an arbitrary call).
func baseKey(info *types.Info, aliases map[types.Object]string, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return ""
		}
		if k, ok := aliases[obj]; ok {
			return k
		}
		return fmt.Sprintf("%s@%d", obj.Name(), obj.Pos())
	case *ast.SelectorExpr:
		k := baseKey(info, aliases, e.X)
		if k == "" {
			return ""
		}
		return k + "." + e.Sel.Name
	case *ast.IndexExpr:
		// Distinct indices collapse to one key: engines[0] and engines[1]
		// compare equal. That direction of imprecision suppresses rather
		// than invents findings, which multi-base can afford.
		k := baseKey(info, aliases, e.X)
		if k == "" {
			return ""
		}
		return k + "[i]"
	case *ast.StarExpr:
		return baseKey(info, aliases, e.X)
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			k := baseKey(info, aliases, sel.X)
			if k == "" {
				return ""
			}
			return k + "." + sel.Sel.Name + "()"
		}
		return ""
	default:
		return ""
	}
}

// isEngineMethod reports whether fn is a method on sim.Engine.
func isEngineMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || fn.Pkg() == nil || !isSimPkg(fn.Pkg().Path()) {
		return false
	}
	return recvString(sig.Recv().Type()) == "(*Engine)"
}

// isClusterMethod reports whether fn is a method on sim.Cluster.
func isClusterMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || fn.Pkg() == nil || !isSimPkg(fn.Pkg().Path()) {
		return false
	}
	return recvString(sig.Recv().Type()) == "(*Cluster)"
}

// isEngineExpr reports whether expr has type *sim.Engine.
func isEngineExpr(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	ptr, ok := tv.Type.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Engine" && named.Obj().Pkg() != nil && isSimPkg(named.Obj().Pkg().Path())
}

// checkConfinement inspects one handler-reachable body for
// partition-confinement violations.
func checkConfinement(p *ProgramPass, node *CGNode) {
	pkg := node.Pkg
	info := pkg.Info
	var aliasScope ast.Node = node.Decl
	if aliasScope == nil {
		aliasScope = node.Body
	}

	// Pass 1: local engine aliases (eng := x.eng), so base comparison
	// survives the common pull-the-field-into-a-local idiom. Runs over the
	// whole enclosing declaration — captures bind outside the handler body.
	aliases := map[types.Object]string{}
	ast.Inspect(aliasScope, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			if !isEngineExpr(info, as.Rhs[i]) {
				continue
			}
			lhs := objectOf(info, as.Lhs[i])
			if lhs == nil {
				continue
			}
			if k := baseKey(info, aliases, as.Rhs[i]); k != "" {
				aliases[lhs] = k
			}
		}
		return true
	})

	// Pass 2: local-effect and cluster-control call sites.
	type engineUse struct {
		base  string
		chain string
		pos   ast.Node
		name  string
	}
	var uses []engineUse
	ast.Inspect(node.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		if isClusterMethod(fn) && clusterControlFuncs[fn.Name()] {
			p.Reportf(call.Pos(),
				"sim.Cluster.%s called from event-handler context; partition control belongs to the driver, handlers interact through SendTo/CrossSchedule",
				fn.Name())
			return true
		}
		if fn.Pkg() != nil && isSimPkg(fn.Pkg().Path()) && fn.Name() == "NewCluster" {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
				p.Reportf(call.Pos(), "sim.NewCluster called from event-handler context; clusters are built by the driver before the run")
				return true
			}
		}
		if !isEngineMethod(fn) || !localEffectMethods[fn.Name()] {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base := baseKey(info, aliases, sel.X)
		if base == "" {
			return true
		}
		uses = append(uses, engineUse{base: base, chain: exprString(sel.X), pos: call, name: fn.Name()})
		return true
	})

	if len(uses) < 2 {
		return
	}
	first := uses[0]
	for _, u := range uses[1:] {
		if u.base == first.base {
			continue
		}
		p.Reportf(u.pos.Pos(),
			"Engine.%s on %s, but this handler also drives engine %s; one handler runs on one partition — cross-partition work must go through SendTo/CrossSchedule (or suppress with a reason if both are one engine)",
			u.name, u.chain, first.chain)
	}
}

// exprString renders a (small) receiver chain for diagnostics.
func exprString(expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	default:
		return "<expr>"
	}
}
