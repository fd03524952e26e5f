package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapRangeRule enforces the ordered-output contract: Go randomizes map
// iteration order, so a `for … range` over a map whose body feeds ordered
// sinks — appending to a result slice, printing, or observing telemetry —
// produces different bytes on every run. The fix is the collect-sort-index
// idiom: gather the keys, sort them, then iterate the sorted slice. The
// rule recognizes that idiom (a key-collecting append whose target is
// sorted later in the same function) and stays quiet for it. A call to a
// module function is judged through the whole-program call graph: it is
// flagged if any chain from it reaches a packet send or an engine
// schedule.
func MapRangeRule() *Rule {
	return &Rule{
		Name: "maprange",
		Doc:  "map iteration feeding slices, output or telemetry must sort keys first",
		Run:  runMapRange,
	}
}

func runMapRange(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := p.Info.Types[rng.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRangeBody(p, file, rng)
			return true
		})
	}
}

// printMethodNames flag method calls that emit ordered output regardless
// of receiver ("Error" alone is excluded: it collides with the error
// interface; the testing-package variants are caught type-gated below).
var printMethodNames = map[string]bool{
	"Print":       true,
	"Printf":      true,
	"Println":     true,
	"WriteString": true,
}

// testingLogNames are the *testing.T/B/F reporters whose call order shows
// up in test output.
var testingLogNames = map[string]bool{
	"Error": true, "Errorf": true,
	"Fatal": true, "Fatalf": true,
	"Log": true, "Logf": true,
	"Skip": true, "Skipf": true,
}

// telemetryObserveNames mutate or emit telemetry; doing so in map order
// perturbs gauges (last write wins) and the event timeline.
var telemetryObserveNames = map[string]bool{
	"Inc": true, "Add": true, "Set": true, "Observe": true, "Emit": true,
}

// netsimSendNames transmit packets; enqueue order (and any jitter/loss RNG
// draws downstream) following map order breaks byte-identical replays.
var netsimSendNames = map[string]bool{
	"Send": true, "Inject": true,
}

// rngDrawNames consume the engine's deterministic RNG stream; drawing in
// map order permutes the stream for every consumer that follows.
var rngDrawNames = map[string]bool{
	"Uint64": true, "Float64": true, "Intn": true,
	"NormFloat64": true, "ExpFloat64": true, "Perm": true, "Fork": true,
}

func checkMapRangeBody(p *Pass, file *ast.File, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkMapRangeCall(p, n)
		case *ast.AssignStmt:
			checkMapRangeAppend(p, file, rng, n)
		}
		return true
	})
}

// checkMapRangeCall flags ordered-output and telemetry calls inside the
// map-range body.
func checkMapRangeCall(p *Pass, call *ast.CallExpr) {
	fn := calleeFunc(p.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	name, pkgPath := fn.Name(), fn.Pkg().Path()
	switch {
	case pkgPath == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")):
		p.Reportf(call.Pos(),
			"fmt.%s inside range over map prints in nondeterministic key order; sort the keys first", name)
	case pkgPath == "testing" && testingLogNames[name]:
		p.Reportf(call.Pos(),
			"t.%s inside range over map reports in nondeterministic key order; sort the keys first", name)
	case strings.HasSuffix(pkgPath, "internal/telemetry") && telemetryObserveNames[name] && isMethod(fn):
		p.Reportf(call.Pos(),
			"telemetry %s inside range over map observes in nondeterministic key order; sort the keys first", name)
	case strings.HasSuffix(pkgPath, "internal/netsim") && netsimSendNames[name] && isMethod(fn):
		p.Reportf(call.Pos(),
			"netsim %s inside range over map transmits in nondeterministic key order; sort the keys first", name)
	case strings.HasSuffix(pkgPath, "internal/sim") && rngDrawNames[name] && isMethod(fn):
		p.Reportf(call.Pos(),
			"engine RNG %s inside range over map draws in nondeterministic key order; sort the keys first", name)
	case printMethodNames[name] && isMethod(fn):
		p.Reportf(call.Pos(),
			"%s inside range over map writes in nondeterministic key order; sort the keys first", name)
	case isModulePath(p.prog, pkgPath):
		// The send or schedule may sit any number of calls away.
		if path, ok := p.prog.CallGraph().OrderedEffectPath(fn); ok {
			p.Reportf(call.Pos(),
				"call inside range over map reaches a packet send or event schedule in nondeterministic key order (path: %s); iterate in a fixed order", path)
		}
	}
}

// checkMapRangeAppend flags `s = append(s, …)` onto a slice declared
// outside the loop — unless s is sorted later in the same function, which
// is exactly the collect-then-sort idiom the contract prescribes.
func checkMapRangeAppend(p *Pass, file *ast.File, rng *ast.RangeStmt, assign *ast.AssignStmt) {
	for i, rhs := range assign.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltinAppend(p.Info, call) || i >= len(assign.Lhs) {
			continue
		}
		target := objectOf(p.Info, assign.Lhs[i])
		if target == nil {
			continue
		}
		// Loop-local accumulators reset every iteration; only slices that
		// outlive the loop leak the iteration order.
		if target.Pos() >= rng.Pos() && target.Pos() < rng.End() {
			continue
		}
		if sortedAfter(p, file, rng, target) {
			continue
		}
		p.Reportf(call.Pos(),
			"append to %s inside range over map records nondeterministic key order; sort %s afterwards or iterate sorted keys",
			target.Name(), target.Name())
	}
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func isMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// sortFuncs lists the sorting entry points that launder a key-collection
// back into deterministic order, by package path.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortedAfter reports whether the enclosing function sorts target after
// the range statement completes.
func sortedAfter(p *Pass, file *ast.File, rng *ast.RangeStmt, target types.Object) bool {
	body := funcFor(file, rng.Pos())
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
			return true
		}
		if names, ok := sortFuncs[fn.Pkg().Path()]; !ok || !names[fn.Name()] {
			return true
		}
		if objectOf(p.Info, call.Args[0]) == target {
			found = true
			return false
		}
		return true
	})
	return found
}
