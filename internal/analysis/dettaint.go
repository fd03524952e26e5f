package analysis

import (
	"go/types"
	"sort"
)

// DetTaintRule is the interprocedural strengthening of wallclock and
// globalrand: instead of flagging direct calls per site, it walks the
// whole-program call graph from every sim.Engine event handler and reports
// any call chain that reaches a nondeterminism source — time.Now and
// friends (wall clock), math/rand's process-global draw functions, or the
// process environment (os.Getenv). A helper that wraps time.Now in a
// package the per-site rules don't govern (cmd/, examples/, the root
// package) launders nondeterminism into handler context invisibly to the
// syntactic rules; the call graph makes the laundering visible.
//
// The graph over-approximates (interface dispatch by name/arity,
// flow-insensitive function values), so a finding names the path it
// believes exists; a path that cannot happen at runtime is suppressed at
// the sink call site with //acacia:allow dettaint <why the path is dead>.
func DetTaintRule() *Rule {
	return &Rule{
		Name:       "dettaint",
		Doc:        "no call chain from a sim event handler may reach time.Now, global math/rand, or os.Getenv",
		RunProgram: runDetTaint,
	}
}

// sinkDescription classifies a call-graph callee as a nondeterminism sink:
// a package-level function of time, math/rand or os.
func sinkDescription(fn *types.Func) (string, bool) {
	if fn == nil || fn.Pkg() == nil || isMethod(fn) {
		return "", false
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	switch pkg {
	case "time":
		if wallClockFuncs[name] {
			return "time." + name + " reads or waits on the wall clock", true
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[name] {
			return pkg + "." + name + " draws from process-global random state", true
		}
	case "os":
		switch name {
		case "Getenv", "LookupEnv", "Environ":
			return "os." + name + " reads the process environment", true
		}
	}
	return "", false
}

func runDetTaint(p *ProgramPass) {
	graph := p.Prog.CallGraph()
	order, parent := graph.HandlerReachable()

	type finding struct {
		msg string
		CGEdge
		from *CGNode
	}
	var finds []finding
	seen := map[CGEdge]bool{}
	for _, n := range order {
		for _, e := range n.Edges {
			desc, ok := sinkDescription(e.To.Func)
			if !ok || seen[e] {
				continue
			}
			seen[e] = true
			finds = append(finds, finding{desc, e, n})
		}
	}
	// Deterministic report order regardless of BFS tie-breaks.
	sort.Slice(finds, func(i, j int) bool {
		if finds[i].Pos != finds[j].Pos {
			return finds[i].Pos < finds[j].Pos
		}
		return finds[i].To.id < finds[j].To.id
	})
	for _, f := range finds {
		p.Reportf(f.Pos,
			"%s but is reachable from a sim event handler (path: %s); handlers run in virtual time — use the engine clock and trial-seeded RNGs",
			f.msg, graph.PathTo(parent, f.from))
	}
}
