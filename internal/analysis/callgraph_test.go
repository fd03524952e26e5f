package analysis

import (
	"strings"
	"testing"
)

// edgeTo reports whether node n has an edge to target.
func edgeTo(n, target *CGNode) bool {
	for _, e := range n.Edges {
		if e.To == target {
			return true
		}
	}
	return false
}

// TestCallGraphStructure asserts on the graph the builder produces for the
// callgraph fixture: direct edges, interface-dispatch over-approximation,
// method-value and struct-field function flows, handler-root marking, and
// path rendering. The fixture has no want comments — the contract here is
// the graph shape, not rule findings.
func TestCallGraphStructure(t *testing.T) {
	_, pkgs := loadGolden(t, "callgraph", "acacia/x/callgraph")
	graph := NewProgram(pkgs).CallGraph()

	const pkg = "acacia/x/callgraph"
	// node finds the fixture's declared function with the given display
	// name.
	node := func(name string) *CGNode {
		t.Helper()
		for _, n := range graph.order {
			if n.Func != nil && n.Func.Pkg().Path() == pkg && n.Name == name {
				return n
			}
		}
		t.Fatalf("no node for %s", name)
		return nil
	}
	dispatch := node("callgraph.dispatch")

	// Interface dispatch over-approximates: d.Do() fans out to every
	// module-declared zero-parameter Do, on either receiver form.
	for _, callee := range []string{"(A).Do", "(*B).Do"} {
		if !edgeTo(dispatch, node(callee)) {
			t.Errorf("dispatch has no edge to %s; interface dispatch not over-approximated", callee)
		}
	}

	// A method value bound to a local and invoked resolves through the flow
	// map back to the method.
	if !edgeTo(node("callgraph.methodValue"), node("(*T).helper")) {
		t.Error("methodValue: f := t.helper; f() did not resolve to (*T).helper")
	}

	// A function stored into a struct field at construction (in fieldFlow)
	// and invoked through the field elsewhere (in runHook) resolves via the
	// field's flow key. U has a same-named, same-typed field: each call
	// reaches only the value stored into its own struct's field.
	runHook, runUHook := node("callgraph.runHook"), node("callgraph.runUHook")
	leaf, otherLeaf := node("callgraph.leaf"), node("callgraph.otherLeaf")
	if !edgeTo(runHook, leaf) || !edgeTo(runUHook, otherLeaf) {
		t.Error("a call through a struct field did not resolve to the function stored in it")
	}
	if edgeTo(runHook, otherLeaf) || edgeTo(runUHook, leaf) {
		t.Error("T.hook and U.hook share a flow key; a field call reached the other struct's value")
	}

	// The literal passed to Engine.Schedule in start is the fixture's only
	// handler root.
	var roots []*CGNode
	for _, n := range graph.Roots {
		if n.Pkg != nil && n.Pkg.Path == pkg {
			roots = append(roots, n)
		}
	}
	if len(roots) != 1 {
		t.Fatalf("fixture has %d handler roots, want exactly 1 (the Schedule literal)", len(roots))
	}
	root := roots[0]
	if root.Func != nil || !root.Root {
		t.Errorf("root is %q (Root=%v), want a literal node with Root set", root.Name, root.Root)
	}
	for _, callee := range []string{"callgraph.dispatch", "callgraph.methodValue", "callgraph.runHook"} {
		if !edgeTo(root, node(callee)) {
			t.Errorf("handler literal has no edge to %s", callee)
		}
	}

	// Reachability: everything the handler calls, transitively — including
	// (*B).Do, which only an impossible dispatch branch reaches; the
	// over-approximation keeps it in. unreached is never scheduled and must
	// stay out.
	order, parent := graph.HandlerReachable()
	reached := map[*CGNode]bool{}
	for _, n := range order {
		reached[n] = true
	}
	if !reached[root] {
		t.Error("the handler literal is not handler-reachable")
	}
	for _, name := range []string{
		"callgraph.dispatch", "(A).Do", "(*B).Do",
		"callgraph.methodValue", "(*T).helper",
		"callgraph.runHook", "callgraph.leaf",
	} {
		if !reached[node(name)] {
			t.Errorf("%s not handler-reachable, want reachable", name)
		}
	}
	for _, name := range []string{"callgraph.unreached", "callgraph.runUHook", "callgraph.otherLeaf"} {
		if reached[node(name)] {
			t.Errorf("%s is handler-reachable, want unreachable", name)
		}
	}

	// The parent chain renders a root-to-leaf path for diagnostics.
	path := graph.PathTo(parent, leaf)
	if !strings.Contains(path, " -> ") || !strings.HasSuffix(path, "leaf") {
		t.Errorf("PathTo(leaf) = %q, want a chain ending in leaf", path)
	}
}
