// Fixture for the call-graph builder itself: method values, interface
// dispatch over-approximation, parameter and field flows and handler-root
// marking.
// The companion callgraph_test.go asserts on the graph structure directly;
// no rule findings are expected here, so there are no want comments.
package callgraph

import (
	"time"

	"acacia/internal/sim"
)

type T struct {
	eng  *sim.Engine
	hook func()
}

type Doer interface{ Do() }

type A struct{}

func (A) Do() {}

type B struct{}

func (*B) Do() {}

// dispatch calls through a module-declared interface: the graph must
// over-approximate to every method named Do with zero parameters.
func dispatch(d Doer) { d.Do() }

// methodValue binds a method value to a local and invokes it: the flow map
// must resolve the invocation back to (*T).helper.
func methodValue(t *T) {
	f := t.helper
	f()
}

func (t *T) helper() {}

// fieldFlow stores a function into a struct field at construction and
// invokes it through the field elsewhere.
func fieldFlow(eng *sim.Engine) *T {
	return &T{eng: eng, hook: leaf}
}

func runHook(t *T) { t.hook() }

func leaf() {}

// U has a field of the same name and type as T's: a call through U.hook
// must reach only what was stored into U.hook.
type U struct{ hook func() }

func uFlow() *U { return &U{hook: otherLeaf} }

func runUHook(u *U) { u.hook() }

func otherLeaf() {}

// start roots the walk: the literal passed to Schedule is a handler, and
// everything it calls is handler-reachable.
func start(t *T) {
	t.eng.Schedule(time.Millisecond, func() {
		dispatch(A{})
		methodValue(t)
		runHook(t)
	})
}

// unreached is never called from a handler.
func unreached() { dispatch(&B{}) }
