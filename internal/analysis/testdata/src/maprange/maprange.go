// Fixture for the maprange rule.
package maprange

import (
	"fmt"
	"sort"
	"time"

	"acacia/internal/netsim"
	"acacia/internal/sim"
	"acacia/internal/telemetry"
)

func printsInMapOrder(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "fmt.Println inside range over map"
	}
}

func appendsInMapOrder(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "append to out inside range over map"
	}
	return out
}

// collectThenSort is the prescribed idiom: the append target is sorted
// after the loop, so the rule must stay silent.
func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// loopLocalAccumulator appends to a slice declared inside the loop body:
// it resets every iteration and cannot leak the key order.
func loopLocalAccumulator(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var doubled []int
		for _, v := range vs {
			doubled = append(doubled, 2*v)
		}
		total += len(doubled)
	}
	return total
}

func observesInMapOrder(reg *telemetry.Registry, m map[string]float64) {
	g := reg.Gauge("app/last-sample")
	for _, v := range m {
		g.Set(v) // want "telemetry Set inside range over map"
	}
}

func transmitsInMapOrder(peers map[string]*netsim.Port, p *netsim.Packet) {
	for _, pt := range peers {
		pt.Send(p) // want "netsim Send inside range over map"
	}
}

func injectsInMapOrder(nodes map[string]*netsim.Node, p *netsim.Packet) {
	for _, n := range nodes {
		n.Inject(p) // want "netsim Inject inside range over map"
	}
}

func drawsRNGInMapOrder(eng *sim.Engine, m map[string]int) float64 {
	total := 0.0
	for range m {
		total += eng.RNG().Float64() // want "engine RNG Float64 inside range over map"
	}
	return total
}

// sortedThenTransmit probes peers in sorted order: the prescribed idiom,
// so the rule must stay silent even though Send appears downstream of a
// map collection.
func sortedThenTransmit(peers map[string]*netsim.Port, p *netsim.Packet) {
	names := make([]string, 0, len(peers))
	for name := range peers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		peers[name].Send(p)
	}
}

func suppressed(m map[string]int) []string {
	var out []string
	for k := range m {
		//acacia:allow maprange caller re-sorts before rendering
		out = append(out, k)
	}
	return out
}

// idleCheck has the shape of an eNB inactivity check: the map range calls
// a module helper, and the packet send is one call further down.
type idleCheck struct {
	eng  *sim.Engine
	byIP map[string]*netsim.Port
	idle map[string]bool
}

func (c *idleCheck) requestRelease(pt *netsim.Port, p *netsim.Packet) { pt.Send(p) }

func (c *idleCheck) check(p *netsim.Packet) {
	for ip, pt := range c.byIP {
		if c.idle[ip] {
			c.requestRelease(pt, p) // want "path: \(\*idleCheck\)\.requestRelease -> \(\*Port\)\.Send"
		}
	}
}

// armTimer schedules through a helper two calls deep.
func (c *idleCheck) armTimer() { c.armIn(time.Second) }

func (c *idleCheck) armIn(d time.Duration) { c.eng.Schedule(d, func() {}) }

func (c *idleCheck) armAll() {
	for range c.byIP {
		c.armTimer() // want "reaches a packet send or event schedule.*armTimer -> .*armIn -> \(\*Engine\)\.Schedule"
	}
}

// countIdle calls a module helper that reaches neither a send nor a
// schedule, so the rule stays silent.
func (c *idleCheck) countIdle() int {
	n := 0
	for ip := range c.byIP {
		if c.isIdle(ip) {
			n++
		}
	}
	return n
}

func (c *idleCheck) isIdle(ip string) bool { return c.idle[ip] }
