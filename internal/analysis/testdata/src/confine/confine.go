// Fixture for the partition-confinement rule, loaded under the import path
// acacia/x/confine. Handler bodies must drive exactly one partition's
// engine; the driver code around them may do anything.
package confine

import (
	"time"

	"acacia/internal/sim"
)

type app struct {
	eng  *sim.Engine // this partition
	peer *sim.Engine // another partition
}

// Start's closure is an event handler. Scheduling on the captured a.eng is
// local; scheduling on a.peer from the same handler is the cross-partition
// write SendTo exists for. Field selection must separate the two even
// though both chains root at a.
func (a *app) Start() {
	a.eng.Schedule(time.Millisecond, func() {
		a.eng.After(time.Millisecond, a.tick)
		a.peer.After(time.Millisecond, a.tick) // want "also drives engine"
	})
}

// StartAliased is Start with both engines pulled into locals first: the
// alias map must trace eng back to a.eng and other back to a.peer.
func (a *app) StartAliased() {
	eng := a.eng
	other := a.peer
	eng.Schedule(time.Millisecond, func() {
		_ = eng.Now()
		other.After(time.Millisecond, a.tick) // want "also drives engine"
	})
}

// StartSuppressed documents a topology where both fields hold the same
// engine, so the multi-base finding is suppressed with a reason.
func (a *app) StartSuppressed() {
	a.eng.Schedule(time.Millisecond, func() {
		_ = a.eng.Now()
		//acacia:allow partition-confine fixture: both fields alias one engine in this topology
		a.peer.After(time.Millisecond, a.tick)
	})
}

func (a *app) tick() {}

// Control reaches for the cluster from inside a handler: growing and
// advancing it belong to the driver.
func Control(c *sim.Cluster, eng *sim.Engine) {
	eng.Schedule(time.Millisecond, func() {
		c.AddPartition("late") // want "sim.Cluster.AddPartition called from event-handler context"
		c.RunFor(time.Second)  // want "sim.Cluster.RunFor called from event-handler context"
	})
}

// Driver is the legal counterpart: the same calls outside any handler body
// must not be flagged, even though this function lexically contains a
// handler literal.
func Driver(master *sim.Engine) {
	c := sim.NewCluster(master, 1)
	p0 := c.AddPartition("p0")
	p1 := c.AddPartition("p1")
	p0.Schedule(time.Millisecond, func() { _ = p0.Now() })
	p1.Schedule(time.Millisecond, func() { _ = p1.Now() })
	c.SetLookahead(time.Millisecond)
	c.RunFor(time.Second)
}
