// Conservative windowed partitioning of the event loop (Chandy–Misra–Bryant
// applied to the ACACIA topology).
//
// A Cluster groups several Engines — one per partition — and advances them in
// lock-stepped windows. Each window the cluster computes the earliest pending
// timestamp Tmin across all partitions and lets every partition run its local
// events with timestamp strictly below Tmin + lookahead. The lookahead is the
// minimum latency of any cross-partition link, so an event executing inside
// the window can only schedule cross-partition work at or beyond the window
// limit — never into a window a peer partition has already executed. That is
// the classic conservative-synchronization safety argument, and SendTo
// enforces it at runtime: a cross send below the current limit panics instead
// of silently reordering.
//
// Cross-partition sends are buffered in per-(source, destination) outboxes
// and delivered at the window barrier, sorted by (timestamp, source
// partition, send order) and sequenced into the receiver's queue in that
// order. Because the outbox order is a pure function of each partition's
// deterministic event order, the injected sequence — and hence the full
// simulation — does not depend on the order partitions execute a window in.
// A window runs its partitions one after another on the calling goroutine.
// Partitions never share mutable state: each Engine owns its queue, clock,
// RNG, free-lists and telemetry registry.
package sim

import (
	"fmt"
	"sort"
	"time"
)

// xev is one buffered cross-partition event: a timestamped callback waiting
// in an outbox for the next window barrier.
type xev struct {
	at  Time
	fn  func()
	afn func(any)
	arg any
}

// partition ties an Engine to its Cluster.
type partition struct {
	c  *Cluster
	id int
}

// Cluster coordinates a set of partition Engines under conservative windowed
// synchronization. Partition 0 is the master engine passed to NewCluster
// (the EPC core + controller in the testbed); further partitions are created
// with AddPartition. The zero value is not usable.
type Cluster struct {
	seed  uint64
	parts []*Engine
	// out[src][dst] buffers cross-partition events sent by partition src to
	// partition dst during the current window; the barrier reads and clears
	// it.
	out [][][]xev
	// lookahead is the safe horizon: no cross-partition interaction can take
	// effect sooner than this after the event that caused it. It must be a
	// lower bound on the latency of every cross-partition link.
	lookahead Time
	// limit is the current window's exclusive upper bound, read by SendTo's
	// safety check. It is written only between windows (or before the run).
	limit Time
	now   Time
	inbox []xev // delivery scratch, reused between barriers
}

// NewCluster makes master partition 0 of a new cluster. seed should be the
// same configuration seed the master engine was built from; partition engine
// RNG streams are derived from it by label so that creating partitions never
// draws from — and therefore never perturbs — the master stream.
func NewCluster(master *Engine, seed uint64) *Cluster {
	if master.part != nil {
		panic("sim: engine already belongs to a cluster")
	}
	c := &Cluster{seed: seed}
	c.attach(master)
	return c
}

// AddPartition creates a new engine as the next partition. The label names
// the partition (an edge site, typically) and determinizes its RNG stream:
// the stream is a function of (seed, label) only, so adding partitions never
// perturbs the master engine's stream the way RNG.Fork — which advances its
// parent — would.
func (c *Cluster) AddPartition(label string) *Engine {
	e := NewEngine(labelSeed(c.seed, label))
	c.attach(e)
	return e
}

func (c *Cluster) attach(e *Engine) {
	e.part = &partition{c: c, id: len(c.parts)}
	c.parts = append(c.parts, e)
	for i := range c.out {
		c.out[i] = append(c.out[i], nil)
	}
	c.out = append(c.out, make([][]xev, len(c.parts)))
}

// labelSeed derives a partition seed from the configuration seed and a label
// (FNV-1a), mirroring how experiments derive sub-seeds.
func labelSeed(seed uint64, label string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return seed ^ h
}

// SetLookahead declares the safe horizon: a lower bound on the delay of any
// cross-partition interaction. Extract it from the network's minimum
// cross-partition link latency (netsim.MinCrossLatency). A cluster with more
// than one partition must set a positive lookahead before running.
func (c *Cluster) SetLookahead(d time.Duration) { c.lookahead = Time(d) }

// Now reports the cluster's virtual clock: the target of the last completed
// RunUntil/RunFor.
func (c *Cluster) Now() Time { return c.now }

// deliver drains every outbox into its destination partition's queue. Per
// destination, buffered events are ordered by (timestamp, source partition,
// send order) — the deterministic cross-partition tie-break — and sequenced
// into the receiver in that order. Runs only between windows.
func (c *Cluster) deliver() {
	for dst := range c.parts {
		box := c.inbox[:0]
		for src := range c.parts {
			row := c.out[src][dst]
			if len(row) == 0 {
				continue
			}
			box = append(box, row...)
			for i := range row {
				row[i] = xev{}
			}
			c.out[src][dst] = row[:0]
		}
		if len(box) == 0 {
			continue
		}
		// Stable: equal timestamps keep (source partition, send order).
		sort.SliceStable(box, func(i, j int) bool { return box[i].at < box[j].at })
		e := c.parts[dst]
		for i := range box {
			e.inject(box[i].at, box[i].fn, box[i].afn, box[i].arg)
			box[i] = xev{}
		}
		c.inbox = box[:0]
	}
}

// minNext returns the earliest pending timestamp across all partitions.
func (c *Cluster) minNext() (Time, bool) {
	best, ok := Time(0), false
	for _, e := range c.parts {
		if t, has := e.NextEventAt(); has && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// RunUntil executes events with timestamps <= target across all partitions,
// in conservative windows, then sets every partition clock (and the cluster
// clock) to target. It matches Engine.RunUntil semantics per partition.
//
// If any partition calls Stop mid-window the run ends at that window's
// barrier with clocks left where they are, like Engine.RunUntil under Stop.
func (c *Cluster) RunUntil(target Time) {
	if len(c.parts) > 1 && c.lookahead <= 0 {
		panic("sim: cluster with multiple partitions needs a positive lookahead")
	}
	for _, e := range c.parts {
		e.stopped = false
	}
	for {
		c.deliver()
		tmin, ok := c.minNext()
		if !ok || tmin > target {
			break
		}
		limit := tmin + c.lookahead
		// The +1 makes the exclusive window bound include events exactly at
		// target, matching Engine.RunUntil's inclusive <= target. A lone
		// partition has nothing to synchronize against, so it takes the whole
		// remaining range as one window regardless of lookahead.
		if len(c.parts) == 1 || limit < tmin || limit > target+1 {
			limit = target + 1
		}
		c.limit = limit
		for _, e := range c.parts {
			e.runBefore(limit)
		}
		for _, e := range c.parts {
			if e.stopped {
				return
			}
		}
	}
	for _, e := range c.parts {
		if e.now < target {
			e.now = target
		}
	}
	c.now = target
	c.limit = target + 1
}

// RunFor advances the cluster by d of virtual time from the cluster clock.
func (c *Cluster) RunFor(d time.Duration) { c.RunUntil(c.now.Add(d)) }

// --- Engine-side partition hooks ---

// runBefore executes local events with timestamps strictly below limit: the
// per-window work of one partition.
func (e *Engine) runBefore(limit Time) { e.run(limit - 1) }

// inject enqueues a barrier-delivered cross-partition event with a
// receiver-local sequence number. Injected events are pooled (they carry no
// outside handle, so they recycle like After events).
func (e *Engine) inject(at Time, fn func(), afn func(any), arg any) {
	if at < e.now {
		badTime(at, e.now)
	}
	e.enqueuePooled(at, fn, afn, arg)
}

// SendTo schedules fn(arg) on dst after delay d of virtual time. When dst is
// this engine it is exactly AfterArg. Otherwise both engines must belong to
// the same cluster and the event lands in the source partition's outbox for
// delivery at the next window barrier; the delivery time must be at or past
// the current window limit — i.e. d must be at least the cluster lookahead —
// or SendTo panics, because executing it would violate conservative
// synchronization.
//
//acacia:hotpath
func (e *Engine) SendTo(dst *Engine, d time.Duration, fn func(any), arg any) {
	if dst == e {
		e.AfterArg(d, fn, arg)
		return
	}
	if d < 0 {
		badDelay(d)
	}
	p := e.part
	if p == nil || dst.part == nil || p.c != dst.part.c {
		badCross()
	}
	at := e.now.Add(d)
	c := p.c
	if at < c.limit {
		badLookahead(at, c.limit)
	}
	c.out[p.id][dst.part.id] = append(c.out[p.id][dst.part.id], xev{at: at, afn: fn, arg: arg})
}

// CrossSchedule schedules fn on dst after delay d. When dst is this engine it
// behaves exactly like Schedule (sharing the sequence counter, so swapping a
// Schedule call for CrossSchedule never reorders a seeded run); cross-engine
// it buffers through the outbox like SendTo. Cross events cannot be
// cancelled, so no handle is returned.
func (e *Engine) CrossSchedule(dst *Engine, d time.Duration, fn func()) {
	if dst == e {
		e.Schedule(d, fn)
		return
	}
	if d < 0 {
		badDelay(d)
	}
	p := e.part
	if p == nil || dst.part == nil || p.c != dst.part.c {
		badCross()
	}
	at := e.now.Add(d)
	c := p.c
	if at < c.limit {
		badLookahead(at, c.limit)
	}
	c.out[p.id][dst.part.id] = append(c.out[p.id][dst.part.id], xev{at: at, fn: fn})
}

// Noinline for the same reason as badDelay: keep the panic-path boxing out
// of hotpath callers' escape profiles.
//
//go:noinline
func badCross() {
	panic("sim: cross-engine send between engines not in the same cluster")
}

//go:noinline
func badLookahead(at, limit Time) {
	panic(fmt.Sprintf("sim: cross-partition send at %v violates conservative window limit %v (delay shorter than cluster lookahead?)", at, limit))
}
