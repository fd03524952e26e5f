package netsim

import (
	"math/bits"
	"time"

	"acacia/internal/sim"
	"acacia/internal/telemetry"
)

// LinkConfig describes one direction of a link.
type LinkConfig struct {
	// BitsPerSecond is the serialization rate. Zero means infinite
	// bandwidth (pure delay line).
	BitsPerSecond float64
	// Propagation is the one-way propagation delay.
	Propagation time.Duration
	// Jitter adds an exponentially distributed extra delay with this mean
	// to each delivery — the right-skewed scheduling jitter of an LTE
	// radio link. Zero disables it.
	Jitter time.Duration
	// QueueBytes bounds the transmit queue (drop-tail). Zero means a
	// generous default of 256 KiB.
	QueueBytes int
	// Prioritized selects QCI-priority scheduling instead of FIFO. The
	// eNodeB radio scheduler uses this; wired links are FIFO.
	Prioritized bool
	// LossProb drops each offered packet independently with this
	// probability, before queueing. Zero (the default) draws no random
	// numbers, so loss-free runs stay byte-identical with or without the
	// field. Loss-injection for robustness experiments.
	LossProb float64
}

// DefaultQueueBytes is the transmit queue bound applied when a LinkConfig
// leaves QueueBytes zero.
const DefaultQueueBytes = 256 << 10

func (cfg LinkConfig) withDefaults() LinkConfig {
	if cfg.QueueBytes == 0 {
		cfg.QueueBytes = DefaultQueueBytes
	}
	return cfg
}

// LinkStats counts per-direction link activity. A direction keeps it as a
// plain field; the link reports it to the engine's metrics registry when a
// snapshot is taken.
//
// Counter semantics: Sent counts packets accepted for transmission (queued
// behind the transmitter or put on the delay line); Dropped counts packets
// refused at the transmitter (down direction, injected loss, full queue).
// Every drop happens at offer time, so Sent + Dropped is the offered load
// (see Offered) and Sent − Delivered is the number of packets currently
// queued or in flight.
type LinkStats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Bytes     uint64
}

// Offered reports the total load offered to the transmitter: packets
// accepted (Sent) plus packets dropped at offer time (Dropped).
func (s LinkStats) Offered() uint64 { return s.Sent + s.Dropped }

// linkDir is one direction of a link: a single transmitter serving a bounded
// queue, followed by a propagation delay line. Its activity counts are
// plain fields; the link reports them under netsim/link/<n>/<src>-><dst>/.
type linkDir struct {
	net    *Network
	eng    *sim.Engine
	cfg    LinkConfig
	dst    *Port
	queue  laneQueue
	qBytes int // queued bytes awaiting transmission (the queue-bytes gauge)
	busy   bool
	down   bool
	stats  LinkStats

	// txDoneF/arriveF are method values bound once at construction and
	// passed to Engine.ScheduleArg, so per-packet scheduling allocates no
	// closures.
	txDoneF func(any)
	arriveF func(any)
}

func (d *linkDir) init(net *Network, cfg LinkConfig, dst *Port) {
	d.net, d.eng = net, net.eng
	d.cfg, d.dst = cfg.withDefaults(), dst
	d.txDoneF = d.txDone
	d.arriveF = d.arrive
}

// appendMetrics reports the direction under names, which are in
// linkMetricNames order.
func (d *linkDir) appendMetrics(dst []telemetry.Metric, names *[len(linkMetricNames)]string) []telemetry.Metric {
	return append(dst,
		telemetry.Metric{Name: names[0], Kind: telemetry.KindCounter, Count: d.stats.Bytes},
		telemetry.Metric{Name: names[1], Kind: telemetry.KindCounter, Count: d.stats.Delivered},
		telemetry.Metric{Name: names[2], Kind: telemetry.KindCounter, Count: d.stats.Dropped},
		telemetry.Metric{Name: names[3], Kind: telemetry.KindGauge, Value: float64(d.qBytes)},
		telemetry.Metric{Name: names[4], Kind: telemetry.KindCounter, Count: d.stats.Sent})
}

// send offers p to the transmitter. All drops (down direction, injected
// loss, full queue) happen here, before a packet counts as sent, keeping
// the LinkStats identities Sent + Dropped = offered and Sent − Delivered =
// queued + in flight.
//
//acacia:hotpath
func (d *linkDir) send(p *Packet) {
	if d.down {
		d.stats.Dropped++
		d.net.Release(p)
		return
	}
	if d.cfg.LossProb > 0 && d.eng.RNG().Float64() < d.cfg.LossProb {
		d.stats.Dropped++
		d.net.Release(p)
		return
	}
	if d.cfg.BitsPerSecond == 0 && !d.busy {
		// Pure delay line: no serialization, no queueing. The busy check
		// keeps delivery in arrival order while packets queued under a
		// previous finite-rate config are still draining (SetConfigAB
		// mid-run); until the drain completes, new arrivals queue behind.
		d.stats.Sent++
		d.stats.Bytes += uint64(p.Size)
		d.deliverAfter(p, d.cfg.Propagation)
		return
	}
	if d.qBytes+p.Size > d.cfg.QueueBytes {
		d.stats.Dropped++
		d.net.Release(p)
		return
	}
	d.stats.Sent++
	d.qBytes += p.Size
	prio := 0
	if d.cfg.Prioritized {
		prio = p.Priority
	}
	d.queue.push(prio, queuedPacket{p: p, enq: d.eng.Now()})
	if !d.busy {
		d.transmitNext()
	}
}

//acacia:hotpath
func (d *linkDir) transmitNext() {
	if d.queue.nonEmpty == 0 {
		d.busy = false
		return
	}
	d.busy = true
	item := d.queue.pop()
	p := item.p
	p.QueueWait += d.eng.Now().Sub(item.enq)
	d.qBytes -= p.Size
	// Zero BitsPerSecond means infinite bandwidth. A direction can be
	// reconfigured to it mid-run while packets queued under the previous
	// finite rate still wait: those drain here in queue order with zero
	// serialization time, instead of the +Inf division (and the garbage
	// schedule time.Duration(+Inf) produces) the old code hit.
	var txTime time.Duration
	if d.cfg.BitsPerSecond > 0 {
		txTime = time.Duration(float64(p.Size*8) / d.cfg.BitsPerSecond * float64(time.Second))
	}
	d.eng.ScheduleArg(txTime, d.txDoneF, p)
}

// txDone finishes one serialization: account the bytes, put the packet on
// the delay line and start the next transmission.
//
//acacia:hotpath
func (d *linkDir) txDone(v any) {
	p := v.(*Packet)
	d.stats.Bytes += uint64(p.Size)
	d.deliverAfter(p, d.cfg.Propagation)
	d.transmitNext()
}

//acacia:hotpath
func (d *linkDir) deliverAfter(p *Packet, delay time.Duration) {
	if d.cfg.Jitter > 0 {
		delay += time.Duration(d.eng.RNG().ExpFloat64() * float64(d.cfg.Jitter))
	}
	d.eng.ScheduleArg(delay, d.arriveF, p)
}

// arrive completes the propagation delay and hands the packet to the
// destination node.
//
//acacia:hotpath
func (d *linkDir) arrive(v any) {
	p := v.(*Packet)
	d.stats.Delivered++
	d.dst.deliver(p)
}

// Backlog reports the bytes currently waiting in the transmit queue.
func (d *linkDir) Backlog() int { return d.qBytes }

type queuedPacket struct {
	p   *Packet
	enq sim.Time
}

// maxLanes bounds a link's scheduling priorities to 0 (FIFO links; most
// urgent) through 15; QCI priorities are 1-10 (pkt.QCI.Priority).
const maxLanes = 16

// lane is one priority level's FIFO: items[head:] wait, popping advances
// head (see Node.cpuQueue for why it does not re-slice from the front).
type lane struct {
	items []queuedPacket
	head  int
}

// laneQueue is a direction's transmit queue: one FIFO lane per priority and
// a bitmask of the non-empty ones. Pop takes the head of the lowest set
// bit's lane, which is (priority, arrival) order in O(1) — also across a
// mid-run SetConfigAB toggling Prioritized, since a packet's lane is fixed
// at push. lanes grows to prio+1 on first use: most directions are delay
// lines that never queue, and a wired FIFO only ever has lane 0.
type laneQueue struct {
	lanes    []lane
	nonEmpty uint16
}

// push appends it to lane prio. A priority outside [0, maxLanes) is a
// caller bug and panics rather than being clamped into another class's lane.
//
//acacia:hotpath
func (q *laneQueue) push(prio int, it queuedPacket) {
	if uint(prio) >= uint(len(q.lanes)) {
		q.grow(prio)
	}
	l := &q.lanes[prio]
	l.items = append(l.items, it)
	q.nonEmpty |= 1 << prio
}

//go:noinline
func (q *laneQueue) grow(prio int) {
	if uint(prio) >= maxLanes {
		panic("netsim: link queue priority outside [0, 16)")
	}
	q.lanes = append(q.lanes, make([]lane, prio+1-len(q.lanes))...)
}

// pop removes the first-arrived packet of the most urgent non-empty lane.
//
//acacia:hotpath
func (q *laneQueue) pop() queuedPacket {
	prio := bits.TrailingZeros16(q.nonEmpty)
	l := &q.lanes[prio]
	it := l.items[l.head]
	l.head++
	// Same compaction rule as Node.serveCPU: a drained lane resets to [:0],
	// one that never drains holds at most a third more slots than packets.
	if 4*l.head >= len(l.items) {
		live := copy(l.items, l.items[l.head:])
		clear(l.items[live:])
		l.items = l.items[:live]
		l.head = 0
		if live == 0 {
			q.nonEmpty &^= 1 << prio
		}
	}
	return it
}

// Link is a bidirectional connection between two ports. Each direction has
// independent bandwidth, delay and queueing. The ports and directions live
// inside the link (A and B point at pa and pb), so Connect builds it with
// one allocation.
type Link struct {
	A, B   *Port
	ab, ba linkDir
	pa, pb Port

	// idx is the creation index, which tells parallel links between one
	// node pair apart in metric names; names are those names, built by the
	// first snapshot that reads the link.
	idx   int
	names *[2][len(linkMetricNames)]string
}

// linkMetricNames are a direction's metrics under
// netsim/link/<n>/<src>-><dst>/, in linkDir.appendMetrics order.
var linkMetricNames = [...]string{"bytes", "delivered", "dropped", "queue-bytes", "sent"}

// AppendMetrics reports both directions' counters and queue gauges: the
// link is the telemetry.Source Connect registers.
func (l *Link) AppendMetrics(dst []telemetry.Metric) []telemetry.Metric {
	if l.names == nil {
		l.names = new([2][len(linkMetricNames)]string)
		idx := "netsim/link/" + telemetry.Itoa(l.idx) + "/"
		a, b := l.A.Node.name, l.B.Node.name
		for i, prefix := range [2]string{idx + a + "->" + b + "/", idx + b + "->" + a + "/"} {
			for j, m := range linkMetricNames {
				l.names[i][j] = prefix + m
			}
		}
	}
	dst = l.ab.appendMetrics(dst, &l.names[0])
	return l.ba.appendMetrics(dst, &l.names[1])
}

// StatsAB reports counters for the A->B direction.
func (l *Link) StatsAB() LinkStats { return l.ab.stats }

// StatsBA reports counters for the B->A direction.
func (l *Link) StatsBA() LinkStats { return l.ba.stats }

// BacklogAB reports queued bytes in the A->B direction.
func (l *Link) BacklogAB() int { return l.ab.Backlog() }

// SetConfigAB replaces the A->B direction configuration. Used by
// experiments that vary emulated rate or RTT mid-run. Packets already
// queued keep their place and serialize under the new rate as they reach
// the transmitter; when the new rate is zero ("infinite"), they drain in
// queue order with zero serialization time, and fresh arrivals bypass the
// queue only once the drain has finished (arrival order is preserved).
func (l *Link) SetConfigAB(cfg LinkConfig) { l.ab.cfg = cfg.withDefaults() }

// SetConfigBA replaces the B->A direction configuration.
func (l *Link) SetConfigBA(cfg LinkConfig) { l.ba.cfg = cfg.withDefaults() }

// SetDown fails (true) or repairs (false) the link: while down, every
// packet offered in either direction is dropped at the transmitter.
// Packets already in flight are delivered. Failure-injection for tests and
// experiments.
func (l *Link) SetDown(down bool) {
	l.ab.down = down
	l.ba.down = down
}

// Down reports whether the link is currently failed.
func (l *Link) Down() bool { return l.ab.down }

// SetLoss injects independent per-packet loss with probability p in both
// directions. Zero restores lossless operation.
func (l *Link) SetLoss(p float64) {
	l.ab.cfg.LossProb = p
	l.ba.cfg.LossProb = p
}

// Port is one attachment point of a link on a node.
type Port struct {
	Node *Node
	// ID is the node-local port number (OpenFlow in_port).
	ID   int
	link *Link
	out  *linkDir // transmit direction away from this port
}

// Send transmits p out of this port.
func (pt *Port) Send(p *Packet) {
	if pt.out == nil {
		panicUnconnected(pt.Node.Name())
	}
	pt.out.send(p)
}

// panicUnconnected is noinline so the message concatenation stays out of
// hotpath callers' escape profiles.
//
//go:noinline
func panicUnconnected(node string) {
	panic("netsim: send on unconnected port " + node)
}

// Peer returns the port at the other end of the attached link.
func (pt *Port) Peer() *Port {
	if pt.link == nil {
		return nil
	}
	if pt.link.A == pt {
		return pt.link.B
	}
	return pt.link.A
}

// Link returns the attached link.
func (pt *Port) Link() *Link { return pt.link }

func (pt *Port) deliver(p *Packet) {
	pt.Node.receive(pt, p)
}
