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

// linkDir is one direction of a link: a single transmitter serving a bounded
// queue, followed by a propagation delay line. Its activity counts are
// plain fields; the link reports them under netsim/link/<n>/<src>-><dst>/.
//
// A FIFO, jitter-free direction runs a lazily settled transmitter: lane 0
// of queue holds every accepted, undelivered packet in order. Its first
// nFlight entries have started serializing, and their enq field holds
// their arrival time at dst; the rest wait, and enq holds their enqueue
// time. settle starts the waiting ones whose turn has come, and the one
// armed engine event per direction delivers the head: one event per packet
// per hop. Prioritized and jittered directions run the event path instead:
// a txDone event at the end of each serialization and an arrive event per
// packet. A direction's config is fixed when Connect builds the link, so
// it keeps one path for life.
type linkDir struct {
	net    *Network
	cfg    LinkConfig
	dst    *Port
	queue  laneQueue
	qBytes int // queued bytes awaiting transmission (the queue-bytes gauge)
	// busyUntil is when the lazy transmitter finishes the last packet it
	// started.
	busyUntil sim.Time
	// busy: the event path has a packet in service (tx). armed: the lazy
	// head's arrival event is pending.
	busy, down, armed bool
	nFlight           int32
	stats             LinkStats

	// tx is the event path's packet in service; txDone reads it. arriveF
	// is arrive bound once at construction and passed to
	// Engine.ScheduleArg, so per-packet scheduling allocates no closures.
	tx      *Packet
	arriveF func(any)
}

func (d *linkDir) init(net *Network, cfg LinkConfig, dst *Port) {
	d.net = net
	d.cfg, d.dst = cfg.withDefaults(), dst
	d.arriveF = d.arrive
}

// appendMetrics reports the direction under names, which are in
// linkMetricNames order.
func (d *linkDir) appendMetrics(dst []telemetry.Metric, names *[len(linkMetricNames)]string) []telemetry.Metric {
	st := d.read()
	return append(dst,
		telemetry.Metric{Name: names[0], Kind: telemetry.KindCounter, Count: st.Bytes},
		telemetry.Metric{Name: names[1], Kind: telemetry.KindCounter, Count: st.Delivered},
		telemetry.Metric{Name: names[2], Kind: telemetry.KindCounter, Count: st.Dropped},
		telemetry.Metric{Name: names[3], Kind: telemetry.KindGauge, Value: float64(d.qBytes)},
		telemetry.Metric{Name: names[4], Kind: telemetry.KindCounter, Count: st.Sent})
}

// read settles the lazy transmitter and reports the counters as the event
// path keeps them: Bytes counts a packet once it has been serialized, so
// the one still serializing is left out.
func (d *linkDir) read() LinkStats {
	if d.nFlight == 0 {
		return d.stats
	}
	now := d.net.eng.Now()
	d.settle(now)
	st := d.stats
	if d.busyUntil > now {
		st.Bytes -= uint64(d.queue.lanes[0].At(int(d.nFlight) - 1).p.Size)
	}
	return st
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
	if d.cfg.LossProb > 0 && d.net.eng.RNG().Float64() < d.cfg.LossProb {
		d.stats.Dropped++
		d.net.Release(p)
		return
	}
	if d.cfg.BitsPerSecond == 0 {
		// Pure delay line: no serialization, no queueing.
		d.stats.Sent++
		d.stats.Bytes += uint64(p.Size)
		d.deliverAfter(p, d.cfg.Propagation)
		return
	}
	lazy := !d.cfg.Prioritized && d.cfg.Jitter == 0
	now := d.net.eng.Now()
	if lazy {
		d.settle(now)
	}
	if d.qBytes+p.Size > d.cfg.QueueBytes {
		d.stats.Dropped++
		d.net.Release(p)
		return
	}
	d.stats.Sent++
	d.qBytes += p.Size
	if lazy {
		d.queue.push(0, queuedPacket{p: p, enq: now})
		if !d.armed {
			// The queue was empty, so p starts now.
			d.settle(now)
			d.arm(now)
		}
		return
	}
	prio := 0
	if d.cfg.Prioritized {
		prio = int(p.Priority)
	}
	d.queue.push(prio, queuedPacket{p: p, enq: now})
	if !d.busy {
		d.transmitNext()
	}
}

// settle starts, in order, every waiting packet whose transmission begins
// by now: at its enqueue time, or when the transmitter finishes the packet
// ahead. A waiting packet was enqueued by now, so one starts exactly when
// the transmitter is free by now. Each one's wait, bytes and arrival time
// are what the event path would give it, from the same arithmetic.
//
//acacia:hotpath
func (d *linkDir) settle(now sim.Time) {
	if d.queue.nonEmpty == 0 {
		return
	}
	l := &d.queue.lanes[0]
	for n := int(d.nFlight); n < l.Len() && d.busyUntil <= now; n++ {
		it := l.At(n)
		start := max(it.enq, d.busyUntil)
		p := it.p
		p.QueueWait += start.Sub(it.enq)
		d.qBytes -= p.Size
		d.busyUntil = start.Add(d.txTime(p))
		it.enq = d.busyUntil.Add(d.cfg.Propagation)
		d.stats.Bytes += uint64(p.Size)
		d.nFlight++
	}
}

// arm schedules the head packet's arrival, if one has started.
//
//acacia:hotpath
func (d *linkDir) arm(now sim.Time) {
	if d.nFlight == 0 {
		return
	}
	d.armed = true
	d.net.eng.ScheduleArg(d.queue.lanes[0].At(0).enq.Sub(now), linkLand, d)
}

// linkLand is the armed arrival's callback: a package-level function, so
// arming binds no method value.
func linkLand(v any) { v.(*linkDir).land() }

// land delivers the lazy head: it settles the transmitter, arms the next
// arrival and hands the packet to the destination node.
//
//acacia:hotpath
func (d *linkDir) land() {
	d.armed = false
	it := d.queue.pop()
	d.nFlight--
	now := d.net.eng.Now()
	d.settle(now)
	d.arm(now)
	d.stats.Delivered++
	d.dst.deliver(it.p)
}

// txTime is p's serialization time on a finite-rate direction.
//
//acacia:hotpath
func (d *linkDir) txTime(p *Packet) time.Duration {
	return time.Duration(float64(p.Size*8) / d.cfg.BitsPerSecond * float64(time.Second))
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
	p.QueueWait += d.net.eng.Now().Sub(item.enq)
	d.qBytes -= p.Size
	d.tx = p
	d.net.eng.ScheduleArg(d.txTime(p), linkTxDone, d)
}

// linkTxDone is the event path's serialization callback, package-level
// like linkLand.
func linkTxDone(v any) { v.(*linkDir).txDone() }

// txDone finishes one serialization: account the bytes, put the packet on
// the delay line and start the next transmission.
//
//acacia:hotpath
func (d *linkDir) txDone() {
	p := d.tx
	d.tx = nil
	d.stats.Bytes += uint64(p.Size)
	d.deliverAfter(p, d.cfg.Propagation)
	d.transmitNext()
}

//acacia:hotpath
func (d *linkDir) deliverAfter(p *Packet, delay time.Duration) {
	if d.cfg.Jitter > 0 {
		delay += time.Duration(d.net.eng.RNG().ExpFloat64() * float64(d.cfg.Jitter))
	}
	d.net.eng.ScheduleArg(delay, d.arriveF, p)
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

// queuedPacket is a queued packet and its enqueue time; on the lazy path,
// once the packet has started, enq holds its arrival time instead.
type queuedPacket struct {
	p   *Packet
	enq sim.Time
}

// maxLanes bounds a link's scheduling priorities to 0 (FIFO links; most
// urgent) through 15; QCI priorities are 1-10 (pkt.QCI.Priority).
const maxLanes = 16

// laneQueue is a direction's transmit queue: one FIFO lane per priority and
// a bitmask of the non-empty ones. Pop takes the head of the lowest set
// bit's lane, which is (priority, arrival) order in O(1). lanes grows to
// prio+1 on first use: most directions are delay lines that never queue,
// and a wired FIFO only ever has lane 0.
type laneQueue struct {
	lanes    []FIFO[queuedPacket]
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
	q.lanes[prio].Push(it)
	q.nonEmpty |= 1 << prio
}

//go:noinline
func (q *laneQueue) grow(prio int) {
	if uint(prio) >= maxLanes {
		panic("netsim: link queue priority outside [0, 16)")
	}
	q.lanes = append(q.lanes, make([]FIFO[queuedPacket], prio+1-len(q.lanes))...)
}

// pop removes the first-arrived packet of the most urgent non-empty lane.
//
//acacia:hotpath
func (q *laneQueue) pop() queuedPacket {
	prio := bits.TrailingZeros16(q.nonEmpty)
	l := &q.lanes[prio]
	it := l.Pop()
	if l.Len() == 0 {
		q.nonEmpty &^= 1 << prio
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
func (l *Link) StatsAB() LinkStats { return l.ab.read() }

// StatsBA reports counters for the B->A direction.
func (l *Link) StatsBA() LinkStats { return l.ba.read() }

// BacklogAB reports queued bytes in the A->B direction.
func (l *Link) BacklogAB() int {
	l.ab.read()
	return l.ab.qBytes
}

// SetDown fails (true) or repairs (false) the link: while down, every
// packet offered in either direction is dropped at the transmitter.
// Packets already in flight are delivered. Failure-injection for tests and
// experiments.
func (l *Link) SetDown(down bool) {
	l.ab.down = down
	l.ba.down = down
}

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

func (pt *Port) deliver(p *Packet) {
	pt.Node.receive(pt, p)
}
