package netsim

import (
	"time"

	"acacia/internal/pkt"
	"acacia/internal/sim"
)

// GreedyFlow is an iperf-style elastic sender: a window-based transport with
// slow start, AIMD congestion avoidance and timeout-based loss recovery. It
// ramps up until it fills the bottleneck, which is all the throughput
// experiments (Fig. 8, Fig. 3(d)) need from a transport.
type GreedyFlow struct {
	host    *Host
	dst     pkt.Addr
	dstPort uint16
	srcPort uint16
	size    int // segment size in bytes

	cwnd     float64 // congestion window in segments
	ssthresh float64
	nextSeq  int
	inFlight map[int]*greedyRTO // seq -> armed retransmit timer
	sentAt   map[int]sim.Time   // seq -> first-transmission time
	rto      time.Duration
	srtt     time.Duration // smoothed RTT (Jacobson/Karels)
	rttvar   time.Duration
	running  bool

	// AckedSegments counts cumulative successful deliveries.
	AckedSegments uint64
	// Retransmits counts loss events.
	Retransmits uint64

	// segs recycles segment payloads, which ride to the receiver and back
	// on the ACK turnaround; those on dropped packets are never put back.
	segs sim.Pool[greedySeg]
	// rtos recycles retransmit timers, each the argument of timeoutF.
	rtos     sim.Pool[greedyRTO]
	timeoutF func(any)
}

// greedySeg is the payload of both a data segment and (turned around by the
// receiver) its ACK.
type greedySeg struct {
	seq int
}

// greedyRTO is one armed retransmit timer of segment seq.
type greedyRTO struct {
	seq   int
	timer sim.Timer
}

// NewGreedyFlow creates a greedy sender from h to dst:dstPort with the given
// segment size. The receiver side must be created with NewGreedyReceiver on
// the destination host at dstPort.
func NewGreedyFlow(h *Host, dst pkt.Addr, dstPort, srcPort uint16, segSize int) *GreedyFlow {
	g := &GreedyFlow{
		host: h, dst: dst, dstPort: dstPort, srcPort: srcPort, size: segSize,
		cwnd: 2, ssthresh: 64, rto: 200 * time.Millisecond,
		inFlight: make(map[int]*greedyRTO),
		sentAt:   make(map[int]sim.Time),
	}
	g.timeoutF = g.timeout
	h.Listen(srcPort, AppFunc(func(_ *Host, p *Packet) {
		seg, ok := p.Payload.(*greedySeg)
		h.Node.Network().Release(p)
		if !ok {
			return
		}
		seq := seg.seq
		*seg = greedySeg{}
		g.segs.Put(seg)
		g.onAck(seq)
	}))
	return g
}

// Start begins transmission; the flow runs until Stop.
func (g *GreedyFlow) Start() {
	g.running = true
	g.pump()
}

// Stop halts transmission and cancels retransmit timers.
func (g *GreedyFlow) Stop() {
	g.running = false
	for _, r := range g.inFlight {
		r.timer.Cancel()
	}
	g.inFlight = make(map[int]*greedyRTO)
}

func (g *GreedyFlow) pump() {
	for g.running && len(g.inFlight) < int(g.cwnd) {
		g.sendSeg(g.nextSeq)
		g.nextSeq++
	}
}

func (g *GreedyFlow) sendSeg(seq int) {
	seg := g.segs.Take()
	seg.seq = seq
	g.host.Send(g.dst, g.srcPort, g.dstPort, pkt.ProtoTCP, g.size, seg)
	if old, ok := g.inFlight[seq]; ok {
		old.timer.Cancel()
		g.rtos.Put(old)
	} else {
		g.sentAt[seq] = g.host.Node.Engine().Now()
	}
	r := g.rtos.Take()
	r.seq = seq
	r.timer = g.host.Node.Engine().ScheduleArg(g.rto, g.timeoutF, r)
	g.inFlight[seq] = r
}

// updateRTO folds a fresh RTT measurement into the Jacobson/Karels
// estimator, keeping the retransmit timeout well above queue-inflated RTTs.
func (g *GreedyFlow) updateRTO(rtt time.Duration) {
	if g.srtt == 0 {
		g.srtt = rtt
		g.rttvar = rtt / 2
	} else {
		diff := g.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		g.rttvar = (3*g.rttvar + diff) / 4
		g.srtt = (7*g.srtt + rtt) / 8
	}
	// Factor-of-two headroom on srtt absorbs self-induced queueing during
	// window ramp-up, which a pure Jacobson estimator chases too slowly.
	g.rto = 2*g.srtt + 4*g.rttvar
	if g.rto < 200*time.Millisecond {
		g.rto = 200 * time.Millisecond
	}
}

func (g *GreedyFlow) onAck(seq int) {
	r, ok := g.inFlight[seq]
	if !ok {
		return // duplicate or post-timeout ack
	}
	r.timer.Cancel()
	g.rtos.Put(r)
	delete(g.inFlight, seq)
	if t0, ok := g.sentAt[seq]; ok {
		g.updateRTO(g.host.Node.Engine().Now().Sub(t0))
		delete(g.sentAt, seq)
	}
	g.AckedSegments++
	if g.cwnd < g.ssthresh {
		g.cwnd++ // slow start
	} else {
		g.cwnd += 1 / g.cwnd // congestion avoidance
	}
	if g.running {
		g.pump()
	}
}

// timeout fires a retransmit timer; sendSeg recycles its record.
func (g *GreedyFlow) timeout(v any) {
	seq := v.(*greedyRTO).seq
	if !g.running {
		return
	}
	if _, ok := g.inFlight[seq]; !ok {
		return
	}
	g.Retransmits++
	// Karn's algorithm: never sample RTT from a retransmitted segment.
	delete(g.sentAt, seq)
	g.ssthresh = g.cwnd / 2
	if g.ssthresh < 2 {
		g.ssthresh = 2
	}
	g.cwnd = g.ssthresh // fast-recovery-style halving, not full reset
	g.sendSeg(seq)
}

// Cwnd reports the current congestion window in segments.

// NewGreedyReceiver registers the receiving side of a greedy flow on h at
// port: it acknowledges every segment and exposes goodput via the returned
// sink (which counts segment bytes).
func NewGreedyReceiver(h *Host, port uint16) *Sink {
	s := &Sink{eng: h.Node.Engine()}
	h.Listen(port, AppFunc(func(hh *Host, p *Packet) {
		if _, ok := p.Payload.(*greedySeg); !ok {
			hh.Node.Network().Release(p)
			return
		}
		s.account(p)
		// Turn the segment packet around as its own ACK, payload included.
		p.Flow = p.Flow.Reverse()
		p.Size = 40 // ACK-sized
		p.Hops = 0
		p.QueueWait = 0
		hh.Node.Inject(p)
	}))
	return s
}
