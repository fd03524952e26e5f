package netsim

import (
	"time"

	"acacia/internal/pkt"
	"acacia/internal/sim"
	"acacia/internal/stats"
)

// App consumes packets delivered to a host port number.
type App interface {
	Deliver(h *Host, p *Packet)
}

// AppFunc adapts a function to the App interface.
type AppFunc func(h *Host, p *Packet)

// Deliver implements App.
func (f AppFunc) Deliver(h *Host, p *Packet) { f(h, p) }

// Host is an endpoint: it originates traffic and delivers received packets
// to registered applications by destination port. A single-homed host sends
// everything out its only link; multi-homed hosts (like the UE, which has
// one radio link but multiple bearers) install an Egress classifier.
type Host struct {
	Node *Node
	// apps demuxes by destination port; app0 backs it, so one app is free.
	apps []hostApp
	app0 [1]hostApp
	// Egress, when set, picks the egress port and may mutate the packet
	// (e.g. set Priority from the matching bearer's QCI). When nil, port 0
	// is used. This is where the UE modem's UL-TFT classification plugs in.
	Egress Classifier
}

type hostApp struct {
	port uint16
	app  App
}

// Classifier picks a multi-homed host's egress port for p, or nil to drop it.
type Classifier interface {
	ClassifyEgress(p *Packet) *Port
}

// NewHost wraps node with host behaviour and installs its handler.
func NewHost(node *Node) *Host { return new(Host).Init(node) }

// Init makes h, a zero Host (often embedded), node's host and handler.
func (h *Host) Init(node *Node) *Host {
	h.Node, h.apps = node, h.app0[:0]
	node.SetHandler(h)
	return h
}

// Listen registers app for packets to port, replacing any app there before.
func (h *Host) Listen(port uint16, app App) {
	for i := range h.apps {
		if h.apps[i].port == port {
			h.apps[i].app = app
			return
		}
	}
	h.apps = append(h.apps, hostApp{port, app})
}

// Send originates a packet from this host to dst with the given ports,
// protocol, wire size and payload. The packet comes from the network's pool
// and is recycled wherever its life ends (a drop, a terminal
// application).
//
//acacia:hotpath
func (h *Host) Send(dst pkt.Addr, srcPort, dstPort uint16, proto uint8, size int, payload any) {
	p := h.Node.NewPacket()
	p.Flow = pkt.FiveTuple{
		Src: h.Node.Addr(), Dst: dst,
		SrcPort: srcPort, DstPort: dstPort, Proto: proto,
	}
	p.Size = size
	p.Payload = payload
	h.Node.Inject(p)
}

// Handle is the node handler: a packet for this host goes to its port's app.
//
//acacia:hotpath
func (h *Host) Handle(ingress *Port, p *Packet) {
	if ingress == nil || p.Flow.Dst != h.Node.Addr() {
		// Locally originated, or transit traffic we must forward.
		h.egress(p)
		return
	}
	for i := range h.apps {
		if h.apps[i].port == p.Flow.DstPort {
			h.apps[i].app.Deliver(h, p)
			return
		}
	}
	h.Node.Network().Release(p)
}

func (h *Host) egress(p *Packet) {
	var port *Port
	if h.Egress != nil {
		port = h.Egress.ClassifyEgress(p)
	} else if len(h.Node.Ports()) > 0 {
		port = h.Node.Port(0)
	}
	if port == nil {
		h.Node.Network().Release(p)
		return
	}
	port.Send(p)
}

// --- Ping ---

// pingReq is the payload of an echo request.
type pingReq struct {
	seq    int
	sentAt sim.Time
}

// PingPort is the well-known port echo responders listen on.
const PingPort = 7

// PingResponder echoes any packet back to its sender, preserving size.
type PingResponder struct{}

// Deliver implements App. The request packet itself is turned around and
// reinjected as the reply — the hot echo path allocates nothing.
//
//acacia:hotpath
func (PingResponder) Deliver(h *Host, p *Packet) {
	p.Flow = p.Flow.Reverse()
	p.Hops = 0
	p.QueueWait = 0
	h.Node.Inject(p)
}

// Pinger sends periodic echo requests and records RTTs.
type Pinger struct {
	host     *Host
	dst      pkt.Addr
	size     int
	srcPort  uint16
	seq      int
	inFlight map[int]sim.Time
	// reqs recycles request payloads: boxing a *pingReq into
	// Packet.Payload is allocation-free, and the reply handler returns the
	// struct here.
	reqs sim.Pool[pingReq]
	// RTTs collects observed round-trip times in milliseconds, one per
	// answered request.
	RTTs stats.Sample
	// Sent counts requests.
	Sent   int
	ticker *sim.Ticker
}

// NewPinger creates a pinger on h towards dst with the given probe size.
// Register its receiving side before starting: the pinger listens on its
// source port for replies.
func NewPinger(h *Host, dst pkt.Addr, size int, srcPort uint16) *Pinger {
	pg := &Pinger{host: h, dst: dst, size: size, srcPort: srcPort, inFlight: make(map[int]sim.Time)}
	h.Listen(srcPort, AppFunc(func(_ *Host, p *Packet) {
		req, ok := p.Payload.(*pingReq)
		h.Node.Network().Release(p)
		if !ok {
			return
		}
		seq, sentAt := req.seq, req.sentAt
		*req = pingReq{}
		pg.reqs.Put(req)
		if _, pending := pg.inFlight[seq]; !pending {
			return
		}
		delete(pg.inFlight, seq)
		rtt := h.Node.Engine().Now().Sub(sentAt)
		pg.RTTs.Add(float64(rtt) / float64(time.Millisecond))
	}))
	return pg
}

// Start begins probing every interval.
func (pg *Pinger) Start(interval time.Duration) {
	pg.SendOne()
	pg.ticker = sim.NewTicker(pg.host.Node.Engine(), interval, pg.SendOne)
}

// SendOne sends a single probe immediately.
//
//acacia:hotpath
func (pg *Pinger) SendOne() {
	pg.seq++
	pg.Sent++
	pg.inFlight[pg.seq] = pg.host.Node.Engine().Now()
	req := pg.reqs.Take()
	req.seq, req.sentAt = pg.seq, pg.host.Node.Engine().Now()
	pg.host.Send(pg.dst, pg.srcPort, PingPort, pkt.ProtoICMP, pg.size, req)
}

// Stop halts probing.
func (pg *Pinger) Stop() {
	if pg.ticker != nil {
		pg.ticker.Stop()
	}
}

// --- Constant bit rate source ---

// CBRSource emits fixed-size packets at a constant bit rate, the background
// traffic generator for the congestion experiments.
type CBRSource struct {
	host    *Host
	dst     pkt.Addr
	dstPort uint16
	size    int
	ticker  *sim.Ticker
}

// NewCBRSource creates a source on h sending size-byte UDP packets to
// dst:dstPort.
func NewCBRSource(h *Host, dst pkt.Addr, dstPort uint16, size int) *CBRSource {
	return &CBRSource{host: h, dst: dst, dstPort: dstPort, size: size}
}

// Start begins emitting at bitsPerSecond. A zero rate is a no-op.
func (c *CBRSource) Start(bitsPerSecond float64) {
	if bitsPerSecond <= 0 {
		return
	}
	interval := time.Duration(float64(c.size*8) / bitsPerSecond * float64(time.Second))
	if interval <= 0 {
		interval = time.Nanosecond
	}
	c.ticker = sim.NewTicker(c.host.Node.Engine(), interval, func() {
		c.host.Send(c.dst, 30000, c.dstPort, pkt.ProtoUDP, c.size, nil)
	})
}

// Stop halts emission.
func (c *CBRSource) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
}

// --- Sink with throughput measurement ---

// Sink absorbs packets and measures goodput.
type Sink struct {
	Bytes   uint64
	Packets uint64
	first   sim.Time
	last    sim.Time
	eng     *sim.Engine
}

// NewSink registers a sink app on h at port and returns it.
func NewSink(h *Host, port uint16) *Sink {
	s := &Sink{eng: h.Node.Engine()}
	h.Listen(port, s)
	return s
}

// Deliver implements App: the packet is accounted and recycled.
//
//acacia:hotpath
func (s *Sink) Deliver(h *Host, p *Packet) {
	s.account(p)
	h.Node.Network().Release(p)
}

//acacia:hotpath
func (s *Sink) account(p *Packet) {
	if s.Packets == 0 {
		s.first = s.eng.Now()
	}
	s.last = s.eng.Now()
	s.Packets++
	s.Bytes += uint64(p.Size)
}

// ThroughputBps reports the average received rate between the first and
// last packet.
func (s *Sink) ThroughputBps() float64 {
	dur := s.last.Sub(s.first).Seconds()
	if dur <= 0 {
		return 0
	}
	return float64(s.Bytes*8) / dur
}
