package sdn

import (
	"fmt"
	"time"

	"acacia/internal/ctl"
	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sim"
	"acacia/internal/telemetry"
)

// PacketInHandler reacts to a table miss: it receives the switch, ingress
// port, the (already decapsulated) packet and the tunnel metadata it
// carried. The packet is the controller's to keep — buffer-and-page logic
// re-injects it after installing state, and a handler that keeps nothing
// releases it. Experiments without reactive setup may leave the handler nil
// (misses are then dropped and released).
type PacketInHandler func(sw *Switch, inPort uint32, p *netsim.Packet, tunnelID uint64)

// Controller is the OpenFlow controller (the testbed's Ryu analog extended
// with GTP flow management). It serializes every message it exchanges with
// its switches so the control-plane byte accounting reflects real
// encodings.
type Controller struct {
	// RTT is the propagation delay of each switch's control link, one way
	// (the controller usually sits next to the GW-Us). Set it before
	// EnableTransport wires the links.
	RTT time.Duration

	switches map[uint64]*Switch
	// order remembers switch registration order: control-channel wiring
	// creates links, and with them metric naming and RNG consumption, in a
	// deterministic order that map iteration would not give.
	order []*Switch
	xid   uint32

	// Transactional control channel, set by EnableTransport; every
	// controller-switch message rides it.
	tr *ctl.Transport
	ep *ctl.Endpoint

	// OnPacketIn handles reactive flow setup.
	OnPacketIn PacketInHandler

	// OnPathEvent observes GTP-U path supervision transitions reported by
	// switches running a PathMonitor (down=true on failure, false on
	// recovery). The MEC layer sets it to drive edge-site failover.
	OnPathEvent func(sw *Switch, peer pkt.Addr, down bool)

	// Channel counters, registered under sdn/controller/ in the engine's
	// telemetry registry: message counts and serialized byte totals by
	// direction. These feed the §4 control-overhead numbers.
	sent      *telemetry.Counter
	sentBytes *telemetry.Counter
	recv      *telemetry.Counter
	recvBytes *telemetry.Counter

	// encBuf is the controller-lifetime scratch the accounting encoders
	// serialize into; only the encoded length outlives each call.
	encBuf []byte

	// mods recycles the FlowMod continuation records (see flowMod).
	mods sim.Pool[flowMod]
}

// flowMod is a pooled FlowMod continuation: the entry to add, or the
// cookie (entry.Cookie) to delete, applied at sw when the message lands.
// The transport carries apply, bound on the record's first take. The
// record goes back to Controller.mods when it is applied, which the ctl
// receiver's duplicate filter allows at most once per frame; a FlowMod
// whose every attempt was lost is never applied and never put back.
type flowMod struct {
	c     *Controller
	sw    *Switch
	add   bool
	entry FlowEntry
	apply func()
}

// land is the record's delivery: it recycles the record, then changes the
// switch's table.
func (m *flowMod) land() {
	sw, add, e := m.sw, m.add, m.entry
	m.sw, m.entry = nil, FlowEntry{}
	m.c.mods.Put(m)
	if add {
		sw.installFlow(e)
	} else {
		sw.removeFlows(e.Cookie)
	}
}

// takeFlowMod takes a FlowMod record for sw and returns its pre-bound
// delivery.
//
//acacia:hotpath
func (c *Controller) takeFlowMod(sw *Switch, add bool, e FlowEntry) func() {
	m := c.mods.Take()
	if m.c == nil {
		c.bindFlowMod(m)
	}
	m.sw, m.add, m.entry = sw, add, e
	return m.apply
}

// bindFlowMod readies a fresh record: its back-pointer and its delivery,
// bound once. Noinline keeps the binding out of hotpath callers' escape
// profiles.
//
//go:noinline
func (c *Controller) bindFlowMod(m *flowMod) {
	m.c = c
	m.apply = m.land
}

// NewController creates a controller on eng.
func NewController(eng *sim.Engine) *Controller {
	scope := eng.Metrics().Scope("sdn").Scope("controller")
	return &Controller{
		switches:  make(map[uint64]*Switch),
		sent:      scope.Counter("sent"),
		sentBytes: scope.Counter("sent-bytes"),
		recv:      scope.Counter("received"),
		recvBytes: scope.Counter("recv-bytes"),
	}
}

// AddSwitch connects a switch to the controller (the OpenFlow Hello
// exchange).
func (c *Controller) AddSwitch(sw *Switch) {
	if _, dup := c.switches[sw.DPID]; dup {
		panic(fmt.Sprintf("sdn: duplicate dpid %d", sw.DPID))
	}
	c.switches[sw.DPID] = sw
	c.order = append(c.order, sw)
	sw.controller = c
	if c.tr != nil {
		c.wireSwitch(sw)
	}
	// The Hello exchange happens while the channel comes up, before the
	// transport exists; it stays accounting-only.
	hello := &pkt.OFMsg{Type: pkt.OFHello, XID: c.nextXID()}
	c.accountSent(hello)
	c.accountReceived(hello) // symmetric hello from the switch
}

// EnableTransport puts the controller's OpenFlow channel on the network:
// node becomes the controller's control endpoint and every registered (and
// future) switch gets a dedicated control link with transactional delivery
// (retransmission on loss, duplicate suppression). A controller must be
// wired before it sends its first message.
func (c *Controller) EnableTransport(tr *ctl.Transport, node *netsim.Node) {
	c.tr = tr
	c.ep = tr.Endpoint(node, true)
	for _, sw := range c.order {
		c.wireSwitch(sw)
	}
}

// wireSwitch creates the switch's control endpoint and its link to the
// controller, with RTT as the link's propagation delay.
func (c *Controller) wireSwitch(sw *Switch) {
	if sw.ctlEP != nil {
		return
	}
	ep := c.tr.Endpoint(sw.node, false)
	ctl.Connect(c.ep, ep, netsim.LinkConfig{BitsPerSecond: 1e9, Propagation: c.RTT})
	sw.ctlEP = ep
}

// toSwitch delivers a controller-to-switch message over the switch's
// control link.
//
//acacia:hotpath
func (c *Controller) toSwitch(sw *Switch, name string, size int, fn func()) {
	seq := c.ep.NextSeq(sw.ctlEP.Addr())
	c.ep.Send(sw.ctlEP.Addr(), seq, name, size, fn, nil, nil)
}

// toController delivers a switch-to-controller message symmetrically.
//
//acacia:hotpath
func (c *Controller) toController(sw *Switch, name string, size int, fn func()) {
	seq := sw.ctlEP.NextSeq(c.ep.Addr())
	sw.ctlEP.Send(c.ep.Addr(), seq, name, size, fn, nil, nil)
}

func (c *Controller) nextXID() uint32 {
	c.xid++
	return c.xid
}

//acacia:hotpath
func (c *Controller) accountSent(m *pkt.OFMsg) int {
	c.encBuf = m.Encode(c.encBuf[:0])
	n := len(c.encBuf)
	c.sent.Inc()
	c.sentBytes.Add(uint64(n))
	return n
}

//acacia:hotpath
func (c *Controller) accountReceived(m *pkt.OFMsg) int {
	c.encBuf = m.Encode(c.encBuf[:0])
	n := len(c.encBuf)
	c.recv.Inc()
	c.recvBytes.Add(uint64(n))
	return n
}

// InstallFlow sends a FlowMod(add) to the switch; the entry takes effect
// when the message lands over the control link. The returned byte count is
// the serialized FlowMod size (used by overhead accounting).
func (c *Controller) InstallFlow(sw *Switch, e FlowEntry) int {
	msg := &pkt.OFMsg{
		Type: pkt.OFFlowMod, XID: c.nextXID(),
		Command:  pkt.FlowModAdd,
		Priority: e.Priority,
		Cookie:   e.Cookie,
		Match:    e.Match,
		Actions:  e.Actions,
	}
	n := c.accountSent(msg)
	c.toSwitch(sw, "FlowMod", n, c.takeFlowMod(sw, true, e))
	return n
}

// RemoveFlows sends a FlowMod(delete) for all entries with the given
// cookie.
func (c *Controller) RemoveFlows(sw *Switch, cookie uint64) int {
	msg := &pkt.OFMsg{
		Type: pkt.OFFlowMod, XID: c.nextXID(),
		Command: pkt.FlowModDelete,
		Cookie:  cookie,
	}
	n := c.accountSent(msg)
	c.toSwitch(sw, "FlowMod", n, c.takeFlowMod(sw, false, FlowEntry{Cookie: cookie}))
	return n
}

// packetIn is called by a switch on a table miss.
func (c *Controller) packetIn(sw *Switch, inPort uint32, p *netsim.Packet, tunnelID uint64) {
	msg := &pkt.OFMsg{
		Type: pkt.OFPacketIn, XID: c.nextXID(),
		BufferID: 0xffffffff,
		DataLen:  uint16(min(p.Size, 128)), // truncated packet copy
		Match:    pkt.Match{InPort: pkt.U32(inPort), TunnelID: pkt.U64(tunnelID)},
	}
	n := c.accountReceived(msg)
	if c.OnPacketIn == nil {
		sw.dropped.Inc()
		sw.node.Network().Release(p)
		return
	}
	c.toController(sw, "PacketIn", n, func() { c.OnPacketIn(sw, inPort, p, tunnelID) })
}

// pathStatus carries a switch's GTP path-state transition to the
// controller as a PortStatus message over the control channel (path
// supervision is port liveness in the GTP-tunnelled fabric).
func (c *Controller) pathStatus(sw *Switch, peer pkt.Addr, down bool) {
	reason := uint8(0) // up
	if down {
		reason = 1
	}
	msg := &pkt.OFMsg{
		Type: pkt.OFPortStatus, XID: c.nextXID(),
		Reason: reason,
		Match:  pkt.Match{IPv4Src: pkt.AddrPtr(peer)},
	}
	n := c.accountReceived(msg)
	c.toController(sw, "PortStatus", n, func() {
		if c.OnPathEvent != nil {
			c.OnPathEvent(sw, peer, down)
		}
	})
}
