package sdn

import (
	"sort"
	"time"

	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sim"
	"acacia/internal/telemetry"
)

// GTP-U path management (TS 29.281 §7.2): GTP peers exchange Echo
// Request/Response over the tunnel path; a run of missed responses marks
// the path down. The monitor discovers its peers from the switch's
// installed SetTunnel actions, so supervision follows the programmed
// bearers automatically.

// gtpEcho is the in-simulation payload of an echo message.
type gtpEcho struct {
	req  bool
	seq  uint32
	from pkt.Addr
}

// gtpEchoWireSize is the on-the-wire size of a GTP echo (outer IP + UDP +
// GTP header with sequence, per TS 29.281).
const gtpEchoWireSize = pkt.IPv4Len + pkt.UDPLen + pkt.GTPULen + 4

// PathState describes one supervised peer path.
type PathState struct {
	Peer pkt.Addr
	Port int
	Down bool
	// lastSentSeq numbers the echo requests sent; lastAckedSeq is the
	// highest one answered.
	lastSentSeq  uint32
	lastAckedSeq uint32
	misses       int
	// static marks peers pinned with Supervise: they outlive flow-table
	// refreshes, so supervision survives bearer teardown.
	static bool
}

// PathMonitor supervises a switch's GTP peers.
type PathMonitor struct {
	sw        *Switch
	maxMisses int
	peers     map[pkt.Addr]*PathState
	scope     telemetry.Scope
}

// EnablePathMonitor starts echo supervision on the switch: every period it
// refreshes the peer set from the flow table, sends an Echo Request to
// each, and declares a path down after maxMisses consecutive unanswered
// requests.
func (sw *Switch) EnablePathMonitor(period time.Duration, maxMisses int) *PathMonitor {
	if sw.pathMon != nil {
		return sw.pathMon
	}
	if maxMisses <= 0 {
		maxMisses = 3
	}
	m := &PathMonitor{
		sw:        sw,
		maxMisses: maxMisses,
		peers:     make(map[pkt.Addr]*PathState),
		scope:     sw.eng.Metrics().Scope("sdn/pathmon").Scope(sw.node.Name()),
	}
	sw.pathMon = m
	sim.NewTicker(sw.eng, period, m.tick)
	return m
}

// Supervise pins a peer into the supervision set regardless of the flow
// table: probes go out the given port every tick even after the peer's
// bearers (and with them its SetTunnel flows) are torn down. The MEC
// failover path uses this to keep watching an edge site's user plane so a
// repaired site is noticed.
func (m *PathMonitor) Supervise(peer pkt.Addr, port int) {
	if ps, ok := m.peers[peer]; ok {
		ps.Port = port
		ps.static = true
		return
	}
	m.peers[peer] = &PathState{Peer: peer, Port: port, static: true}
}

// sortedPeers collects the peer set in ascending address order, pinning
// probe order — and with it packet enqueue order and any jitter RNG draws
// downstream — regardless of map layout.
func (m *PathMonitor) sortedPeers() []*PathState {
	out := make([]*PathState, 0, len(m.peers))
	for _, ps := range m.peers {
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer.Uint32() < out[j].Peer.Uint32() })
	return out
}

// tick refreshes peers from the table and probes each in sorted address
// order (the byte-identical-output contract: map iteration order must
// never reach the wire).
func (m *PathMonitor) tick() {
	m.refreshPeers()
	for _, ps := range m.sortedPeers() {
		// Check the previous round's answer before probing again.
		if ps.lastAckedSeq < ps.lastSentSeq {
			ps.misses++
			if !ps.Down && ps.misses >= m.maxMisses {
				ps.Down = true
				m.notify(ps.Peer, true)
			}
		}
		ps.lastSentSeq++
		p := m.sw.node.NewPacket()
		p.Flow = pkt.FiveTuple{
			Src: m.sw.node.Addr(), Dst: ps.Peer,
			SrcPort: pkt.GTPUPort, DstPort: pkt.GTPUPort, Proto: pkt.ProtoUDP,
		}
		p.Size = gtpEchoWireSize
		p.Payload = gtpEcho{req: true, seq: ps.lastSentSeq, from: m.sw.node.Addr()}
		m.sw.node.Port(ps.Port).Send(p)
	}
}

// notify records a path transition on the telemetry timeline and reports
// it to the switch's controller as a PortStatus message over the control
// channel.
func (m *PathMonitor) notify(peer pkt.Addr, down bool) {
	if down {
		m.scope.Emit("down", peer.String())
	} else {
		m.scope.Emit("up", peer.String())
	}
	if m.sw.controller != nil {
		m.sw.controller.pathStatus(m.sw, peer, down)
	}
}

// refreshPeers derives the peer set from SetTunnel actions and the output
// port that follows them.
func (m *PathMonitor) refreshPeers() {
	seen := map[pkt.Addr]int{}
	for i := int32(1); i <= m.sw.nslots; i++ {
		var dst pkt.Addr
		for _, a := range m.sw.slot(i).actions() { // none in a vacant slot
			switch a.Type {
			case pkt.ActionSetTunnel:
				dst = a.TunnelDst
			case pkt.ActionOutput:
				if !dst.IsZero() {
					seen[dst] = int(a.Port)
				}
			}
		}
	}
	for peer, port := range seen {
		if ps, ok := m.peers[peer]; ok {
			ps.Port = port
			continue
		}
		m.peers[peer] = &PathState{Peer: peer, Port: port}
	}
	// Paths whose flows disappeared stop being probed; peers pinned with
	// Supervise stay.
	for peer, ps := range m.peers {
		if _, still := seen[peer]; !still && !ps.static {
			delete(m.peers, peer)
		}
	}
}

// AnswerGTPEcho lets a non-switch GTP node (the eNB end of S1-U paths)
// participate in path supervision: it answers Echo Requests addressed to
// self and swallows stray echo traffic. Returns true when the packet was a
// GTP echo and has been consumed; the caller then releases it.
func AnswerGTPEcho(self pkt.Addr, ingress *netsim.Port, p *netsim.Packet) bool {
	echo, ok := p.Payload.(gtpEcho)
	if !ok || p.Flow.Dst != self || p.Flow.DstPort != pkt.GTPUPort {
		return false
	}
	if echo.req && ingress != nil {
		sendEchoReply(ingress, p, echo.seq, self)
	}
	return true
}

// sendEchoReply answers the echo request p on the port it arrived on.
func sendEchoReply(ingress *netsim.Port, p *netsim.Packet, seq uint32, self pkt.Addr) {
	r := ingress.Node.NewPacket()
	r.Flow = p.Flow.Reverse()
	r.Size = gtpEchoWireSize
	r.Payload = gtpEcho{req: false, seq: seq, from: self}
	ingress.Send(r)
}

// handleEcho intercepts GTP echo messages before table lookup. Returns
// true when the packet was consumed.
func (sw *Switch) handleEcho(ingress *netsim.Port, p *netsim.Packet) bool {
	echo, ok := p.Payload.(gtpEcho)
	if !ok || p.Flow.Dst != sw.node.Addr() || p.Flow.DstPort != pkt.GTPUPort {
		return false
	}
	if echo.req {
		if ingress == nil {
			return true
		}
		sendEchoReply(ingress, p, echo.seq, sw.node.Addr())
		return true
	}
	if sw.pathMon != nil {
		sw.pathMon.onResponse(echo)
	}
	return true
}

func (m *PathMonitor) onResponse(echo gtpEcho) {
	ps, ok := m.peers[echo.from]
	if !ok {
		return
	}
	if echo.seq > ps.lastAckedSeq {
		ps.lastAckedSeq = echo.seq
	}
	ps.misses = 0
	if ps.Down {
		ps.Down = false
		m.notify(ps.Peer, false)
	}
}
