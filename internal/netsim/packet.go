// Package netsim simulates a packet network in virtual time on top of the
// sim engine: nodes connected by links with propagation delay, serialization
// at a configured bandwidth, bounded drop-tail queues and optional
// QCI-priority scheduling, plus per-node CPU processing costs.
//
// The EPC gateways, SDN switches, hosts and traffic generators of the ACACIA
// testbed are all netsim nodes. Latency and throughput numbers in the
// experiments are measured by instrumenting packets as they traverse this
// substrate.
package netsim

import (
	"time"

	"acacia/internal/pkt"
)

// Packet is one simulated datagram. Packets are passed by pointer and owned
// by whichever queue or handler currently holds them; handlers that fan a
// packet out copy it with Network.ClonePacket.
//
// The field order packs the struct into 64 bytes, an allocator size class
// and a cache line (TestPacketIs64Bytes): overloaded switch queues hold
// hundreds of thousands of packets, and the metro runs keep pools of them
// hot.
type Packet struct {
	// Flow is the inner five-tuple (endpoint view).
	Flow pkt.FiveTuple
	// Priority is the scheduling priority derived from the bearer QCI
	// (lower = served first), the lane of a prioritised link queue. Zero
	// means default best effort.
	Priority uint8
	// Size is the current on-the-wire size in bytes, including any tunnel
	// encapsulation currently applied.
	Size int
	// Payload carries an application-defined value (request/response
	// structs); it does not contribute to Size, which callers set
	// explicitly.
	Payload any

	// Tunnel state: when TEID is non-zero the packet is GTP-U encapsulated
	// toward the tunnel endpoint TunnelDst and Size includes
	// pkt.GTPUOverhead.
	TEID      uint32
	TunnelDst pkt.Addr

	// Hops counts forwarding operations, a loop guard (MaxHops).
	Hops uint8

	// pooled marks packets drawn from the network's pool
	// (Network.NewPacket/Node.NewPacket/ClonePacket); only those are
	// recycled by Release. freed marks a pooled packet currently resting in
	// the pool, the double-release canary.
	pooled, freed bool

	// QueueWait accumulates the time spent waiting in link transmit queues
	// across every hop so far.
	QueueWait time.Duration
}

// Foldable reports whether q is p but for QueueWait, both pooled and
// without payload: a queue may then hold q as its wait alone, release it,
// and serve it later as p's ClonePacket with that wait.
//
//acacia:hotpath
func Foldable(p, q *Packet) bool {
	if !p.pooled || p.Payload != nil || q.Payload != nil {
		return false
	}
	a, b := *p, *q
	a.QueueWait = b.QueueWait
	return a == b
}

// MaxHops aborts forwarding loops: no testbed path is longer than this.
const MaxHops = 64

// Encapsulate applies GTP-U tunnel state toward the gateway address dst and
// grows the wire size by the encapsulation overhead. The first parameter,
// the tunnel's source gateway, is not kept: forwarding reads only the TEID
// and the endpoint.
func (p *Packet) Encapsulate(_, dst pkt.Addr, teid uint32) {
	if p.TEID != 0 {
		panicDoubleGTP()
	}
	p.TEID, p.TunnelDst = teid, dst
	p.Size += pkt.GTPUOverhead
}

// panicDoubleGTP is noinline so the boxed panic message stays out of
// hotpath callers' escape profiles.
//
//go:noinline
func panicDoubleGTP() {
	panic("netsim: double GTP encapsulation")
}

// Decapsulate removes GTP-U tunnel state and returns the TEID it carried.
func (p *Packet) Decapsulate() uint32 {
	if p.TEID == 0 {
		panic("netsim: decapsulating an untunneled packet")
	}
	teid := p.TEID
	p.TEID = 0
	p.TunnelDst = pkt.Addr{}
	p.Size -= pkt.GTPUOverhead
	return teid
}

// Tunneled reports whether the packet currently carries GTP-U encapsulation.
func (p *Packet) Tunneled() bool { return p.TEID != 0 }
