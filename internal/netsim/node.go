package netsim

import (
	"fmt"

	"acacia/internal/pkt"
	"acacia/internal/sim"
)

// Handler processes a packet arriving at a node. ingress is nil for packets
// the node originates locally (injected via Node.Inject).
type Handler func(ingress *Port, p *Packet)

// Node is a network element: a host, gateway, switch or base station. Its
// behaviour lives in the Handler installed by the owning layer (epc, sdn,
// core). The node itself provides ports and addressing; per-packet
// processing cost belongs to the handler (sdn.Switch serves its own CPU).
type Node struct {
	net     *Network
	name    string
	addr    pkt.Addr
	ports   []*Port
	handler Handler
}

// Name reports the node's unique name within its network.
func (n *Node) Name() string { return n.name }

// Addr reports the node's primary address.
func (n *Node) Addr() pkt.Addr { return n.addr }

// Network returns the owning network.
func (n *Node) Network() *Network { return n.net }

// Engine returns the simulation engine driving this node — the network's.
// Handlers must schedule all node-local work on it.
func (n *Node) Engine() *sim.Engine { return n.net.eng }

// NewPacket returns a pool-managed packet from the network's pool.
//
//acacia:hotpath
func (n *Node) NewPacket() *Packet { return n.net.NewPacket() }

// SetHandler installs the packet handler. It must be set before traffic
// reaches the node.
func (n *Node) SetHandler(h Handler) { n.handler = h }

// Ports returns the node's ports in creation order.
func (n *Node) Ports() []*Port { return n.ports }

// Port returns the port with the given node-local id.
func (n *Node) Port(id int) *Port {
	if id < 0 || id >= len(n.ports) {
		panic(fmt.Sprintf("netsim: node %s has no port %d", n.name, id))
	}
	return n.ports[id]
}

// Inject hands a locally originated packet to the node's handler. Use this
// to start traffic at a host.
func (n *Node) Inject(p *Packet) { n.handle(nil, p) }

// receive is called by a link when a packet arrives on one of the node's
// ports.
//
//acacia:hotpath
func (n *Node) receive(ingress *Port, p *Packet) {
	p.Hops++
	if p.Hops > MaxHops {
		n.net.Release(p)
		return
	}
	n.handle(ingress, p)
}

//acacia:hotpath
func (n *Node) handle(ingress *Port, p *Packet) {
	if n.handler == nil {
		noHandler(n.name)
	}
	n.handler(ingress, p)
}

//go:noinline
func noHandler(name string) {
	panic(fmt.Sprintf("netsim: node %s has no handler", name))
}

// Network is a collection of nodes and links driven by one sim engine.
type Network struct {
	eng    *sim.Engine
	nodes  map[string]*Node
	byAddr map[pkt.Addr]*Node
	links  []*Link
	// pkts is the packet pool (see pool.go).
	pkts sim.Pool[Packet]
}

// New creates an empty network on eng.
func New(eng *sim.Engine) *Network {
	return &Network{
		eng:    eng,
		nodes:  make(map[string]*Node),
		byAddr: make(map[pkt.Addr]*Node),
	}
}

// AddNode creates a node with a unique name and primary address.
func (nw *Network) AddNode(name string, addr pkt.Addr) *Node {
	if _, dup := nw.nodes[name]; dup {
		panic("netsim: duplicate node name " + name)
	}
	if !addr.IsZero() {
		if other, dup := nw.byAddr[addr]; dup {
			panic(fmt.Sprintf("netsim: address %v already assigned to %s", addr, other.name))
		}
	}
	n := &Node{net: nw, name: name, addr: addr}
	nw.nodes[name] = n
	if !addr.IsZero() {
		nw.byAddr[addr] = n
	}
	return n
}

// Connect joins two nodes with a link configured independently per
// direction (ab: a->b, ba: b->a) and returns it. New ports are appended to
// each node. The link registers with the engine's telemetry registry as a
// source reporting each direction under netsim/link/<index>/<src>-><dst>/
// (the creation index disambiguates parallel links between the same node
// pair); the names are built only if a snapshot is taken.
func (nw *Network) Connect(a, b *Node, ab, ba LinkConfig) *Link {
	l := &Link{idx: len(nw.links)}
	l.A, l.B = &l.pa, &l.pb
	l.pa = Port{Node: a, ID: len(a.ports), link: l, out: &l.ab}
	l.pb = Port{Node: b, ID: len(b.ports), link: l, out: &l.ba}
	l.ab.init(nw, ab, l.B)
	l.ba.init(nw, ba, l.A)
	a.ports = append(a.ports, l.A)
	b.ports = append(b.ports, l.B)
	nw.links = append(nw.links, l)
	nw.eng.Metrics().Register(l)
	return l
}

// ConnectSymmetric joins two nodes with identical per-direction configs.
func (nw *Network) ConnectSymmetric(a, b *Node, cfg LinkConfig) *Link {
	return nw.Connect(a, b, cfg, cfg)
}

// Links returns all links in creation order.
func (nw *Network) Links() []*Link { return nw.links }
