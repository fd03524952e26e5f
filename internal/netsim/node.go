package netsim

import (
	"fmt"
	"time"

	"acacia/internal/pkt"
	"acacia/internal/sim"
)

// Handler processes a packet arriving at a node. ingress is nil for packets
// the node originates locally (injected via Node.Inject).
type Handler func(ingress *Port, p *Packet)

// CPUModel gives a node a per-packet processing cost served by a single
// FIFO processor, modeling the difference between a user-space gateway
// (OpenEPC, microseconds per packet) and a kernel fast path (OVS megaflow
// cache, sub-microsecond). A nil model means zero-cost processing.
type CPUModel struct {
	// PerPacket is the fixed service time per packet.
	PerPacket time.Duration
	// PerByte is the additional service time per payload byte.
	PerByte time.Duration
	// QueuePackets bounds the processor input queue; 0 means 4096.
	QueuePackets int
}

// DefaultCPUQueuePackets is the processor queue bound used when a CPUModel
// leaves QueuePackets zero.
const DefaultCPUQueuePackets = 4096

// NodeStats counts node-level packet activity.
type NodeStats struct {
	Received  uint64
	Forwarded uint64
	CPUDrops  uint64
	HopDrops  uint64
}

// Node is a network element: a host, gateway, switch or base station. Its
// behaviour lives in the Handler installed by the owning layer (epc, sdn,
// core). The node itself provides ports, addressing, optional CPU cost and
// counters.
type Node struct {
	net     *Network
	name    string
	addr    pkt.Addr
	ports   []*Port
	handler Handler

	cpu *CPUModel
	// cpuQueue[cpuHead:] are the packets waiting for the processor. Popping
	// advances cpuHead instead of re-slicing from the front, which would
	// walk the slice's capacity down to zero and make the next append
	// allocate — once per packet with the usual 0–1-deep queue.
	cpuQueue []cpuItem
	cpuHead  int
	cpuBusy  bool
	// cpuCur stages the item being served; cpuDoneF is the method value
	// bound once in SetCPU so per-packet service scheduling allocates no
	// closure.
	cpuCur   cpuItem
	cpuDoneF func()

	stats NodeStats
}

type cpuItem struct {
	ingress *Port
	p       *Packet
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

// Stats reports the node's packet counters.
func (n *Node) Stats() NodeStats { return n.stats }

// SetHandler installs the packet handler. It must be set before traffic
// reaches the node.
func (n *Node) SetHandler(h Handler) { n.handler = h }

// SetCPU installs a processing-cost model; packets queue for a single
// processor before the handler runs.
func (n *Node) SetCPU(m *CPUModel) {
	n.cpu = m
	if n.cpuDoneF == nil {
		n.cpuDoneF = n.cpuDone
	}
}

// Ports returns the node's ports in creation order.
func (n *Node) Ports() []*Port { return n.ports }

// Port returns the port with the given node-local id.
func (n *Node) Port(id int) *Port {
	if id < 0 || id >= len(n.ports) {
		panic(fmt.Sprintf("netsim: node %s has no port %d", n.name, id))
	}
	return n.ports[id]
}

// Inject hands a locally originated packet to the node's handler, stamping
// its creation time. Use this to start traffic at a host.
func (n *Node) Inject(p *Packet) {
	n.net.pktSeq++
	p.ID = n.net.pktSeq
	p.CreatedAt = n.net.eng.Now()
	n.dispatch(nil, p)
}

// receive is called by a link when a packet arrives on one of the node's
// ports.
//
//acacia:hotpath
func (n *Node) receive(ingress *Port, p *Packet) {
	n.stats.Received++
	p.Hops++
	if p.Hops > MaxHops {
		n.stats.HopDrops++
		n.net.Release(p)
		return
	}
	n.dispatch(ingress, p)
}

//acacia:hotpath
func (n *Node) dispatch(ingress *Port, p *Packet) {
	if n.cpu == nil {
		n.handle(ingress, p)
		return
	}
	limit := n.cpu.QueuePackets
	if limit == 0 {
		limit = DefaultCPUQueuePackets
	}
	if len(n.cpuQueue)-n.cpuHead >= limit {
		n.stats.CPUDrops++
		n.net.Release(p)
		return
	}
	n.cpuQueue = append(n.cpuQueue, cpuItem{ingress, p})
	if !n.cpuBusy {
		n.serveCPU()
	}
}

//acacia:hotpath
func (n *Node) serveCPU() {
	if len(n.cpuQueue) == 0 {
		n.cpuBusy = false
		return
	}
	n.cpuBusy = true
	n.cpuCur = n.cpuQueue[n.cpuHead]
	n.cpuHead++
	// Once the served prefix is a quarter of the slice, move the waiting
	// tail to the front: a drained queue resets to [:0] (so empty is still
	// len 0), and a queue that never drains under sustained overload holds
	// at most a third more slots than it has packets waiting, for an
	// amortized three slot copies per pop.
	if 4*n.cpuHead >= len(n.cpuQueue) {
		live := copy(n.cpuQueue, n.cpuQueue[n.cpuHead:])
		clear(n.cpuQueue[live:])
		n.cpuQueue = n.cpuQueue[:live]
		n.cpuHead = 0
	}
	cost := n.cpu.PerPacket + time.Duration(n.cpuCur.p.Size)*n.cpu.PerByte
	n.net.eng.Schedule(cost, n.cpuDoneF)
}

// cpuDone finishes one CPU service period: run the handler on the staged
// item and start serving the next.
//
//acacia:hotpath
func (n *Node) cpuDone() {
	item := n.cpuCur
	n.cpuCur = cpuItem{}
	n.handle(item.ingress, item.p)
	n.serveCPU()
}

//acacia:hotpath
func (n *Node) handle(ingress *Port, p *Packet) {
	if n.handler == nil {
		noHandler(n.name)
	}
	n.stats.Forwarded++
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
	// pktSeq numbers injected packets; pktFree is the packet free-list
	// (see pool.go).
	pktSeq  uint64
	pktFree []*Packet
}

// New creates an empty network on eng.
func New(eng *sim.Engine) *Network {
	return &Network{
		eng:    eng,
		nodes:  make(map[string]*Node),
		byAddr: make(map[pkt.Addr]*Node),
	}
}

// Engine returns the driving simulation engine.
func (nw *Network) Engine() *sim.Engine { return nw.eng }

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

// Node returns the node with the given name, or nil.
func (nw *Network) Node(name string) *Node { return nw.nodes[name] }

// NodeByAddr returns the node owning addr, or nil.
func (nw *Network) NodeByAddr(a pkt.Addr) *Node { return nw.byAddr[a] }

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
