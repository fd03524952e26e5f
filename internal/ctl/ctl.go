// Package ctl is the control-plane transport of the testbed: it carries
// S1AP, GTPv2-C and OpenFlow exchanges as real packets over netsim links
// between control endpoints (eNB, MME, SGW-C/PGW-C, SDN controller), with a
// transaction layer on top — per-peer sequence allocation, a pending table
// keyed by (peer, seq), retransmission timers with a bounded retry budget
// (the GTPv2 T3/N3 timers; an SCTP-like reliable channel for S1AP), and
// duplicate suppression so re-delivered requests stay idempotent.
//
// Control-plane latency is therefore emergent — propagation plus queueing
// plus retransmission on the links the messages actually traverse — instead
// of a configured constant, and injected link loss exercises the recovery
// machinery end to end. A procedure that exhausts its retries fails loudly
// through its OnFail callback rather than hanging.
//
// Byte accounting note: callers account a message once when they first
// offer it to the transport (the §4 methodology counts protocol exchanges,
// not channel effects), so retransmissions and the small transport-level
// acks do not inflate the paper's message/byte tables. Ack frames still
// occupy link bandwidth like any other packet.
package ctl

import (
	"fmt"
	"time"

	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sim"
	"acacia/internal/telemetry"
)

// T3 is the per-attempt retransmission timeout; N3 bounds the number of
// retransmissions before a transaction fails terminally (TS 29.274 §7.6
// uses T3-RESPONSE/N3-REQUESTS; 3 s / 3 tries on real hardware — the
// testbed uses a shorter timer scaled to its link delays).
const (
	T3 = 100 * time.Millisecond
	N3 = 3
)

// AckBytes is the wire size of a transport-level ack frame (an SCTP SACK
// chunk / GTPv2 triggered response is this order of magnitude). Acks are
// not protocol messages and are deliberately absent from the §4 accounting.
const AckBytes = 28

// TxInfo reports how one transaction fared on the wire, observed at ack
// time: the queueing delay the (finally delivered) request accumulated, and
// how many retransmissions the exchange needed. Every route is one direct
// link (Connect), so the link a request crossed is its sender-to-receiver
// path.
type TxInfo struct {
	QueueWait time.Duration
	Retrans   int
}

// Transport owns what every control endpoint shares: the epc/txn/*
// counters and latency histogram, and the frame and transaction pools
// every endpoint draws from.
type Transport struct {
	eng *sim.Engine

	sent     *telemetry.Counter
	retrans  *telemetry.Counter
	timeouts *telemetry.Counter
	acks     *telemetry.Counter
	dups     *telemetry.Counter
	latency  *telemetry.Histogram

	// frames recycles data and ack frames (engine-scoped, like packets and
	// events). An ack frame is consumed in one Receive call at the sender.
	// A data frame is shared by every cloned attempt of its transaction, so
	// it returns to the pool only when the ack retires a transaction that
	// was never retransmitted (control links are FIFO, so the acked sole
	// attempt having arrived means no clone is still in flight).
	// Retransmitted transactions abandon their frame rather than risk
	// aliasing with a late clone.
	frames sim.Pool[Frame]
	// txns recycles transaction records, retired at ack time.
	txns sim.Pool[txn]
}

// NewTransport creates the engine's control transport, registering its
// metrics in the engine's registry.
func NewTransport(eng *sim.Engine) *Transport {
	scope := eng.Metrics().Scope("epc").Scope("txn")
	return &Transport{
		eng:      eng,
		sent:     scope.Counter("sent"),
		retrans:  scope.Counter("retransmissions"),
		timeouts: scope.Counter("timeouts"),
		acks:     scope.Counter("acks"),
		dups:     scope.Counter("duplicates"),
		latency:  scope.Histogram("latency-ms"),
	}
}

// recycleFrame returns a consumed frame to the pool: an ack frame once
// its fields are copied out, a data frame only when its transaction's
// single attempt was acked.
//
//acacia:hotpath
func (t *Transport) recycleFrame(f *Frame) {
	*f = Frame{}
	t.frames.Put(f)
}

// recycleTxn zeroes a retired transaction and returns it to the pool. The
// cancelled T3 timer may still reference it from the event queue; that is
// harmless — cancelled events never fire.
//
//acacia:hotpath
func (t *Transport) recycleTxn(tx *txn) {
	*tx = txn{}
	t.txns.Put(tx)
}

// Retransmissions reports the total retransmission count.
func (t *Transport) Retransmissions() uint64 { return t.retrans.Value() }

// Timeouts reports the number of transactions that exhausted their retries.
func (t *Transport) Timeouts() uint64 { return t.timeouts.Value() }

// Duplicates reports how many re-delivered requests were suppressed.
func (t *Transport) Duplicates() uint64 { return t.dups.Value() }

// txnKey identifies a transaction: initiating peer address + sequence
// number from that peer's allocator.
type txnKey struct {
	peer pkt.Addr
	seq  uint32
}

// txn is one pending request awaiting its ack.
type txn struct {
	ep      *Endpoint // the sender
	peer    pkt.Addr
	route   *netsim.Port // toward peer
	seq     uint32
	name    string
	tpl     *netsim.Packet // pristine template; each attempt sends a Clone
	retries int
	start   sim.Time
	timer   sim.Timer
	onFail  func(error)
	onDone  func(TxInfo)
}

// Frame is the transport PDU riding netsim packets between endpoints. Data
// frames carry the receiver-side continuation (the simulation's stand-in
// for dispatching a decoded message); ack frames carry the sequence number
// and the queueing delay the acked attempt met, which the sender reports
// for the transaction. The type is opaque outside this package:
// shared-node handlers detect control traffic with FrameOf and hand it to
// Receive.
type Frame struct {
	ack     bool
	seq     uint32
	deliver func()
	// queueWait is an ack's observation of the acked attempt.
	queueWait time.Duration
}

// FrameOf returns the control frame carried by p, or nil for data-plane
// packets. Nodes that carry both planes (eNB, switches) call this first and
// divert control frames to their endpoint's Receive.
func FrameOf(p *netsim.Packet) *Frame {
	f, _ := p.Payload.(*Frame)
	return f
}

// peerState is what an endpoint keeps about one peer: the route toward it,
// the sequence allocator for requests sent to it, and the duplicate filter
// for requests received from it. The filter is a window, not a history: a
// sender numbers its requests 1, 2, 3, … per peer, so while nothing is lost
// the delivered set is one number, every seq <= floor. Only a request that
// overtakes a lost one is remembered, in ahead, until the retransmission
// closes the gap (never, after a terminal failure: ahead then grows).
type peerState struct {
	route   *netsim.Port
	nextSeq uint32
	floor   uint32
	ahead   map[uint32]bool // delivered sequences above floor+1
}

// duplicate reports whether seq was delivered before, and records it.
//
//acacia:hotpath
func (ps *peerState) duplicate(seq uint32) bool {
	if seq == ps.floor+1 {
		for ps.floor++; ps.ahead[ps.floor+1]; ps.floor++ {
			delete(ps.ahead, ps.floor+1)
		}
		return false
	}
	dup := seq <= ps.floor || ps.ahead[seq]
	if !dup {
		ps.ahead[seq] = true
	}
	return dup
}

// Endpoint is one control-plane attachment: a node plus per-peer routing,
// sequence allocation and duplicate filter, and the pending-transaction
// table. Endpoints on dedicated control nodes own the node handler; on
// shared nodes the owning layer intercepts frames and forwards them.
type Endpoint struct {
	tr      *Transport
	eng     *sim.Engine
	node    *netsim.Node
	peers   map[pkt.Addr]*peerState
	pending map[txnKey]*txn
}

// Endpoint attaches the transport to a node. When own is true the endpoint
// installs itself as the node's packet handler (dedicated control nodes:
// MME, gateway control planes, the SDN controller); shared nodes pass
// false and forward frames explicitly.
func (t *Transport) Endpoint(node *netsim.Node, own bool) *Endpoint {
	ep := &Endpoint{
		tr:      t,
		eng:     t.eng,
		node:    node,
		peers:   make(map[pkt.Addr]*peerState),
		pending: make(map[txnKey]*txn),
	}
	if own {
		node.SetHandler(ep)
	}
	return ep
}

// Addr returns the endpoint's network address (its transaction identity).
func (ep *Endpoint) Addr() pkt.Addr { return ep.node.Addr() }

// Name returns the endpoint's node name.
func (ep *Endpoint) Name() string { return ep.node.Name() }

// Connect joins two endpoints with a dedicated control link (cfg applies in
// both directions) and installs the mutual routes.
func Connect(a, b *Endpoint, cfg netsim.LinkConfig) *netsim.Link {
	l := a.node.Network().ConnectSymmetric(a.node, b.node, cfg)
	a.peer(b.Addr()).route = l.A
	b.peer(a.Addr()).route = l.B
	return l
}

// peer returns the state kept for addr, created on first mention (normally
// Connect's). Noinline keeps the allocation out of Receive's escape profile.
//
//go:noinline
func (ep *Endpoint) peer(addr pkt.Addr) *peerState {
	ps := ep.peers[addr]
	if ps == nil {
		ps = &peerState{ahead: make(map[uint32]bool)}
		ep.peers[addr] = ps
	}
	return ps
}

// NextSeq allocates the next sequence number toward peer. Sequences are
// strictly monotonic per (endpoint, peer) pair, starting at 1 — the receiver's
// duplicate filter counts on both.
func (ep *Endpoint) NextSeq(peer pkt.Addr) uint32 {
	ps := ep.peer(peer)
	ps.nextSeq++
	return ps.nextSeq
}

// Send opens a transaction toward peer: a data frame of the given wire
// size is transmitted on the route's link, retransmitted every T3 until
// acked, and failed terminally after N3 retransmissions. deliver runs
// at most once at the receiver (duplicates are suppressed there), and
// never after the transaction failed; onFail (may be nil) receives the
// terminal timeout error; onDone (may be nil) receives the transaction's
// transport observations at ack time.
//
// seq must come from NextSeq for this peer — passing it in (rather than
// allocating here) lets callers stamp the same value into the protocol
// encoding (GTPv2 Seq, SCTP TSN) before computing the wire size.
//
//acacia:hotpath
func (ep *Endpoint) Send(peer pkt.Addr, seq uint32, name string, size int, deliver func(), onFail func(error), onDone func(TxInfo)) {
	ps := ep.peers[peer]
	if ps == nil || ps.route == nil {
		noRoute(ep.Name(), peer)
	}
	f := ep.tr.frames.Take()
	f.seq, f.deliver = seq, deliver
	tpl := ep.node.NewPacket()
	tpl.Flow = pkt.FiveTuple{Src: ep.Addr(), Dst: peer}
	tpl.Size = size
	tpl.Payload = f
	tx := ep.tr.txns.Take()
	tx.ep, tx.peer, tx.route, tx.seq, tx.name, tx.tpl = ep, peer, ps.route, seq, name, tpl
	tx.start = ep.eng.Now()
	tx.onFail, tx.onDone = onFail, onDone
	ep.pending[txnKey{peer, seq}] = tx
	ep.tr.sent.Inc()
	ep.transmit(tx)
}

// noRoute is noinline so the panic-path boxing stays out of Send's escape
// profile.
//
//go:noinline
func noRoute(name string, peer pkt.Addr) {
	panic(fmt.Sprintf("ctl: endpoint %s has no route to %v", name, peer))
}

// transmit sends one attempt (a pooled clone of the pristine template, so
// per-hop state like queue wait restarts per attempt) and arms the T3
// timer, whose callback is package-level with the transaction as its arg.
//
//acacia:hotpath
func (ep *Endpoint) transmit(tx *txn) {
	tx.route.Send(ep.node.Network().ClonePacket(tx.tpl))
	tx.timer = ep.eng.ScheduleArg(T3, expire, tx)
}

// expire fires when T3 elapses without an ack: retransmit, or fail the
// transaction once the retry budget is spent.
func expire(v any) {
	tx := v.(*txn)
	ep := tx.ep
	key := txnKey{tx.peer, tx.seq}
	if ep.pending[key] != tx {
		return // acked in the meantime
	}
	if tx.retries >= N3 {
		delete(ep.pending, key)
		// The sender has given up, so no attempt may deliver now: one still
		// in flight lands as an acked no-op. That attempt still carries the
		// data frame, so the frame is abandoned; the template and the
		// transaction go back to their pools.
		FrameOf(tx.tpl).deliver = nil
		ep.tr.timeouts.Inc()
		ep.eng.Metrics().Scope("epc/txn").Emit("timeout",
			fmt.Sprintf("%s seq=%d %s->%v", tx.name, tx.seq, ep.Name(), tx.peer))
		err := fmt.Errorf("ctl: %s (seq %d) from %s to %v timed out after %d retransmissions",
			tx.name, tx.seq, ep.Name(), tx.peer, tx.retries)
		onFail := tx.onFail
		ep.node.Network().Release(tx.tpl)
		ep.tr.recycleTxn(tx)
		if onFail != nil {
			onFail(err)
		}
		return
	}
	tx.retries++
	ep.tr.retrans.Inc()
	ep.transmit(tx)
}

// Handle is the packet handler installed on dedicated control nodes.
// Anything that is not a control frame is dropped: these nodes carry no
// data plane.
func (ep *Endpoint) Handle(_ *netsim.Port, p *netsim.Packet) {
	if f := FrameOf(p); f != nil {
		ep.Receive(p, f)
		return
	}
	ep.node.Network().Release(p)
}

// Receive processes one arriving control frame: data frames are acked
// (always — a retransmitted request re-acks) and delivered once; ack
// frames retire the pending transaction and report its transport
// observations.
//
//acacia:hotpath
func (ep *Endpoint) Receive(p *netsim.Packet, f *Frame) {
	peer := p.Flow.Src
	key := txnKey{peer, f.seq}
	if f.ack {
		tx := ep.pending[key]
		if tx == nil {
			// Duplicate ack; transaction already retired.
			ep.tr.recycleFrame(f)
			ep.node.Network().Release(p)
			return
		}
		delete(ep.pending, key)
		tx.timer.Cancel()
		ep.tr.acks.Inc()
		rtt := ep.eng.Now().Sub(tx.start)
		ep.tr.latency.Observe(float64(rtt) / float64(time.Millisecond))
		info := TxInfo{QueueWait: f.queueWait, Retrans: tx.retries}
		onDone := tx.onDone
		ep.tr.recycleFrame(f)
		ep.node.Network().Release(p)
		// Retire the transaction's resources. The template never rides a
		// link itself (attempts are clones), so it always returns to the
		// packet pool. The data frame is shared by every clone: with FIFO
		// control links, the acked attempt having arrived means earlier
		// attempts arrived or were dropped, but a retransmission issued
		// before this ack landed may still be in flight — so the frame is
		// recycled only when nothing was ever retransmitted.
		if tx.retries == 0 {
			if df := FrameOf(tx.tpl); df != nil {
				ep.tr.recycleFrame(df)
			}
		}
		ep.node.Network().Release(tx.tpl)
		ep.tr.recycleTxn(tx)
		if onDone != nil {
			onDone(info)
		}
		return
	}
	// Data frame: ack unconditionally so a lost ack is repaired by the
	// retransmitted request, echoing what this attempt experienced.
	ps := ep.peer(peer)
	if back := ps.route; back != nil {
		ack := ep.tr.frames.Take()
		ack.ack, ack.seq, ack.queueWait = true, f.seq, p.QueueWait
		ap := ep.node.NewPacket()
		ap.Flow = pkt.FiveTuple{Src: ep.Addr(), Dst: peer}
		ap.Size = AckBytes
		ap.Payload = ack
		back.Send(ap)
	}
	ep.node.Network().Release(p)
	if ps.duplicate(f.seq) {
		ep.tr.dups.Inc()
		return
	}
	if f.deliver != nil {
		f.deliver()
	}
}
