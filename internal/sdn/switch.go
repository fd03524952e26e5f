// Package sdn implements the split user plane of the ACACIA testbed: an
// Open vSwitch-style switch extended with GTP encapsulation (the GW-U) and
// an OpenFlow controller channel (the Ryu analog). The controller side is a
// thin message layer — the brains (which flows to install for which bearer)
// live in the EPC gateway control planes that drive it.
//
// The switch models the two data paths of the paper's Fig. 8 comparison:
// a slow path that consults the OpenFlow table in user space for the first
// packet of each flow, and a kernel-resident fast path (megaflow cache) that
// handles subsequent packets at a fraction of the cost. A legacy user-space
// gateway (OpenEPC-style) is the same switch with the fast path disabled and
// a heavier per-packet cost.
package sdn

import (
	"math/bits"
	"slices"
	"time"

	"acacia/internal/ctl"
	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sim"
	"acacia/internal/telemetry"
)

// FlowEntry is one OpenFlow table entry as the controller specifies it.
// Controller.InstallFlow copies it, its actions included, so the caller's
// Actions slice is never retained; it may hold at most maxActions.
type FlowEntry struct {
	Priority uint16
	Match    pkt.Match
	Actions  []pkt.Action
	Cookie   uint64
}

// maxActions bounds a FlowEntry's action list: the longest the gateways
// program is SetTunnel then Output.
const maxActions = 2

// flowRule is a FlowEntry as the switch and the pooled FlowMod record hold
// it: the actions inline, so storing a rule allocates nothing and keeps no
// caller memory alive.
type flowRule struct {
	Priority uint16
	nacts    uint8
	Match    pkt.Match
	acts     [maxActions]pkt.Action
	Cookie   uint64
}

// set makes r a copy of e, whose actions the caller has checked fit.
func (r *flowRule) set(e *FlowEntry) {
	*r = flowRule{Priority: e.Priority, nacts: uint8(len(e.Actions)), Match: e.Match, Cookie: e.Cookie}
	for i, a := range e.Actions {
		r.acts[i] = a
	}
}

// actions returns the rule's action list, which aliases the rule.
func (r *flowRule) actions() []pkt.Action { return r.acts[:r.nacts] }

// flowSlot is an installed entry: the rule, its links in the switch's
// index (DESIGN.md §3h) and its run-time state. Slots are numbered from 1
// (0 is "none") and an entry keeps its number from install to removal; a
// vacant slot has rank 0 and threads the free list through next.
type flowSlot struct {
	flowRule
	// rank orders entries the way the table scan resolved overlaps, lowest
	// first: bits 63..48 hold ^Priority, 47..44 hold 15-specificity, 43..0
	// the arrival sequence (a replace keeps the one it replaces). Without
	// the specificity bits it is table order: priority, then arrival.
	rank uint64
	// next chains the entries that share a match key, by ascending rank;
	// cookieNext those that share a cookie bucket.
	next, cookieNext int32
}

const (
	rankSeqBits = 44
	slotChunk   = 32 // slots per storage chunk: 32 × 128 B = 4 KiB
)

// PathCosts models per-packet processing cost on each path.
type PathCosts struct {
	// FastPath is the per-packet cost of a megaflow cache hit (kernel
	// datapath).
	FastPath time.Duration
	// SlowPath is the cost of a user-space table lookup + cache insert
	// (first packet of a flow).
	SlowPath time.Duration
	// FastPathEnabled selects whether the megaflow cache is used at all;
	// the legacy user-space GW runs every packet through the slow path.
	FastPathEnabled bool
}

// ACACIAGWCosts are the extended-OVS gateway costs: a cheap kernel fast
// path after the first packet. At 1.2 µs/packet a single switch sustains
// ≈9 Gbps of 1400-byte packets — the data plane is link-limited, as the
// paper's Fig. 8 shows.
var ACACIAGWCosts = PathCosts{
	FastPath:        1200 * time.Nanosecond,
	SlowPath:        30 * time.Microsecond,
	FastPathEnabled: true,
}

// OpenEPCGWCosts model the vanilla OpenEPC user-space gateway: every packet
// pays the user-space GTP processing cost (≈35 µs), capping throughput
// around 320 Mbps for 1400-byte packets.
var OpenEPCGWCosts = PathCosts{
	SlowPath:        35 * time.Microsecond,
	FastPathEnabled: false,
}

// IdealGWCosts is the zero-cost forwarding bound of Fig. 8.
var IdealGWCosts = PathCosts{FastPathEnabled: true}

// cacheKey identifies a megaflow: the exact packet header view the fast
// path hashes, packed into six 32-bit words (ports is srcPort<<16|dstPort,
// protoTOS is proto<<8|tos). With no padding the map hashes the key as one
// run of memory instead of field by field; 4-byte alignment keeps its map
// slot at 28 bytes.
type cacheKey struct {
	src, dst, ports, teid, inPort, protoTOS uint32
}

// Shape bits for the exact-match index: one bit per packet-visible match
// field. EthType has no bit — the packet view carries no EthType, so entries
// that differ only there share a key and are told apart on its chain.
const (
	shpInPort uint8 = 1 << iota
	shpIPProto
	shpIPv4Src
	shpIPv4Dst
	shpUDPSrc
	shpUDPDst
	shpTunnelID
	numShapes
)

// idxKey is one index key: the shape plus the exact values of the fields
// the shape selects (unselected fields stay zero). Every Match in this model
// is exact-per-field (set = exact value, unset = wildcard), so every table
// entry hashes to exactly one (shape, values) key. The fields are ordered to
// pack without holes, so the map hashes and compares them as one run.
type idxKey struct {
	teid         uint64
	inPort       uint32
	src, dst     pkt.Addr
	sport, dport uint16
	shape, proto uint8
}

// entryKey projects a match onto its index key.
func entryKey(m *pkt.Match) idxKey {
	var k idxKey
	var set [7]bool
	k.inPort, set[0] = m.InPort.Get()
	k.proto, set[1] = m.IPProto.Get()
	k.src, set[2] = m.IPv4Src.Get()
	k.dst, set[3] = m.IPv4Dst.Get()
	k.sport, set[4] = m.UDPSrc.Get()
	k.dport, set[5] = m.UDPDst.Get()
	k.teid, set[6] = m.TunnelID.Get()
	for i, on := range set {
		if on {
			k.shape |= 1 << i
		}
	}
	return k
}

// probeKey projects a packet view onto one shape's hash key.
func probeKey(shape uint8, inPort uint32, flow pkt.FiveTuple, tunnelID uint64) idxKey {
	k := idxKey{shape: shape}
	if shape&shpInPort != 0 {
		k.inPort = inPort
	}
	if shape&shpIPProto != 0 {
		k.proto = flow.Proto
	}
	if shape&shpIPv4Src != 0 {
		k.src = flow.Src
	}
	if shape&shpIPv4Dst != 0 {
		k.dst = flow.Dst
	}
	if shape&shpUDPSrc != 0 {
		k.sport = flow.SrcPort
	}
	if shape&shpUDPDst != 0 {
		k.dport = flow.DstPort
	}
	if shape&shpTunnelID != 0 {
		k.teid = tunnelID
	}
	return k
}

// SwitchStats counts switch activity. It is a point-in-time view assembled
// from the switch's telemetry counters, which live in the engine's metrics
// registry under sdn/<node>/ (e.g. sdn/gw-u/fastpath/hits).
type SwitchStats struct {
	FastPathHits uint64
	SlowPathHits uint64
	TableMisses  uint64 // packets sent to the controller
	Dropped      uint64 // no matching entry and no controller
	Encapsulated uint64
	Decapsulated uint64
}

// Switch is a GW-U: an OpenFlow switch with GTP logical-port semantics.
type Switch struct {
	// DPID is the datapath id.
	DPID uint64
	node *netsim.Node
	eng  *sim.Engine

	// The flow table is one exact-match index over slot-stable storage
	// (DESIGN.md §3h), kept current by every table write. slots holds the
	// entries in chunks of slotChunk, so growth never copies the table;
	// nslots have been handed out, flows of them are live and free heads the
	// vacant ones. index maps a match key to the best-ranked entry carrying
	// that (shape, values) pair, cookieHeads a cookie's hash to a bucket of
	// entries; both chains run through the slots. shapes lists the match
	// shapes present (shapeKeys counts their keys): slow-path classify
	// probes one key per listed shape.
	slots       []*[slotChunk]flowSlot
	nslots      int32
	flows       int
	free        int32
	seq         uint64 // last arrival sequence handed out
	index       map[idxKey]int32
	cookieHeads []int32
	cookieShift uint8
	shapes      []uint8
	shapeKeys   [numShapes]int32

	cache    map[cacheKey]int32 // megaflow cache: key -> slot
	cacheGen uint32             // bumped by every flush
	costs    PathCosts
	gtpPort  []bool // by port id: GTP logical-port semantics

	controller *Controller
	// ctlEP is the switch's OpenFlow control endpoint, set when
	// Controller.EnableTransport wires the switch.
	ctlEP   *ctl.Endpoint
	pathMon *PathMonitor

	// Single-server CPU for per-packet processing costs. cpuCur stages the
	// packet being served; cpuDoneF is the method value bound once in
	// NewSwitch so per-packet service scheduling allocates no closure.
	// cpuQueue holds the waiting packets (serveNext pops them).
	// cpuKey/cpuSlot/cpuGen stage classifyCost's one megaflow probe for
	// process: the key, the slot found (0 = miss) and the cache generation
	// it was read under (§3h). Here, not in pendingPacket: cpuQueue is
	// unbounded and Fig 8 overloads it.
	busy     bool
	cpuQueue netsim.FIFO[pendingPacket]
	cpuCur   pendingPacket
	cpuKey   cacheKey
	cpuSlot  int32
	cpuGen   uint32
	cpuDoneF func()

	// Activity counters, registered under sdn/<node>/ in the engine's
	// telemetry registry. Stats() assembles the SwitchStats compat view.
	fastHits     *telemetry.Counter
	slowHits     *telemetry.Counter
	tableMisses  *telemetry.Counter
	dropped      *telemetry.Counter
	encapsulated *telemetry.Counter
	decapsulated *telemetry.Counter
	occupancy    *telemetry.Gauge // megaflow cache entries currently live

	// tunnel metadata staged by SetTunnel between actions, per packet
	// (processing is serialized, one packet at a time).
	stagedTEID uint64
	stagedDst  pkt.Addr
}

type pendingPacket struct {
	ingress *netsim.Port
	p       *netsim.Packet
}

// NewSwitch wraps node as a GW-U with the given path costs.
func NewSwitch(dpid uint64, node *netsim.Node, costs PathCosts) *Switch {
	sw := &Switch{
		DPID:  dpid,
		node:  node,
		eng:   node.Engine(),
		cache: make(map[cacheKey]int32),
		index: make(map[idxKey]int32),
		costs: costs,
	}
	sw.cpuDoneF = sw.cpuDone
	sw.growCookieHeads()
	scope := node.Engine().Metrics().Scope("sdn").Scope(node.Name())
	sw.fastHits = scope.Counter("fastpath/hits")
	sw.slowHits = scope.Counter("slowpath/hits")
	sw.tableMisses = scope.Counter("table-misses")
	sw.dropped = scope.Counter("dropped")
	sw.encapsulated = scope.Counter("encapsulated")
	sw.decapsulated = scope.Counter("decapsulated")
	// flows-expired and meter-drops read 0: nothing expires idle flows
	// and no entry is metered. They stay registered because the -metrics
	// listing names them.
	scope.Counter("flows-expired")
	scope.Counter("meter-drops")
	sw.occupancy = scope.Gauge("megaflow/occupancy")
	node.SetHandler(sw.receive)
	return sw
}

// Node returns the underlying network node.
func (sw *Switch) Node() *netsim.Node { return sw.node }

// Stats returns activity counters, read back from the telemetry registry
// the switch registers into.
func (sw *Switch) Stats() SwitchStats {
	return SwitchStats{
		FastPathHits: sw.fastHits.Value(),
		SlowPathHits: sw.slowHits.Value(),
		TableMisses:  sw.tableMisses.Value(),
		Dropped:      sw.dropped.Value(),
		Encapsulated: sw.encapsulated.Value(),
		Decapsulated: sw.decapsulated.Value(),
	}
}

// FlowCount reports installed flow entries.
func (sw *Switch) FlowCount() int { return sw.flows }

// MarkGTPPort gives a port GTP logical-port semantics: packets output
// through it are encapsulated with the staged tunnel metadata, and tunneled
// packets arriving on it addressed to this switch are decapsulated before
// table lookup.
func (sw *Switch) MarkGTPPort(portID int) {
	if portID >= len(sw.gtpPort) {
		sw.gtpPort = append(sw.gtpPort, make([]bool, portID+1-len(sw.gtpPort))...)
	}
	sw.gtpPort[portID] = true
}

// receive is the netsim handler: queue the packet for the (serialized)
// switch CPU. OpenFlow control frames bypass the data-plane CPU queue and
// go straight to the control endpoint.
//
//acacia:hotpath
func (sw *Switch) receive(ingress *netsim.Port, p *netsim.Packet) {
	if sw.ctlEP != nil {
		if f := ctl.FrameOf(p); f != nil {
			sw.ctlEP.Receive(p, f)
			return
		}
	}
	sw.cpuQueue.Push(pendingPacket{ingress, p})
	if !sw.busy {
		sw.serveNext()
	}
}

// serveNext starts serving the next waiting packet, or idles the CPU.
//
//acacia:hotpath
func (sw *Switch) serveNext() {
	if sw.cpuQueue.Len() == 0 {
		sw.busy = false
		return
	}
	sw.busy = true
	sw.cpuCur = sw.cpuQueue.Pop()
	cost := sw.classifyCost(sw.cpuCur)
	sw.eng.Schedule(cost, sw.cpuDoneF)
}

// cpuDone finishes one CPU service period: process the staged packet, then
// serve the next.
func (sw *Switch) cpuDone() {
	item := sw.cpuCur
	sw.cpuCur = pendingPacket{}
	sw.process(item.ingress, item.p)
	sw.serveNext()
}

// classifyCost picks the per-packet CPU cost — fast path on cache hit, slow
// path otherwise — and stages the probe for process. With the fast path
// disabled the cache stays empty, so the probe is the miss it should be.
func (sw *Switch) classifyCost(item pendingPacket) time.Duration {
	sw.cpuKey = sw.keyFor(item.ingress, item.p)
	sw.cpuSlot, sw.cpuGen = sw.cache[sw.cpuKey], sw.cacheGen
	if sw.cpuSlot != 0 {
		return sw.costs.FastPath
	}
	return sw.costs.SlowPath
}

// keyFor computes the megaflow key as the packet will look at table-lookup
// time (after logical-port decapsulation).
func (sw *Switch) keyFor(ingress *netsim.Port, p *netsim.Packet) cacheKey {
	teid := uint32(0)
	if p.Tunneled() && p.TunnelDst == sw.node.Addr() {
		teid = p.TEID
	}
	inPort := uint32(0)
	if ingress != nil {
		inPort = uint32(ingress.ID)
	}
	f := p.Flow
	return cacheKey{
		src:      f.Src.Uint32(),
		dst:      f.Dst.Uint32(),
		ports:    uint32(f.SrcPort)<<16 | uint32(f.DstPort),
		teid:     teid,
		inPort:   inPort,
		protoTOS: uint32(f.Proto)<<8 | uint32(p.TOS),
	}
}

func (sw *Switch) process(ingress *netsim.Port, p *netsim.Packet) {
	// GTP-U path management traffic is handled by the GTP stack itself,
	// not the flow table.
	if sw.handleEcho(ingress, p) {
		sw.node.Network().Release(p)
		return
	}
	key := sw.cpuKey

	// GTP logical-port ingress: decapsulate tunneled packets addressed to
	// this switch; the TEID remains available as tunnel metadata (in key).
	tunnelMeta := uint64(0)
	if p.Tunneled() && p.TunnelDst == sw.node.Addr() {
		tunnelMeta = uint64(p.Decapsulate())
		sw.decapsulated.Inc()
	}

	inPort := key.inPort
	// Fast path. Every table write flushes the cache, so a cached slot still
	// holds the entry that won this key's slow-path lookup. The staged probe
	// stands unless a write flushed the cache since; inserts happen only
	// below, one packet at a time, so a staged miss is still a miss.
	idx := sw.cpuSlot
	if sw.cpuGen != sw.cacheGen {
		idx = sw.cache[key]
	}
	if idx != 0 {
		sw.fastHits.Inc()
		sw.apply(sw.slot(idx), p)
		return
	}

	// Slow path: user-space table lookup.
	idx = sw.lookup(inPort, p.Flow, tunnelMeta)
	if idx == 0 {
		sw.tableMisses.Inc()
		if sw.controller != nil {
			// The controller keeps the packet (buffer-and-page re-injects
			// it), so ownership transfers rather than being released.
			sw.controller.packetIn(sw, inPort, p, tunnelMeta)
		} else {
			sw.dropped.Inc()
			sw.node.Network().Release(p)
		}
		return
	}
	sw.slowHits.Inc()
	if sw.costs.FastPathEnabled {
		sw.cache[key] = idx
		sw.occupancy.Set(float64(len(sw.cache)))
	}
	sw.apply(sw.slot(idx), p)
}

// slot returns the entry in slot i.
func (sw *Switch) slot(i int32) *flowSlot { return &sw.slots[(i-1)/slotChunk][(i-1)%slotChunk] }

// lookup returns the slot of the winning entry for a packet view, or 0, by
// probing one index key per shape present in the table. The winner is the
// table scan's: higher priority, then higher specificity, then first
// installed — the lowest rank.
//
//acacia:hotpath
func (sw *Switch) lookup(inPort uint32, flow pkt.FiveTuple, tunnelID uint64) int32 {
	best, bestRank := int32(0), ^uint64(0)
	for _, shape := range sw.shapes {
		if c, ok := sw.index[probeKey(shape, inPort, flow, tunnelID)]; ok {
			if r := sw.slot(c).rank; r < bestRank {
				best, bestRank = c, r
			}
		}
	}
	return best
}

// apply executes an entry's actions on the packet.
func (sw *Switch) apply(e *flowSlot, p *netsim.Packet) {
	sw.stagedTEID, sw.stagedDst = 0, pkt.Addr{}
	for _, a := range e.actions() {
		switch a.Type {
		case pkt.ActionSetTunnel:
			sw.stagedTEID = a.TunnelID
			sw.stagedDst = a.TunnelDst
		case pkt.ActionSetField:
			p.TOS = a.FieldValue
		case pkt.ActionOutput:
			sw.output(int(a.Port), p)
		case pkt.ActionDrop:
			sw.node.Network().Release(p)
			return
		}
	}
}

//acacia:hotpath
func (sw *Switch) output(portID int, p *netsim.Packet) {
	if portID < 0 || portID >= len(sw.node.Ports()) {
		sw.dropped.Inc()
		sw.node.Network().Release(p)
		return
	}
	if portID < len(sw.gtpPort) && sw.gtpPort[portID] && sw.stagedTEID != 0 {
		p.Encapsulate(sw.node.Addr(), sw.stagedDst, uint32(sw.stagedTEID))
		sw.encapsulated.Inc()
	}
	sw.node.Port(portID).Send(p)
}

// installFlow adds an entry, or replaces in place the one with the same
// priority and match (the replacement keeps its predecessor's slot, arrival
// order and chain position). Like every table write it flushes the
// megaflow cache.
//
//acacia:hotpath
func (sw *Switch) installFlow(e flowRule) {
	sw.flushCache()
	key := entryKey(&e.Match)
	class := uint64(^e.Priority)<<4 | uint64(15-e.Match.SpecificityScore()) // rank without the sequence
	// Walk the key's chain to the first entry ranked after this class.
	prev, at := int32(0), sw.index[key]
	isNewKey := at == 0
	for at != 0 {
		s := sw.slot(at)
		if c := s.rank >> rankSeqBits; c > class {
			break
		} else if c == class && s.Match == e.Match {
			if s.Cookie == e.Cookie {
				s.flowRule = e
				return
			}
			sw.unlinkCookie(at)
			s.flowRule = e
			sw.linkCookie(at)
			return
		}
		prev, at = at, s.next
	}
	if sw.flows == len(sw.cookieHeads) {
		sw.growCookieHeads()
	}
	i := sw.allocSlot()
	s := sw.slot(i)
	sw.seq++
	s.rank, s.next = class<<rankSeqBits|sw.seq, at
	if prev != 0 {
		sw.slot(prev).next = i
	} else {
		sw.index[key] = i
		if isNewKey {
			if sw.shapeKeys[key.shape] == 0 {
				sw.shapes = append(sw.shapes, key.shape)
			}
			sw.shapeKeys[key.shape]++
		}
	}
	sw.flows++
	s.flowRule = e
	sw.linkCookie(i)
}

// allocSlot returns a vacant slot: the most recently freed one, else the
// next of the last chunk.
func (sw *Switch) allocSlot() int32 {
	if i := sw.free; i != 0 {
		sw.free = sw.slot(i).next
		return i
	}
	if sw.nslots%slotChunk == 0 {
		sw.slots = sw.growSlots()
	}
	sw.nslots++
	return sw.nslots
}

//go:noinline
func (sw *Switch) growSlots() []*[slotChunk]flowSlot {
	return append(sw.slots, new([slotChunk]flowSlot))
}

// cookieBucket returns the head link of the chain a cookie hashes to.
func (sw *Switch) cookieBucket(cookie uint64) *int32 {
	return &sw.cookieHeads[cookie*0x9e3779b97f4a7c15>>sw.cookieShift]
}

// growCookieHeads doubles the bucket array (to at least 8) and rehashes the
// live entries, keeping chains about one entry long.
//
//go:noinline
func (sw *Switch) growCookieHeads() {
	sw.cookieHeads = make([]int32, max(8, 2*len(sw.cookieHeads)))
	sw.cookieShift = uint8(64 - bits.TrailingZeros(uint(len(sw.cookieHeads))))
	for i := int32(1); i <= sw.nslots; i++ {
		if sw.slot(i).rank != 0 {
			sw.linkCookie(i)
		}
	}
}

// linkCookie puts slot i at the head of its cookie's bucket chain.
func (sw *Switch) linkCookie(i int32) {
	s, b := sw.slot(i), sw.cookieBucket(sw.slot(i).Cookie)
	s.cookieNext, *b = *b, i
}

// unlinkCookie takes slot i out of its cookie's bucket chain.
func (sw *Switch) unlinkCookie(i int32) {
	b := sw.cookieBucket(sw.slot(i).Cookie)
	for *b != i {
		b = &sw.slot(*b).cookieNext
	}
	*b = sw.slot(i).cookieNext
}

// release takes slot i out of its match key's chain (its cookie chain is the
// caller's business) and returns it to the free list.
func (sw *Switch) release(i int32) {
	s := sw.slot(i)
	key := entryKey(&s.Match)
	switch h := sw.index[key]; {
	case h != i:
		p := sw.slot(h)
		for p.next != i {
			p = sw.slot(p.next)
		}
		p.next = s.next
	case s.next != 0:
		sw.index[key] = s.next
	default:
		delete(sw.index, key)
		if sw.shapeKeys[key.shape]--; sw.shapeKeys[key.shape] == 0 {
			j := slices.Index(sw.shapes, key.shape)
			sw.shapes = slices.Delete(sw.shapes, j, j+1)
		}
	}
	*s = flowSlot{next: sw.free}
	sw.free = i
	sw.flows--
}

// removeFlows deletes the entries carrying the cookie, returning the count.
//
//acacia:hotpath
func (sw *Switch) removeFlows(cookie uint64) int {
	sw.flushCache()
	removed := 0
	for b := sw.cookieBucket(cookie); *b != 0; {
		i := *b
		if s := sw.slot(i); s.Cookie != cookie {
			b = &s.cookieNext
			continue
		}
		*b = sw.slot(i).cookieNext
		sw.release(i)
		removed++
	}
	return removed
}

// flushCache empties the megaflow cache: any table write invalidates every
// megaflow, as an OVS revalidation pass would (DESIGN.md §3h).
func (sw *Switch) flushCache() {
	sw.cacheGen++
	if len(sw.cache) > 0 {
		clear(sw.cache)
	}
	sw.occupancy.Set(0)
}
