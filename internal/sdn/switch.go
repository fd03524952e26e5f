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
	"fmt"
	"time"

	"acacia/internal/ctl"
	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sim"
	"acacia/internal/telemetry"
)

// FlowEntry is one OpenFlow table entry.
type FlowEntry struct {
	Priority    uint16
	Match       pkt.Match
	Actions     []pkt.Action
	Cookie      uint64
	IdleTimeout time.Duration // 0 = permanent
	// MeterBps, when non-zero, rate-limits the entry with a token-bucket
	// meter (OpenFlow 1.3 meters): packets beyond the rate are dropped.
	// The PCEF uses this to enforce bearer MBRs at the PGW-U.
	MeterBps float64
	// MeterBurstBytes bounds the bucket; zero selects 1/10 s of MeterBps.
	MeterBurstBytes int

	lastUsed sim.Time
	// Packets and Bytes count traffic handled by this entry (slow and fast
	// path combined); MeterDrops counts packets the meter policed away.
	Packets    uint64
	Bytes      uint64
	MeterDrops uint64

	// Token bucket state.
	tokens     float64
	lastRefill sim.Time
}

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
// path hashes.
type cacheKey struct {
	inPort uint32
	flow   pkt.FiveTuple
	tos    uint8
	teid   uint64
}

// Shape bits for the tuple-space slow-path index: one bit per packet-visible
// match field. EthType has no bit — the packet view carries no EthType, so
// Match.Matches ignores it and entries fold into the shape of their
// remaining fields.
const (
	shpInPort uint8 = 1 << iota
	shpIPProto
	shpIPv4Src
	shpIPv4Dst
	shpUDPSrc
	shpUDPDst
	shpTunnelID
)

// idxKey is one tuple-space hash key: the shape plus the exact values of the
// fields the shape selects (unselected fields stay zero). Every Match in
// this model is exact-per-field (set pointer = exact value, nil = wildcard),
// so every table entry hashes into exactly one (shape, values) bucket.
type idxKey struct {
	shape        uint8
	inPort       uint32
	proto        uint8
	src, dst     pkt.Addr
	sport, dport uint16
	teid         uint64
}

// matchShape computes the shape bitmap of a match.
func matchShape(m *pkt.Match) uint8 {
	var s uint8
	if m.InPort != nil {
		s |= shpInPort
	}
	if m.IPProto != nil {
		s |= shpIPProto
	}
	if m.IPv4Src != nil {
		s |= shpIPv4Src
	}
	if m.IPv4Dst != nil {
		s |= shpIPv4Dst
	}
	if m.UDPSrc != nil {
		s |= shpUDPSrc
	}
	if m.UDPDst != nil {
		s |= shpUDPDst
	}
	if m.TunnelID != nil {
		s |= shpTunnelID
	}
	return s
}

// entryKey hashes a table entry into its tuple-space bucket.
func entryKey(m *pkt.Match) idxKey {
	k := idxKey{shape: matchShape(m)}
	if m.InPort != nil {
		k.inPort = *m.InPort
	}
	if m.IPProto != nil {
		k.proto = *m.IPProto
	}
	if m.IPv4Src != nil {
		k.src = *m.IPv4Src
	}
	if m.IPv4Dst != nil {
		k.dst = *m.IPv4Dst
	}
	if m.UDPSrc != nil {
		k.sport = *m.UDPSrc
	}
	if m.UDPDst != nil {
		k.dport = *m.UDPDst
	}
	if m.TunnelID != nil {
		k.teid = *m.TunnelID
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
	FlowsExpired uint64
	MeterDrops   uint64 // packets policed away by per-entry meters
}

// Switch is a GW-U: an OpenFlow switch with GTP logical-port semantics.
type Switch struct {
	// DPID is the datapath id.
	DPID uint64
	node *netsim.Node
	eng  *sim.Engine

	table   []FlowEntry
	cache   map[cacheKey]int // megaflow cache: key -> table index
	costs   PathCosts
	gtpPort map[int]bool // ports with GTP logical-port semantics

	// Tuple-space slow-path index (DESIGN.md §3h): for every shape present
	// in the table, the exact-value bucket maps to the lowest table index
	// carrying that (shape, values) pair — which, with the table sorted by
	// descending priority and insertion-stable, is the scan winner within
	// the bucket. Lookup probes one bucket per active shape instead of
	// walking the table. Any table mutation marks the index dirty; the next
	// slow-path lookup rebuilds it (the same invalidation discipline the
	// megaflow cache already uses).
	index      map[idxKey]int
	shapes     []uint8
	indexDirty bool

	controller *Controller
	// ctlEP is the switch's OpenFlow control endpoint, set when the
	// controller runs with a networked transport (EnableTransport).
	ctlEP   *ctl.Endpoint
	pathMon *PathMonitor

	// Single-server CPU for per-packet processing costs. cpuCur stages the
	// packet being served; cpuDoneF is the method value bound once in
	// NewSwitch so per-packet service scheduling allocates no closure.
	// cpuQueue[cpuHead:] are the waiting packets; see netsim.Node.cpuQueue
	// for why popping advances a head index.
	busy     bool
	cpuQueue []pendingPacket
	cpuHead  int
	cpuCur   pendingPacket
	cpuDoneF func()

	// Activity counters, registered under sdn/<node>/ in the engine's
	// telemetry registry. Stats() assembles the SwitchStats compat view.
	fastHits     *telemetry.Counter
	slowHits     *telemetry.Counter
	tableMisses  *telemetry.Counter
	dropped      *telemetry.Counter
	encapsulated *telemetry.Counter
	decapsulated *telemetry.Counter
	flowsExpired *telemetry.Counter
	meterDrops   *telemetry.Counter
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
		DPID:    dpid,
		node:    node,
		eng:     node.Engine(),
		cache:   make(map[cacheKey]int),
		index:   make(map[idxKey]int),
		costs:   costs,
		gtpPort: make(map[int]bool),
	}
	sw.cpuDoneF = sw.cpuDone
	scope := node.Engine().Metrics().Scope("sdn").Scope(node.Name())
	sw.fastHits = scope.Counter("fastpath/hits")
	sw.slowHits = scope.Counter("slowpath/hits")
	sw.tableMisses = scope.Counter("table-misses")
	sw.dropped = scope.Counter("dropped")
	sw.encapsulated = scope.Counter("encapsulated")
	sw.decapsulated = scope.Counter("decapsulated")
	sw.flowsExpired = scope.Counter("flows-expired")
	sw.meterDrops = scope.Counter("meter-drops")
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
		FlowsExpired: sw.flowsExpired.Value(),
		MeterDrops:   sw.meterDrops.Value(),
	}
}

// FlowCount reports installed flow entries.
func (sw *Switch) FlowCount() int { return len(sw.table) }

// MarkGTPPort gives a port GTP logical-port semantics: packets output
// through it are encapsulated with the staged tunnel metadata, and tunneled
// packets arriving on it addressed to this switch are decapsulated before
// table lookup.
func (sw *Switch) MarkGTPPort(portID int) { sw.gtpPort[portID] = true }

// receive is the netsim handler: queue the packet for the (serialized)
// switch CPU. OpenFlow control frames bypass the data-plane CPU queue and
// go straight to the control endpoint.
//
//acacia:hotpath
func (sw *Switch) receive(ingress *netsim.Port, p *netsim.Packet) {
	if sw.ctlEP != nil {
		if f := ctl.FrameOf(p); f != nil {
			sw.ctlEP.Receive(ingress, p, f)
			return
		}
	}
	sw.cpuQueue = append(sw.cpuQueue, pendingPacket{ingress, p})
	if !sw.busy {
		sw.serveNext()
	}
}

//acacia:hotpath
func (sw *Switch) serveNext() {
	if len(sw.cpuQueue) == 0 {
		sw.busy = false
		return
	}
	sw.busy = true
	sw.cpuCur = sw.cpuQueue[sw.cpuHead]
	sw.cpuHead++
	// Same compaction rule as netsim.Node.serveCPU.
	if 4*sw.cpuHead >= len(sw.cpuQueue) {
		live := copy(sw.cpuQueue, sw.cpuQueue[sw.cpuHead:])
		clear(sw.cpuQueue[live:])
		sw.cpuQueue = sw.cpuQueue[:live]
		sw.cpuHead = 0
	}
	cost := sw.classifyCost(sw.cpuCur)
	sw.eng.After(cost, sw.cpuDoneF)
}

// cpuDone finishes one CPU service period: process the staged packet, then
// serve the next.
func (sw *Switch) cpuDone() {
	item := sw.cpuCur
	sw.cpuCur = pendingPacket{}
	sw.process(item.ingress, item.p)
	sw.serveNext()
}

// classifyCost picks the per-packet CPU cost: fast path on cache hit, slow
// path otherwise.
func (sw *Switch) classifyCost(item pendingPacket) time.Duration {
	if !sw.costs.FastPathEnabled {
		return sw.costs.SlowPath
	}
	key := sw.keyFor(item.ingress, item.p)
	if idx, ok := sw.cache[key]; ok && idx < len(sw.table) {
		return sw.costs.FastPath
	}
	return sw.costs.SlowPath
}

// keyFor computes the megaflow key as the packet will look at table-lookup
// time (after logical-port decapsulation).
func (sw *Switch) keyFor(ingress *netsim.Port, p *netsim.Packet) cacheKey {
	teid := uint64(0)
	if p.Tunneled() && p.TunnelDst == sw.node.Addr() {
		teid = uint64(p.TEID)
	}
	inPort := uint32(0)
	if ingress != nil {
		inPort = uint32(ingress.ID)
	}
	return cacheKey{inPort: inPort, flow: p.Flow, tos: p.TOS, teid: teid}
}

func (sw *Switch) process(ingress *netsim.Port, p *netsim.Packet) {
	// GTP-U path management traffic is handled by the GTP stack itself,
	// not the flow table.
	if sw.handleEcho(ingress, p) {
		sw.node.Network().Release(p)
		return
	}
	key := sw.keyFor(ingress, p)

	// GTP logical-port ingress: decapsulate tunneled packets addressed to
	// this switch; the TEID remains available as tunnel metadata (in key).
	tunnelMeta := uint64(0)
	if p.Tunneled() && p.TunnelDst == sw.node.Addr() {
		tunnelMeta = uint64(p.Decapsulate())
		sw.decapsulated.Inc()
	}

	inPort := key.inPort
	// Fast path.
	if sw.costs.FastPathEnabled {
		if idx, ok := sw.cache[key]; ok && idx < len(sw.table) {
			e := &sw.table[idx]
			if e.Match.Matches(inPort, p.Flow, tunnelMeta) {
				sw.fastHits.Inc()
				sw.apply(e, p)
				return
			}
			// Stale cache entry (table changed): fall through to slow path.
			delete(sw.cache, key)
			sw.occupancy.Set(float64(len(sw.cache)))
		}
	}

	// Slow path: linear table scan in priority order.
	idx := sw.lookup(inPort, p.Flow, tunnelMeta)
	if idx < 0 {
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
	sw.apply(&sw.table[idx], p)
}

// lookup returns the index of the highest-priority matching entry, or -1,
// by probing one tuple-space bucket per shape present in the table. Ties
// replicate the linear scan exactly: higher priority wins, then higher
// specificity, then the lower table index (first installed).
func (sw *Switch) lookup(inPort uint32, flow pkt.FiveTuple, tunnelID uint64) int {
	if sw.indexDirty {
		sw.rebuildIndex()
	}
	best := -1
	for _, shape := range sw.shapes {
		c, ok := sw.index[probeKey(shape, inPort, flow, tunnelID)]
		if !ok {
			continue
		}
		e := &sw.table[c]
		if !e.Match.Matches(inPort, flow, tunnelID) {
			// Guards the EthType fold: an entry keyed under this shape may
			// still carry constraints the packet view cannot satisfy.
			continue
		}
		if best < 0 {
			best = c
			continue
		}
		b := &sw.table[best]
		if e.Priority > b.Priority ||
			(e.Priority == b.Priority && e.Match.SpecificityScore() > b.Match.SpecificityScore()) ||
			(e.Priority == b.Priority && e.Match.SpecificityScore() == b.Match.SpecificityScore() && c < best) {
			best = c
		}
	}
	return best
}

// lookupScan is the historical O(#flows) linear scan, kept as the semantic
// reference: TestLookupMatchesScan holds lookup() to it entry for entry, and
// the BenchmarkScaleLookup* pair quantifies the gap at 10k entries.
func (sw *Switch) lookupScan(inPort uint32, flow pkt.FiveTuple, tunnelID uint64) int {
	best := -1
	for i := range sw.table {
		e := &sw.table[i]
		if !e.Match.Matches(inPort, flow, tunnelID) {
			continue
		}
		if best < 0 || e.Priority > sw.table[best].Priority ||
			(e.Priority == sw.table[best].Priority &&
				e.Match.SpecificityScore() > sw.table[best].Match.SpecificityScore()) {
			best = i
		}
	}
	return best
}

// rebuildIndex rehashes the table into the tuple-space buckets. Ascending
// order makes the first writer of each bucket the lowest index with that
// exact (shape, values) pair — the bucket's scan winner, since entries in
// one bucket share a specificity and the table is priority-sorted.
func (sw *Switch) rebuildIndex() {
	for k := range sw.index {
		delete(sw.index, k)
	}
	sw.shapes = sw.shapes[:0]
	for i := range sw.table {
		k := entryKey(&sw.table[i].Match)
		if _, ok := sw.index[k]; !ok {
			sw.index[k] = i
		}
		seen := false
		for _, s := range sw.shapes {
			if s == k.shape {
				seen = true
				break
			}
		}
		if !seen {
			sw.shapes = append(sw.shapes, k.shape)
		}
	}
	sw.indexDirty = false
}

// meterAllows refills and charges the entry's token bucket; a false return
// polices the packet away.
func (e *FlowEntry) meterAllows(now sim.Time, size int) bool {
	if e.MeterBps <= 0 {
		return true
	}
	burst := float64(e.MeterBurstBytes)
	if burst == 0 {
		burst = e.MeterBps / 8 / 10 // 100 ms of rate
	}
	elapsed := now.Sub(e.lastRefill).Seconds()
	e.lastRefill = now
	e.tokens += elapsed * e.MeterBps / 8
	if e.tokens > burst {
		e.tokens = burst
	}
	if e.tokens < float64(size) {
		e.MeterDrops++
		return false
	}
	e.tokens -= float64(size)
	return true
}

// apply executes an entry's actions on the packet.
func (sw *Switch) apply(e *FlowEntry, p *netsim.Packet) {
	e.lastUsed = sw.eng.Now()
	if !e.meterAllows(sw.eng.Now(), p.Size) {
		sw.meterDrops.Inc()
		sw.node.Network().Release(p)
		return
	}
	e.Packets++
	e.Bytes += uint64(p.Size)
	sw.stagedTEID, sw.stagedDst = 0, pkt.Addr{}
	for _, a := range e.Actions {
		switch a.Type {
		case pkt.ActionSetTunnel:
			sw.stagedTEID = a.TunnelID
			sw.stagedDst = a.TunnelDst
		case pkt.ActionSetField:
			p.TOS = a.FieldValue
		case pkt.ActionOutput:
			out := p
			sw.output(int(a.Port), out)
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
	if sw.gtpPort[portID] && sw.stagedTEID != 0 {
		p.Encapsulate(sw.node.Addr(), sw.stagedDst, uint32(sw.stagedTEID))
		sw.encapsulated.Inc()
	}
	sw.node.Port(portID).Send(p)
}

// installFlow adds (or replaces, on identical match+priority) an entry.
func (sw *Switch) installFlow(e FlowEntry) {
	e.lastUsed = sw.eng.Now()
	if e.MeterBps > 0 {
		// Start with a full bucket so the meter polices steady-state rate,
		// not the first burst after installation.
		burst := float64(e.MeterBurstBytes)
		if burst == 0 {
			burst = e.MeterBps / 8 / 10
		}
		e.tokens = burst
		e.lastRefill = sw.eng.Now()
	}
	for i := range sw.table {
		if sw.table[i].Priority == e.Priority && matchEqual(&sw.table[i].Match, &e.Match) {
			sw.table[i] = e
			sw.invalidateCache()
			return
		}
	}
	// Insert keeping the table ordered by descending priority for
	// deterministic iteration in dumps. Shifting only strictly-lower
	// priorities keeps insertion stable (equal priorities stay in arrival
	// order, as sort.SliceStable did) without its per-call closure and
	// swapper allocations on the flow-install path.
	sw.table = append(sw.table, e)
	i := len(sw.table) - 1
	for i > 0 && sw.table[i-1].Priority < e.Priority {
		sw.table[i] = sw.table[i-1]
		i--
	}
	sw.table[i] = e
	sw.invalidateCache()
}

// removeFlows deletes entries matching the cookie, returning the count.
func (sw *Switch) removeFlows(cookie uint64) int {
	kept := sw.table[:0]
	removed := 0
	for _, e := range sw.table {
		if e.Cookie == cookie {
			removed++
			continue
		}
		kept = append(kept, e)
	}
	sw.table = kept
	sw.invalidateCache()
	return removed
}

// invalidateCache flushes the megaflow cache and marks the tuple-space
// index dirty; indices into the table are no longer valid after any table
// mutation.
func (sw *Switch) invalidateCache() {
	for k := range sw.cache {
		delete(sw.cache, k)
	}
	sw.occupancy.Set(0)
	sw.indexDirty = true
}

// ExpireIdleFlows removes entries idle past their timeout, as the periodic
// OVS revalidator does. Returns the number removed.
func (sw *Switch) ExpireIdleFlows() int {
	now := sw.eng.Now()
	kept := sw.table[:0]
	removed := 0
	for _, e := range sw.table {
		if e.IdleTimeout > 0 && now.Sub(e.lastUsed) >= e.IdleTimeout {
			removed++
			sw.flowsExpired.Inc()
			if sw.controller != nil {
				sw.controller.flowRemoved(sw, &e)
			}
			continue
		}
		kept = append(kept, e)
	}
	sw.table = kept
	if removed > 0 {
		sw.invalidateCache()
	}
	return removed
}

// DumpFlows returns a human-readable table dump for debugging.
func (sw *Switch) DumpFlows() string {
	s := fmt.Sprintf("switch dpid=%d (%s): %d flows\n", sw.DPID, sw.node.Name(), len(sw.table))
	for _, e := range sw.table {
		s += fmt.Sprintf("  prio=%d cookie=%#x pkts=%d actions=%d\n", e.Priority, e.Cookie, e.Packets, len(e.Actions))
	}
	return s
}

func matchEqual(a, b *pkt.Match) bool {
	eqU32 := func(x, y *uint32) bool { return (x == nil) == (y == nil) && (x == nil || *x == *y) }
	eqU16 := func(x, y *uint16) bool { return (x == nil) == (y == nil) && (x == nil || *x == *y) }
	eqU8 := func(x, y *uint8) bool { return (x == nil) == (y == nil) && (x == nil || *x == *y) }
	eqU64 := func(x, y *uint64) bool { return (x == nil) == (y == nil) && (x == nil || *x == *y) }
	eqAddr := func(x, y *pkt.Addr) bool { return (x == nil) == (y == nil) && (x == nil || *x == *y) }
	return eqU32(a.InPort, b.InPort) && eqU16(a.EthType, b.EthType) && eqU8(a.IPProto, b.IPProto) &&
		eqAddr(a.IPv4Src, b.IPv4Src) && eqAddr(a.IPv4Dst, b.IPv4Dst) &&
		eqU16(a.UDPSrc, b.UDPSrc) && eqU16(a.UDPDst, b.UDPDst) && eqU64(a.TunnelID, b.TunnelID)
}
