package sdn

import (
	"bytes"
	"testing"
	"time"

	"acacia/internal/ctl"
	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sim"
)

// gwTopo builds: src -- sgwU -- pgwU -- dst with 1 Gbps links and installs
// the GTP flow chain for one uplink bearer:
//
//	src encapsulates toward sgwU with TEID s1=101;
//	sgwU re-tunnels to pgwU with TEID s5=201;
//	pgwU decapsulates and forwards plain to dst.
type gwTopo struct {
	eng        *sim.Engine
	nw         *netsim.Network
	src, dst   *netsim.Host
	sgwU, pgwU *Switch
	s5         *netsim.Link // the SGW-U <-> PGW-U link
	ctl        *Controller
}

func buildGWTopo(t *testing.T, costs PathCosts) *gwTopo {
	t.Helper()
	eng := sim.NewEngine(7)
	nw := netsim.New(eng)
	srcN := nw.AddNode("src", pkt.AddrFrom(10, 0, 0, 1))
	sgwN := nw.AddNode("sgw-u", pkt.AddrFrom(10, 0, 0, 2))
	pgwN := nw.AddNode("pgw-u", pkt.AddrFrom(10, 0, 0, 3))
	dstN := nw.AddNode("dst", pkt.AddrFrom(10, 0, 0, 4))
	cfg := netsim.LinkConfig{BitsPerSecond: 1e9, Propagation: 100 * time.Microsecond}
	nw.ConnectSymmetric(srcN, sgwN, cfg)       // src port0 <-> sgw port0
	s5 := nw.ConnectSymmetric(sgwN, pgwN, cfg) // sgw port1 <-> pgw port0
	nw.ConnectSymmetric(pgwN, dstN, cfg)       // pgw port1 <-> dst port0

	sgw := NewSwitch(1, sgwN, costs)
	pgw := NewSwitch(2, pgwN, costs)
	sgw.MarkGTPPort(0)
	sgw.MarkGTPPort(1)
	pgw.MarkGTPPort(0)

	c := NewController(eng)
	c.RTT = 200 * time.Microsecond
	c.AddSwitch(sgw)
	c.AddSwitch(pgw)
	c.EnableTransport(ctl.NewTransport(eng), nw.AddNode("sdn-ctl", pkt.AddrFrom(10, 255, 0, 10)))

	// Proactively install the uplink chain.
	c.InstallFlow(sgw, FlowEntry{
		Priority: 100, Cookie: 0xbea4e401,
		Match: pkt.Match{TunnelID: pkt.U64(101)},
		Actions: []pkt.Action{
			{Type: pkt.ActionSetTunnel, TunnelID: 201, TunnelDst: pgwN.Addr()},
			{Type: pkt.ActionOutput, Port: 1},
		},
	})
	c.InstallFlow(pgw, FlowEntry{
		Priority: 100, Cookie: 0xbea4e401,
		Match:   pkt.Match{TunnelID: pkt.U64(201)},
		Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 1}},
	})
	eng.RunFor(time.Millisecond) // let FlowMods land

	return &gwTopo{
		eng: eng, nw: nw,
		src: netsim.NewHost(srcN), dst: netsim.NewHost(dstN),
		sgwU: sgw, pgwU: pgw, s5: s5, ctl: c,
	}
}

// installEntry writes e straight into the switch's table, as a landed
// FlowMod would.
func (sw *Switch) installEntry(e FlowEntry) {
	var r flowRule
	r.set(&e)
	sw.installFlow(r)
}

// sendTunneled injects one uplink packet from src, pre-encapsulated toward
// the SGW-U as an eNB would.
func (g *gwTopo) sendTunneled(size int) {
	p := &netsim.Packet{
		Flow: pkt.FiveTuple{
			Src: g.src.Node.Addr(), Dst: g.dst.Node.Addr(),
			SrcPort: 1000, DstPort: 2000, Proto: pkt.ProtoUDP,
		},
		Size: size,
	}
	p.Encapsulate(g.src.Node.Addr(), g.sgwU.Node().Addr(), 101)
	g.src.Node.Inject(p)
}

func TestGTPChainDeliversDecapsulated(t *testing.T) {
	g := buildGWTopo(t, ACACIAGWCosts)
	var got []*netsim.Packet
	g.dst.Listen(2000, netsim.AppFunc(func(_ *netsim.Host, p *netsim.Packet) {
		got = append(got, p)
	}))
	g.sendTunneled(1000)
	g.eng.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d packets", len(got))
	}
	if got[0].Tunneled() {
		t.Error("packet arrived still tunneled")
	}
	if got[0].Size != 1000 {
		t.Errorf("size = %d, want 1000 (all encapsulation stripped)", got[0].Size)
	}
	if g.sgwU.Stats().Decapsulated != 1 || g.sgwU.Stats().Encapsulated != 1 {
		t.Errorf("sgw encap/decap stats = %+v", g.sgwU.Stats())
	}
	if g.pgwU.Stats().Decapsulated != 1 {
		t.Errorf("pgw stats = %+v", g.pgwU.Stats())
	}
}

func TestFastPathAfterFirstPacket(t *testing.T) {
	g := buildGWTopo(t, ACACIAGWCosts)
	g.dst.Listen(2000, netsim.AppFunc(func(_ *netsim.Host, p *netsim.Packet) {}))
	for i := 0; i < 10; i++ {
		g.sendTunneled(1000)
	}
	g.eng.Run()
	st := g.sgwU.Stats()
	if st.SlowPathHits != 1 {
		t.Errorf("slow path hits = %d, want 1 (first packet only)", st.SlowPathHits)
	}
	if st.FastPathHits != 9 {
		t.Errorf("fast path hits = %d, want 9", st.FastPathHits)
	}
}

func TestUserSpaceGWAlwaysSlowPath(t *testing.T) {
	g := buildGWTopo(t, OpenEPCGWCosts)
	g.dst.Listen(2000, netsim.AppFunc(func(_ *netsim.Host, p *netsim.Packet) {}))
	for i := 0; i < 10; i++ {
		g.sendTunneled(1000)
	}
	g.eng.Run()
	st := g.sgwU.Stats()
	if st.FastPathHits != 0 {
		t.Errorf("user-space GW used fast path %d times", st.FastPathHits)
	}
	if st.SlowPathHits != 10 {
		t.Errorf("slow path hits = %d, want 10", st.SlowPathHits)
	}
}

func TestThroughputOrderingMatchesFig8(t *testing.T) {
	// The Fig. 8 shape: OpenEPC user-space GW << ACACIA fast path ≈ ideal.
	measure := func(costs PathCosts) float64 {
		g := buildGWTopo(t, costs)
		sink := netsim.NewSink(g.dst, 2000)
		// Saturating CBR: 1 Gbps of 1400-byte tunneled packets for 200 ms.
		interval := time.Duration(float64(1400*8) / 1e9 * float64(time.Second))
		tick := sim.NewTicker(g.eng, interval, func() { g.sendTunneled(1400) })
		g.eng.RunFor(200 * time.Millisecond)
		tick.Stop()
		g.eng.RunFor(100 * time.Millisecond)
		return sink.ThroughputBps()
	}
	openepc := measure(OpenEPCGWCosts)
	acacia := measure(ACACIAGWCosts)
	ideal := measure(IdealGWCosts)
	if !(openepc < acacia && acacia <= ideal*1.01) {
		t.Errorf("throughput ordering: openepc=%.1f acacia=%.1f ideal=%.1f Mbps",
			openepc/1e6, acacia/1e6, ideal/1e6)
	}
	if openepc > 0.5*ideal {
		t.Errorf("user-space GW (%.1f Mbps) should be well below line rate (%.1f)", openepc/1e6, ideal/1e6)
	}
	if acacia < 0.85*ideal {
		t.Errorf("ACACIA fast path (%.1f Mbps) should approach line rate (%.1f)", acacia/1e6, ideal/1e6)
	}
}

func TestPacketInOnTableMiss(t *testing.T) {
	g := buildGWTopo(t, ACACIAGWCosts)
	var misses []uint64
	g.ctl.OnPacketIn = func(sw *Switch, inPort uint32, p *netsim.Packet, tunnelID uint64) {
		misses = append(misses, tunnelID)
		// Reactive setup: install a flow matching this tunnel.
		g.ctl.InstallFlow(sw, FlowEntry{
			Priority: 50, Cookie: 0xcafe,
			Match:   pkt.Match{TunnelID: pkt.U64(tunnelID)},
			Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 1}},
		})
	}
	// Unknown TEID 999 triggers a miss.
	p := &netsim.Packet{
		Flow: pkt.FiveTuple{Src: g.src.Node.Addr(), Dst: g.dst.Node.Addr(), DstPort: 2000, Proto: pkt.ProtoUDP},
		Size: 500,
	}
	p.Encapsulate(g.src.Node.Addr(), g.sgwU.Node().Addr(), 999)
	g.src.Node.Inject(p)
	g.eng.Run()
	if len(misses) != 1 || misses[0] != 999 {
		t.Fatalf("misses = %v", misses)
	}
	if g.sgwU.FlowCount() != 2 {
		t.Errorf("flows after reactive install = %d, want 2", g.sgwU.FlowCount())
	}
}

// TestSwitchCPUQueueOverloadStaysCompact checks the switch's CPU queue under
// sustained overload (the Fig. 8 OpenEPC regime: arrivals at several times
// the slow-path service rate): the queue holds no more than two of its
// FIFO's largest (1,024-entry) blocks beyond its high-water mark, packets
// still leave in arrival order, and the drained queue keeps its blocks.
func TestSwitchCPUQueueOverloadStaysCompact(t *testing.T) {
	const maxBlock = 1024 // netsim's largest FIFO block
	g := buildGWTopo(t, OpenEPCGWCosts)
	next := 0
	g.dst.Listen(2000, netsim.AppFunc(func(_ *netsim.Host, p *netsim.Packet) {
		// Sizes cycle so every packet serializes within the send interval
		// and the link never queues: the switch CPU is the only backlog.
		if p.Size != 100+next%1000 {
			t.Fatalf("delivered size %d, want %d (FIFO broken)", p.Size, 100+next%1000)
		}
		next++
	}))
	sw := g.sgwU
	sent, hwm := 0, 0
	tk := sim.NewTicker(g.eng, 10*time.Microsecond, func() {
		g.sendTunneled(100 + sent%1000)
		sent++
		hwm = max(hwm, sw.cpuQueue.Len())
	})
	g.eng.RunFor(100 * time.Millisecond)
	tk.Stop()
	waiting := sw.cpuQueue.Len()
	if waiting < 5000 {
		t.Fatalf("waiting = %d, want a deep backlog", waiting)
	}
	held := sw.cpuQueue.Cap()
	if held > hwm+2*maxBlock {
		t.Errorf("queue holds %d slots for %d waiting (high-water mark %d), want at most %d more than the mark", held, waiting, hwm, 2*maxBlock)
	}
	g.eng.Run()
	if next != sent || sw.cpuQueue.Len() != 0 || sw.cpuQueue.Cap() != held {
		t.Errorf("after drain: delivered %d of %d, %d waiting in %d slots; want all delivered and the %d slots kept", next, sent, sw.cpuQueue.Len(), sw.cpuQueue.Cap(), held)
	}
}

// TestSwitchCPUServesSlowPathFIFO checks the switch CPU law: k packets
// arriving together with the fast path off leave one SlowPath apart, the
// i-th at i × SlowPath, in arrival order.
func TestSwitchCPUServesSlowPathFIFO(t *testing.T) {
	const k = 6
	costs := PathCosts{SlowPath: time.Millisecond}
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	swN := nw.AddNode("sw", pkt.AddrFrom(10, 0, 0, 9))
	out := nw.AddNode("out", pkt.AddrFrom(10, 0, 0, 8))
	nw.ConnectSymmetric(swN, out, netsim.LinkConfig{})
	sw := NewSwitch(9, swN, costs)
	sw.installEntry(FlowEntry{Priority: 1, Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 0}}})
	var at []sim.Time
	var sizes []int
	out.SetHandler(handlerFunc(func(_ *netsim.Port, p *netsim.Packet) {
		at = append(at, eng.Now())
		sizes = append(sizes, p.Size)
	}))
	for i := 1; i <= k; i++ {
		swN.Inject(&netsim.Packet{Flow: pkt.FiveTuple{Dst: out.Addr()}, Size: i})
	}
	eng.Run()
	if len(at) != k {
		t.Fatalf("%d packets left the switch, want %d", len(at), k)
	}
	for i := range at {
		if want := sim.Time(time.Duration(i+1) * costs.SlowPath); at[i] != want || sizes[i] != i+1 {
			t.Errorf("departure %d: packet %d at %v, want packet %d at %v", i, sizes[i], at[i], i+1, want)
		}
	}
	if st := sw.Stats(); st.SlowPathHits != k || st.FastPathHits != 0 {
		t.Errorf("slow/fast hits = %d/%d, want %d/0", st.SlowPathHits, st.FastPathHits, k)
	}
}

// TestPacketInWithoutHandlerReleases checks that a table miss sent to a
// controller with no OnPacketIn returns the packet to the pool: the
// controller owns it once the miss is reported.
func TestPacketInWithoutHandlerReleases(t *testing.T) {
	g := buildGWTopo(t, ACACIAGWCosts)
	p := g.nw.NewPacket()
	p.Flow = pkt.FiveTuple{Src: g.src.Node.Addr(), Dst: g.dst.Node.Addr(), DstPort: 2000, Proto: pkt.ProtoUDP}
	p.Size = 4321
	p.Encapsulate(g.src.Node.Addr(), g.sgwU.Node().Addr(), 999) // no flow for TEID 999
	g.src.Node.Inject(p)
	g.eng.Run()
	if st := g.sgwU.Stats(); st.TableMisses != 1 || st.Dropped != 1 {
		t.Fatalf("misses/drops = %d/%d, want 1/1", st.TableMisses, st.Dropped)
	}
	if p.Size == 4321 {
		t.Error("dropped packet-in was never released to the pool")
	}
}

func TestTableMissWithoutControllerDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	n := nw.AddNode("sw", pkt.AddrFrom(10, 0, 0, 9))
	peer := nw.AddNode("peer", pkt.AddrFrom(10, 0, 0, 8))
	nw.ConnectSymmetric(n, peer, netsim.LinkConfig{})
	sw := NewSwitch(9, n, ACACIAGWCosts)
	netsim.NewHost(peer).Send(n.Addr(), 1, 2, pkt.ProtoUDP, 100, nil)
	eng.Run()
	if sw.Stats().Dropped != 1 {
		t.Errorf("dropped = %d, want 1", sw.Stats().Dropped)
	}
}

func TestFlowPriorityOrdering(t *testing.T) {
	g := buildGWTopo(t, ACACIAGWCosts)
	// A higher-priority drop rule for the same tunnel must win.
	g.ctl.InstallFlow(g.sgwU, FlowEntry{
		Priority: 200, Cookie: 0xdead,
		Match:   pkt.Match{TunnelID: pkt.U64(101)},
		Actions: []pkt.Action{{Type: pkt.ActionDrop}},
	})
	g.eng.RunFor(time.Millisecond)
	var got int
	g.dst.Listen(2000, netsim.AppFunc(func(_ *netsim.Host, p *netsim.Packet) { got++ }))
	g.sendTunneled(100)
	g.eng.Run()
	if got != 0 {
		t.Error("lower-priority forward rule won over higher-priority drop")
	}
}

func TestRemoveFlowsByCookie(t *testing.T) {
	g := buildGWTopo(t, ACACIAGWCosts)
	if g.sgwU.FlowCount() != 1 {
		t.Fatalf("flows = %d", g.sgwU.FlowCount())
	}
	g.ctl.RemoveFlows(g.sgwU, 0xbea4e401)
	g.eng.RunFor(time.Millisecond)
	if g.sgwU.FlowCount() != 0 {
		t.Errorf("flows after remove = %d", g.sgwU.FlowCount())
	}
	// Traffic now misses (drops, no OnPacketIn handler).
	g.sendTunneled(100)
	g.eng.Run()
	if g.sgwU.Stats().TableMisses != 1 {
		t.Errorf("misses = %d", g.sgwU.Stats().TableMisses)
	}
}

func TestControllerAccounting(t *testing.T) {
	g := buildGWTopo(t, ACACIAGWCosts)
	sent, sentBytes := g.ctl.sent.Value(), g.ctl.sentBytes.Value()
	n := g.ctl.InstallFlow(g.sgwU, FlowEntry{
		Priority: 10, Cookie: 0x222,
		Match:   pkt.Match{TunnelID: pkt.U64(77)},
		Actions: []pkt.Action{{Type: pkt.ActionSetTunnel, TunnelID: 88, TunnelDst: g.pgwU.Node().Addr()}, {Type: pkt.ActionOutput, Port: 1}},
	})
	if got := g.ctl.sent.Value(); got != sent+1 {
		t.Errorf("sent count %d -> %d", sent, got)
	}
	if got := int(g.ctl.sentBytes.Value() - sentBytes); got != n {
		t.Errorf("byte accounting mismatch: %d vs %d", got, n)
	}
	// A realistic GTP FlowMod lands in the few-hundred-byte range the
	// paper's 1424-bytes-per-4-messages measurement implies.
	if n < 80 || n > 600 {
		t.Errorf("FlowMod size = %d bytes, implausible", n)
	}
}

// TestInstallFlowCopiesActions overwrites the caller's action slice after
// InstallFlow returns and before the FlowMod lands: the switch must forward
// by the actions it was given, and the accounted FlowMod encoding must be
// theirs. An entry longer than a rule holds is refused at the call.
func TestInstallFlowCopiesActions(t *testing.T) {
	g := buildGWTopo(t, ACACIAGWCosts)
	pgwAddr := g.pgwU.Node().Addr()
	acts := []pkt.Action{
		{Type: pkt.ActionSetTunnel, TunnelID: 201, TunnelDst: pgwAddr},
		{Type: pkt.ActionOutput, Port: 1},
	}
	e := FlowEntry{Priority: 100, Cookie: 0x5eed, Match: pkt.Match{TunnelID: pkt.U64(101)}, Actions: acts}
	want := (&pkt.OFMsg{
		Type: pkt.OFFlowMod, XID: g.ctl.xid + 1, Command: pkt.FlowModAdd,
		Priority: e.Priority, Cookie: e.Cookie, Match: e.Match,
		Actions: []pkt.Action{acts[0], acts[1]},
	}).Encode(nil)
	g.ctl.InstallFlow(g.sgwU, e)
	if !bytes.Equal(g.ctl.encBuf, want) {
		t.Errorf("FlowMod encoded as\n% x\nwant\n% x", g.ctl.encBuf, want)
	}
	acts[0] = pkt.Action{Type: pkt.ActionDrop}
	acts[1] = pkt.Action{Type: pkt.ActionOutput, Port: 0}
	g.eng.RunFor(time.Millisecond) // the FlowMod lands
	var got int
	g.dst.Listen(2000, netsim.AppFunc(func(_ *netsim.Host, p *netsim.Packet) { got++ }))
	g.sendTunneled(100)
	g.eng.Run()
	if got != 1 {
		t.Fatalf("delivered %d packets, want 1: the switch forwarded by the caller's rewritten actions", got)
	}

	sent, flows := g.ctl.sent.Value(), g.sgwU.FlowCount()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a 3-action entry was accepted")
			}
		}()
		g.ctl.InstallFlow(g.sgwU, FlowEntry{Priority: 1, Match: pkt.Match{TunnelID: pkt.U64(9)},
			Actions: []pkt.Action{{Type: pkt.ActionDrop}, acts[0], acts[1]}})
	}()
	g.eng.RunFor(time.Millisecond)
	if g.ctl.sent.Value() != sent || g.sgwU.FlowCount() != flows {
		t.Errorf("refused entry still sent (%d -> %d messages, %d -> %d flows)",
			sent, g.ctl.sent.Value(), flows, g.sgwU.FlowCount())
	}
}

func TestDuplicateDPIDPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	a := nw.AddNode("a", pkt.AddrFrom(1, 0, 0, 1))
	b := nw.AddNode("b", pkt.AddrFrom(1, 0, 0, 2))
	c := NewController(eng)
	c.AddSwitch(NewSwitch(1, a, ACACIAGWCosts))
	defer func() {
		if recover() == nil {
			t.Error("duplicate dpid did not panic")
		}
	}()
	c.AddSwitch(NewSwitch(1, b, ACACIAGWCosts))
}

func TestInstallFlowReplacesSameMatch(t *testing.T) {
	g := buildGWTopo(t, ACACIAGWCosts)
	// Same match + priority as the original chain entry, different action.
	g.ctl.InstallFlow(g.sgwU, FlowEntry{
		Priority: 100, Cookie: 0x999,
		Match:   pkt.Match{TunnelID: pkt.U64(101)},
		Actions: []pkt.Action{{Type: pkt.ActionDrop}},
	})
	g.eng.RunFor(time.Millisecond)
	if g.sgwU.FlowCount() != 1 {
		t.Errorf("flows = %d, want 1 (replaced)", g.sgwU.FlowCount())
	}
	var got int
	g.dst.Listen(2000, netsim.AppFunc(func(_ *netsim.Host, p *netsim.Packet) { got++ }))
	g.sendTunneled(100)
	g.eng.Run()
	if got != 0 {
		t.Error("replaced entry's old action still in effect")
	}
}

// TestUnmeteredFlowUnaffected sends a 20-packet burst through the GW-U
// chain's flows: nothing polices a flow entry, so all of it arrives.
func TestUnmeteredFlowUnaffected(t *testing.T) {
	g := buildGWTopo(t, ACACIAGWCosts)
	var got int
	g.dst.Listen(2000, netsim.AppFunc(func(_ *netsim.Host, p *netsim.Packet) { got++ }))
	for i := 0; i < 20; i++ {
		g.sendTunneled(1000)
	}
	g.eng.Run()
	if got != 20 {
		t.Errorf("unmetered delivered %d of 20", got)
	}
}

func TestPathMonitorSupervisesPeers(t *testing.T) {
	g := buildGWTopo(t, ACACIAGWCosts)
	mon := g.sgwU.EnablePathMonitor(time.Second, 3)
	g.eng.RunFor(5 * time.Second)
	ps := mon.peers[g.pgwU.Node().Addr()]
	if ps == nil {
		t.Fatal("PGW-U peer not discovered from flow table")
	}
	if ps.Down {
		t.Error("healthy path marked down")
	}
	if ps.lastSentSeq < 3 || ps.lastAckedSeq < 3 {
		t.Errorf("echo sequence: sent=%d acked=%d", ps.lastSentSeq, ps.lastAckedSeq)
	}
}

func TestPathMonitorDetectsFailureAndRecovery(t *testing.T) {
	g := buildGWTopo(t, ACACIAGWCosts)
	mon := g.sgwU.EnablePathMonitor(time.Second, 3)
	// transitions lists the monitor's timeline events of one kind, by peer.
	transitions := func(kind string) []string {
		var peers []string
		tl := g.eng.Metrics().Snapshot().Events
		for i := 0; i < tl.Len(); i++ {
			e := tl.At(i)
			if e.Scope == "sdn/pathmon/"+g.sgwU.Node().Name() && e.Name == kind {
				peers = append(peers, e.Detail)
			}
		}
		return peers
	}
	g.eng.RunFor(3 * time.Second)

	// Fail the SGW-U <-> PGW-U link.
	g.s5.SetDown(true)
	g.eng.RunFor(6 * time.Second)
	if downs := transitions("down"); len(downs) != 1 || downs[0] != g.pgwU.Node().Addr().String() {
		t.Fatalf("downs = %v", downs)
	}
	if !mon.peers[g.pgwU.Node().Addr()].Down {
		t.Error("path not marked down")
	}

	g.s5.SetDown(false)
	g.eng.RunFor(3 * time.Second)
	if ups := transitions("up"); len(ups) != 1 {
		t.Fatalf("ups = %v", ups)
	}
	if mon.peers[g.pgwU.Node().Addr()].Down {
		t.Error("path still down after repair")
	}
}

func TestPathMonitorForgetsRemovedPeers(t *testing.T) {
	g := buildGWTopo(t, ACACIAGWCosts)
	mon := g.sgwU.EnablePathMonitor(time.Second, 3)
	g.eng.RunFor(2 * time.Second)
	if len(mon.peers) != 1 {
		t.Fatalf("peers = %d", len(mon.peers))
	}
	g.ctl.RemoveFlows(g.sgwU, 0xbea4e401)
	g.eng.RunFor(2 * time.Second)
	if len(mon.peers) != 0 {
		t.Errorf("peers after flow removal = %d", len(mon.peers))
	}
}

func TestEchoDoesNotDisturbDataPlane(t *testing.T) {
	g := buildGWTopo(t, ACACIAGWCosts)
	g.sgwU.EnablePathMonitor(500*time.Millisecond, 3)
	var got int
	g.dst.Listen(2000, netsim.AppFunc(func(_ *netsim.Host, p *netsim.Packet) { got++ }))
	for i := 0; i < 5; i++ {
		g.sendTunneled(1000)
	}
	g.eng.RunFor(3 * time.Second)
	if got != 5 {
		t.Errorf("data packets delivered = %d of 5 with echo running", got)
	}
	// Echoes must not appear as table misses.
	if g.sgwU.Stats().TableMisses != 0 || g.pgwU.Stats().TableMisses != 0 {
		t.Errorf("echo traffic caused table misses: sgw=%d pgw=%d",
			g.sgwU.Stats().TableMisses, g.pgwU.Stats().TableMisses)
	}
}

// TestFlowModRecordsRecycle installs and deletes flows in loss-free rounds:
// every FlowMod record must be back in the controller's pool at each
// quiescent point, cleared and listed once, and the pool no larger after
// the last round than after the first.
func TestFlowModRecordsRecycle(t *testing.T) {
	g := buildGWTopo(t, ACACIAGWCosts)
	round := func() {
		t.Helper()
		for i := uint64(1); i <= 8; i++ {
			g.ctl.InstallFlow(g.sgwU, FlowEntry{Priority: 50, Cookie: i, Match: pkt.Match{TunnelID: pkt.U64(1000 + i)}})
		}
		g.eng.RunFor(time.Millisecond)
		if n := g.sgwU.FlowCount(); n != 9 {
			t.Fatalf("%d flows after the installs, want 9", n)
		}
		for i := uint64(1); i <= 8; i++ {
			g.ctl.RemoveFlows(g.sgwU, i)
		}
		g.eng.RunFor(time.Millisecond)
		if n := g.sgwU.FlowCount(); n != 1 {
			t.Fatalf("%d flows after the deletes, want 1", n)
		}
		seen := make(map[*flowMod]bool)
		for _, m := range g.ctl.mods.Idle() {
			if seen[m] || m.sw != nil || m.rule.Cookie != 0 {
				t.Fatal("a FlowMod record was recycled twice or kept its entry")
			}
			seen[m] = true
		}
	}
	round()
	first := len(g.ctl.mods.Idle())
	for i := 0; i < 20; i++ {
		round()
	}
	if n := len(g.ctl.mods.Idle()); n != first || first == 0 {
		t.Fatalf("FlowMod pool holds %d records after 21 rounds, %d after the first", n, first)
	}
}
