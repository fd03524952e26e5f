package netsim

import (
	"maps"
	"math"
	"strconv"
	"testing"
	"time"

	"acacia/internal/pkt"
	"acacia/internal/sim"
)

// twoHosts builds A <-> B with the given symmetric link config and returns
// hosts plus the link.
func twoHosts(t *testing.T, cfg LinkConfig) (*sim.Engine, *Host, *Host, *Link) {
	t.Helper()
	eng := sim.NewEngine(1)
	nw := New(eng)
	na := nw.AddNode("a", pkt.AddrFrom(10, 0, 0, 1))
	nb := nw.AddNode("b", pkt.AddrFrom(10, 0, 0, 2))
	l := nw.ConnectSymmetric(na, nb, cfg)
	return eng, NewHost(na), NewHost(nb), l
}

func TestPointToPointDelivery(t *testing.T) {
	eng, ha, hb, _ := twoHosts(t, LinkConfig{Propagation: 5 * time.Millisecond})
	var gotAt sim.Time
	hb.Listen(80, AppFunc(func(_ *Host, p *Packet) { gotAt = eng.Now() }))
	ha.Send(hb.Node.Addr(), 1234, 80, pkt.ProtoUDP, 100, nil)
	eng.Run()
	if gotAt != sim.Time(5*time.Millisecond) {
		t.Errorf("delivered at %v, want 5ms", gotAt)
	}
}

// TestHostPortDemux holds Host's port demux to the map it replaced: each
// port's packets reach the app registered there last (a re-Listen
// replaces the app, also once a third port has moved apps off its inline
// slot), and a packet for a port with no app goes back to the pool.
func TestHostPortDemux(t *testing.T) {
	eng, ha, hb, _ := twoHosts(t, LinkConfig{Propagation: time.Millisecond})
	got := map[string]int{}
	app := func(name string) App {
		return AppFunc(func(h *Host, p *Packet) {
			got[name+":"+strconv.Itoa(int(p.Flow.DstPort))]++
			h.Node.Network().Release(p)
		})
	}
	send := func(ports ...uint16) {
		for _, port := range ports {
			ha.Send(hb.Node.Addr(), 1234, port, pkt.ProtoUDP, 100, nil)
		}
		eng.Run()
	}
	hb.Listen(80, app("first"))
	send(80, 9)
	hb.Listen(80, app("second"))
	hb.Listen(81, app("other"))
	send(80, 81, 9)
	hb.Listen(82, app("third"))
	hb.Listen(81, app("fourth"))
	send(80, 81, 82, 9)
	want := map[string]int{"first:80": 1, "second:80": 2, "other:81": 1, "fourth:81": 1, "third:82": 1}
	if !maps.Equal(got, want) {
		t.Errorf("deliveries %v, want %v", got, want)
	}
	if n := hb.Node.Network().PacketsOut(); n != 0 {
		t.Errorf("%d packets still out: the unregistered port's were not released", n)
	}
}

func TestSerializationDelay(t *testing.T) {
	// 1 Mbps link, 1250-byte packet => 10 ms serialization + 2 ms prop.
	eng, ha, hb, _ := twoHosts(t, LinkConfig{BitsPerSecond: 1e6, Propagation: 2 * time.Millisecond})
	var gotAt sim.Time
	hb.Listen(80, AppFunc(func(_ *Host, p *Packet) { gotAt = eng.Now() }))
	ha.Send(hb.Node.Addr(), 1, 80, pkt.ProtoUDP, 1250, nil)
	eng.Run()
	want := sim.Time(12 * time.Millisecond)
	if gotAt != want {
		t.Errorf("delivered at %v, want %v", gotAt, want)
	}
}

func TestQueueingDelayAccumulates(t *testing.T) {
	// Two back-to-back packets: second waits for the first's serialization.
	eng, ha, hb, _ := twoHosts(t, LinkConfig{BitsPerSecond: 1e6, Propagation: 0})
	var arrivals []sim.Time
	hb.Listen(80, AppFunc(func(_ *Host, p *Packet) { arrivals = append(arrivals, eng.Now()) }))
	ha.Send(hb.Node.Addr(), 1, 80, pkt.ProtoUDP, 1250, nil)
	ha.Send(hb.Node.Addr(), 1, 80, pkt.ProtoUDP, 1250, nil)
	eng.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != sim.Time(10*time.Millisecond) || arrivals[1] != sim.Time(20*time.Millisecond) {
		t.Errorf("arrivals = %v, want 10ms/20ms", arrivals)
	}
}

func TestDropTailQueue(t *testing.T) {
	eng, ha, hb, l := twoHosts(t, LinkConfig{BitsPerSecond: 1e6, QueueBytes: 2500})
	var got int
	hb.Listen(80, AppFunc(func(_ *Host, p *Packet) { got++ }))
	// Burst of 10 x 1250B; queue holds 2 beyond the one in service.
	for i := 0; i < 10; i++ {
		ha.Send(hb.Node.Addr(), 1, 80, pkt.ProtoUDP, 1250, nil)
	}
	eng.Run()
	if got != 3 {
		t.Errorf("delivered %d, want 3 (1 in service + 2 queued)", got)
	}
	if drops := l.StatsAB().Dropped; drops != 7 {
		t.Errorf("drops = %d, want 7", drops)
	}
}

// TestDropTailBoundary pins the drop-tail comparison at the exact queue
// boundary: a packet that fills QueueBytes to the byte is accepted, one
// more byte is dropped, and the telemetry counter agrees with LinkStats.
func TestDropTailBoundary(t *testing.T) {
	eng, ha, hb, l := twoHosts(t, LinkConfig{BitsPerSecond: 1e6, QueueBytes: 1000})
	var got int
	hb.Listen(80, AppFunc(func(_ *Host, p *Packet) { got++ }))
	// First packet goes straight into service (it never occupies the
	// queue); the second fills the queue exactly; the third is one byte
	// over and must be the only drop.
	ha.Send(hb.Node.Addr(), 1, 80, pkt.ProtoUDP, 100, nil)
	ha.Send(hb.Node.Addr(), 1, 80, pkt.ProtoUDP, 1000, nil)
	ha.Send(hb.Node.Addr(), 1, 80, pkt.ProtoUDP, 1, nil)
	eng.Run()
	if got != 2 {
		t.Errorf("delivered %d, want 2 (exact fill accepted)", got)
	}
	st := l.StatsAB()
	if st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1 (one byte over the bound)", st.Dropped)
	}
	snap := eng.Metrics().Snapshot()
	if v := snap.CounterValue("netsim/link/0/a->b/dropped"); v != st.Dropped {
		t.Errorf("telemetry dropped = %d, LinkStats.Dropped = %d; must agree", v, st.Dropped)
	}
	if v := snap.CounterValue("netsim/link/0/a->b/sent"); v != st.Sent {
		t.Errorf("telemetry sent = %d, LinkStats.Sent = %d; must agree", v, st.Sent)
	}
}

func TestPriorityScheduling(t *testing.T) {
	// A low-priority burst followed by one high-priority packet on a
	// prioritized link: the high-priority packet overtakes the queue.
	eng := sim.NewEngine(1)
	nw := New(eng)
	na := nw.AddNode("a", pkt.AddrFrom(10, 0, 0, 1))
	nb := nw.AddNode("b", pkt.AddrFrom(10, 0, 0, 2))
	nw.ConnectSymmetric(na, nb, LinkConfig{BitsPerSecond: 1e6, Prioritized: true})
	ha, hb := NewHost(na), NewHost(nb)

	var order []int
	hb.Listen(80, AppFunc(func(_ *Host, p *Packet) { order = append(order, int(p.Priority)) }))

	for i := 0; i < 5; i++ {
		p := &Packet{Flow: pkt.FiveTuple{Src: na.Addr(), Dst: nb.Addr(), DstPort: 80, Proto: pkt.ProtoUDP}, Size: 1250, Priority: 9}
		na.Inject(p)
	}
	hp := &Packet{Flow: pkt.FiveTuple{Src: na.Addr(), Dst: nb.Addr(), DstPort: 80, Proto: pkt.ProtoUDP}, Size: 1250, Priority: 1}
	na.Inject(hp)
	eng.Run()

	if len(order) != 6 {
		t.Fatalf("order = %v", order)
	}
	// First delivery is the packet already in service (priority 9); the
	// high-priority packet must come second, ahead of the remaining 9s.
	if order[0] != 9 || order[1] != 1 {
		t.Errorf("order = %v, want high-priority overtaking at position 1", order)
	}
	_ = ha
}

func TestFIFOIgnoresPriority(t *testing.T) {
	eng, _, hb, _ := twoHosts(t, LinkConfig{BitsPerSecond: 1e6})
	nw := hb.Node.Network()
	na := nw.nodes["a"]
	var order []int
	hb.Listen(80, AppFunc(func(_ *Host, p *Packet) { order = append(order, int(p.Priority)) }))
	for i := 0; i < 3; i++ {
		na.Inject(&Packet{Flow: pkt.FiveTuple{Src: na.Addr(), Dst: hb.Node.Addr(), DstPort: 80}, Size: 100, Priority: 9})
	}
	na.Inject(&Packet{Flow: pkt.FiveTuple{Src: na.Addr(), Dst: hb.Node.Addr(), DstPort: 80}, Size: 100, Priority: 1})
	eng.Run()
	want := []int{9, 9, 9, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (FIFO)", order, want)
		}
	}
}

func TestRouterLongestPrefixMatch(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng)
	r := nw.AddNode("r", pkt.AddrFrom(10, 0, 0, 254))
	h1 := nw.AddNode("h1", pkt.AddrFrom(10, 1, 0, 1))
	h2 := nw.AddNode("h2", pkt.AddrFrom(10, 1, 2, 1))
	h3 := nw.AddNode("h3", pkt.AddrFrom(8, 8, 8, 8))
	cfg := LinkConfig{Propagation: time.Millisecond}
	nw.ConnectSymmetric(h1, r, cfg)
	nw.ConnectSymmetric(h2, r, cfg)
	nw.ConnectSymmetric(h3, r, cfg)

	router := NewRouter(r)
	router.AddRoute(pkt.AddrFrom(10, 1, 0, 0), pkt.Addr{255, 255, 0, 0}, r.Port(0))
	router.AddRoute(pkt.AddrFrom(10, 1, 2, 0), pkt.Addr{255, 255, 255, 0}, r.Port(1))
	router.AddDefaultRoute(r.Port(2))

	if got := router.Lookup(pkt.AddrFrom(10, 1, 9, 9)); got != r.Port(0) {
		t.Error("expected /16 route")
	}
	if got := router.Lookup(pkt.AddrFrom(10, 1, 2, 7)); got != r.Port(1) {
		t.Error("expected more-specific /24 route")
	}
	if got := router.Lookup(pkt.AddrFrom(99, 9, 9, 9)); got != r.Port(2) {
		t.Error("expected default route")
	}

	// End to end: h1 -> h2 via router.
	host1, host2 := NewHost(h1), NewHost(h2)
	_ = host1
	var got int
	host2.Listen(80, AppFunc(func(_ *Host, p *Packet) { got++ }))
	host1.Send(h2.Addr(), 1, 80, pkt.ProtoUDP, 100, nil)
	eng.Run()
	if got != 1 {
		t.Error("routed packet not delivered")
	}
}

func TestRouterDropsUnroutable(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng)
	r := nw.AddNode("r", pkt.Addr{})
	h := nw.AddNode("h", pkt.AddrFrom(10, 0, 0, 1))
	nw.ConnectSymmetric(h, r, LinkConfig{})
	NewRouter(r)
	host := NewHost(h)
	before := nw.PacketsOut()
	host.Send(pkt.AddrFrom(99, 0, 0, 1), 1, 2, pkt.ProtoUDP, 10, nil)
	if nw.PacketsOut() != before+1 {
		t.Fatalf("packets out = %d, want %d in flight", nw.PacketsOut(), before+1)
	}
	eng.Run()
	if nw.PacketsOut() != before {
		t.Errorf("packets out = %d, want %d: the router must drop and release it", nw.PacketsOut(), before)
	}
}

func TestRouterUsesTunnelDst(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng)
	r := nw.AddNode("r", pkt.Addr{})
	gwA := nw.AddNode("gwA", pkt.AddrFrom(10, 0, 0, 1))
	gwB := nw.AddNode("gwB", pkt.AddrFrom(10, 0, 0, 2))
	nw.ConnectSymmetric(gwA, r, LinkConfig{})
	nw.ConnectSymmetric(gwB, r, LinkConfig{})
	router := NewRouter(r)
	router.AddHostRoute(gwA.Addr(), r.Port(0))
	router.AddHostRoute(gwB.Addr(), r.Port(1))

	var arrived bool
	NewHost(gwA)
	hb := NewHost(gwB)
	hb.Node.SetHandler(handlerFunc(func(ingress *Port, p *Packet) {
		if p.Tunneled() {
			arrived = true
		}
	}))
	// Inner dst is an address the router has no route for; the tunnel dst
	// must carry it to gwB anyway.
	p := &Packet{Flow: pkt.FiveTuple{Src: pkt.AddrFrom(172, 16, 0, 1), Dst: pkt.AddrFrom(172, 16, 0, 2), DstPort: 9}, Size: 100}
	p.Encapsulate(gwA.Addr(), gwB.Addr(), 42)
	gwA.Port(0).Send(p)
	eng.Run()
	if !arrived {
		t.Error("tunneled packet not routed by outer destination")
	}
}

func TestEncapsulateDecapsulateSizeAccounting(t *testing.T) {
	p := &Packet{Size: 1000}
	p.Encapsulate(pkt.AddrFrom(1, 0, 0, 1), pkt.AddrFrom(1, 0, 0, 2), 7)
	if p.Size != 1000+pkt.GTPUOverhead {
		t.Errorf("size = %d", p.Size)
	}
	if !p.Tunneled() {
		t.Error("not tunneled after Encapsulate")
	}
	if teid := p.Decapsulate(); teid != 7 {
		t.Errorf("teid = %d", teid)
	}
	if p.Size != 1000 || p.Tunneled() {
		t.Errorf("after decap: size=%d tunneled=%v", p.Size, p.Tunneled())
	}
}

func TestDoubleEncapsulatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("double encapsulation did not panic")
		}
	}()
	p := &Packet{Size: 10}
	p.Encapsulate(pkt.AddrFrom(1, 0, 0, 1), pkt.AddrFrom(1, 0, 0, 2), 1)
	p.Encapsulate(pkt.AddrFrom(1, 0, 0, 1), pkt.AddrFrom(1, 0, 0, 2), 2)
}

func TestPingRTT(t *testing.T) {
	eng, ha, hb, _ := twoHosts(t, LinkConfig{Propagation: 7 * time.Millisecond})
	hb.Listen(PingPort, PingResponder{})
	pg := NewPinger(ha, hb.Node.Addr(), 64, 5555)
	pg.Start(100 * time.Millisecond)
	eng.RunUntil(sim.Time(time.Second))
	pg.Stop()
	eng.Run()
	if pg.RTTs.N() == 0 {
		t.Fatal("no ping replies")
	}
	if rtt := pg.RTTs.Mean(); math.Abs(rtt-14) > 1e-9 {
		t.Errorf("mean RTT = %v ms, want 14", rtt)
	}
	if lost := pg.Sent - pg.RTTs.N(); lost != 0 {
		t.Errorf("lost = %d", lost)
	}
}

func TestCBRRateAccuracy(t *testing.T) {
	eng, ha, hb, _ := twoHosts(t, LinkConfig{BitsPerSecond: 100e6})
	sink := NewSink(hb, 9000)
	cbr := NewCBRSource(ha, hb.Node.Addr(), 9000, 1250)
	cbr.Start(10e6) // 10 Mbps
	eng.RunUntil(sim.Time(2 * time.Second))
	cbr.Stop()
	eng.Run()
	got := sink.ThroughputBps()
	if math.Abs(got-10e6)/10e6 > 0.02 {
		t.Errorf("throughput = %.2f Mbps, want ~10", got/1e6)
	}
}

func TestGreedyFlowFillsBottleneck(t *testing.T) {
	eng, ha, hb, _ := twoHosts(t, LinkConfig{BitsPerSecond: 50e6, Propagation: 2 * time.Millisecond, QueueBytes: 128 << 10})
	sink := NewGreedyReceiver(hb, 5001)
	g := NewGreedyFlow(ha, hb.Node.Addr(), 5001, 40000, 1400)
	g.Start()
	eng.RunUntil(sim.Time(5 * time.Second))
	g.Stop()
	eng.Run()
	got := sink.ThroughputBps()
	if got < 40e6 || got > 51e6 {
		t.Errorf("greedy throughput = %.1f Mbps, want ~50", got/1e6)
	}
	if g.AckedSegments == 0 {
		t.Error("no segments acked")
	}
}

func TestGreedyFlowSharesWithLoss(t *testing.T) {
	// Tight queue forces drops; the flow must recover and still make
	// forward progress.
	eng, ha, hb, _ := twoHosts(t, LinkConfig{BitsPerSecond: 10e6, Propagation: 10 * time.Millisecond, QueueBytes: 8 << 10})
	sink := NewGreedyReceiver(hb, 5001)
	g := NewGreedyFlow(ha, hb.Node.Addr(), 5001, 40000, 1400)
	g.Start()
	eng.RunUntil(sim.Time(10 * time.Second))
	g.Stop()
	eng.Run()
	if g.Retransmits == 0 {
		t.Error("expected losses with an 8KiB queue")
	}
	got := sink.ThroughputBps()
	if got < 5e6 {
		t.Errorf("throughput = %.1f Mbps, want > 5 despite losses", got/1e6)
	}
}

// TestGreedyFlowSteadyStateAllocatesNothing runs a greedy flow past its
// ramp, on a roomy queue and on one tight enough to force retransmissions,
// and requires the next 100 ms windows to allocate nothing: segment
// payloads, retransmit timers and their records all come back from pools.
func TestGreedyFlowSteadyStateAllocatesNothing(t *testing.T) {
	for _, queue := range []int{128 << 10, 8 << 10} {
		eng, ha, hb, _ := twoHosts(t, LinkConfig{BitsPerSecond: 50e6, Propagation: 2 * time.Millisecond, QueueBytes: queue})
		NewGreedyReceiver(hb, 5001)
		g := NewGreedyFlow(ha, hb.Node.Addr(), 5001, 40000, 1400)
		g.Start()
		eng.RunUntil(sim.Time(2 * time.Second))
		acked, retrans := g.AckedSegments, g.Retransmits
		if n := testing.AllocsPerRun(10, func() { eng.RunFor(100 * time.Millisecond) }); n != 0 {
			t.Errorf("%d-byte queue: %.1f allocations per 100 ms window, want 0", queue, n)
		}
		if g.AckedSegments-acked < 1000 || (queue < 16<<10 && g.Retransmits == retrans) {
			t.Errorf("%d-byte queue: %d segments and %d retransmissions in the windows; the case is not exercised",
				queue, g.AckedSegments-acked, g.Retransmits-retrans)
		}
	}
}

func TestHopLimitStopsLoops(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng)
	a := nw.AddNode("a", pkt.AddrFrom(10, 0, 0, 1))
	b := nw.AddNode("b", pkt.AddrFrom(10, 0, 0, 2))
	nw.ConnectSymmetric(a, b, LinkConfig{})
	// Both nodes blindly forward everything back, forming a loop.
	forwards := 0
	a.SetHandler(handlerFunc(func(ingress *Port, p *Packet) { forwards++; a.Port(0).Send(p) }))
	b.SetHandler(handlerFunc(func(ingress *Port, p *Packet) { forwards++; b.Port(0).Send(p) }))
	a.Inject(&Packet{Flow: pkt.FiveTuple{Dst: pkt.AddrFrom(9, 9, 9, 9)}, Size: 10})
	eng.Run() // must terminate
	if forwards != MaxHops+1 {
		t.Errorf("loop forwarded %d times, want %d (the injection plus MaxHops hops)", forwards, MaxHops+1)
	}
}

func TestDuplicateNodeNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate name did not panic")
		}
	}()
	nw := New(sim.NewEngine(1))
	nw.AddNode("x", pkt.AddrFrom(1, 0, 0, 1))
	nw.AddNode("x", pkt.AddrFrom(1, 0, 0, 2))
}

func TestDuplicateAddressPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate address did not panic")
		}
	}()
	nw := New(sim.NewEngine(1))
	nw.AddNode("x", pkt.AddrFrom(1, 0, 0, 1))
	nw.AddNode("y", pkt.AddrFrom(1, 0, 0, 1))
}

func TestLinkStatsCounters(t *testing.T) {
	eng, ha, hb, l := twoHosts(t, LinkConfig{BitsPerSecond: 1e6})
	hb.Listen(80, AppFunc(func(_ *Host, p *Packet) {}))
	ha.Send(hb.Node.Addr(), 1, 80, pkt.ProtoUDP, 500, nil)
	eng.Run()
	st := l.StatsAB()
	if st.Sent != 1 || st.Delivered != 1 || st.Bytes != 500 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLinkFailureInjection(t *testing.T) {
	eng, ha, hb, l := twoHosts(t, LinkConfig{Propagation: 2 * time.Millisecond})
	hb.Listen(PingPort, PingResponder{})
	pg := NewPinger(ha, hb.Node.Addr(), 64, 5555)
	pg.Start(50 * time.Millisecond)
	eng.RunFor(time.Second)
	healthyRecv := pg.RTTs.N()

	l.SetDown(true)
	if !l.ab.down || !l.ba.down {
		t.Fatal("link not marked down")
	}
	eng.RunFor(time.Second)
	duringRecv := pg.RTTs.N()
	if duringRecv > healthyRecv+1 { // one in-flight reply may land
		t.Errorf("replies during outage: %d -> %d", healthyRecv, duringRecv)
	}
	if l.StatsAB().Dropped == 0 {
		t.Error("no drops counted during outage")
	}

	l.SetDown(false)
	eng.RunFor(time.Second)
	pg.Stop()
	eng.RunFor(200 * time.Millisecond)
	if pg.RTTs.N() <= duringRecv+10 {
		t.Errorf("traffic did not resume after repair: %d -> %d", duringRecv, pg.RTTs.N())
	}
}

func TestLinkJitterSpreadsDelivery(t *testing.T) {
	eng, ha, hb, _ := twoHosts(t, LinkConfig{Propagation: 5 * time.Millisecond, Jitter: 3 * time.Millisecond})
	hb.Listen(PingPort, PingResponder{})
	pg := NewPinger(ha, hb.Node.Addr(), 64, 5556)
	pg.Start(20 * time.Millisecond)
	eng.RunFor(5 * time.Second)
	pg.Stop()
	eng.RunFor(time.Second)
	if pg.RTTs.N() < 100 {
		t.Fatalf("replies = %d", pg.RTTs.N())
	}
	// Base RTT is 10 ms; exponential jitter (mean 3 ms per delivery, two
	// deliveries) should push the mean to ≈16 ms with real spread.
	mean := pg.RTTs.Mean()
	if mean < 12 || mean > 20 {
		t.Errorf("jittered mean RTT = %.2f ms, want ≈16", mean)
	}
	if spread := pg.RTTs.Percentile(90) - pg.RTTs.Percentile(10); spread < 2 {
		t.Errorf("jitter spread p10-p90 over %.2f ms, want visible spread", spread)
	}
	if pg.RTTs.Min() < 10 {
		t.Errorf("RTT below the propagation floor: %.2f ms", pg.RTTs.Min())
	}
}

func TestTwoGreedyFlowsShareFairly(t *testing.T) {
	// Two AIMD flows over one 40 Mbps bottleneck converge to a roughly
	// fair split.
	eng := sim.NewEngine(5)
	nw := New(eng)
	a1 := nw.AddNode("a1", pkt.AddrFrom(10, 0, 0, 1))
	a2 := nw.AddNode("a2", pkt.AddrFrom(10, 0, 0, 2))
	r := nw.AddNode("r", pkt.AddrFrom(10, 0, 0, 254))
	b := nw.AddNode("b", pkt.AddrFrom(10, 0, 0, 3))
	access := LinkConfig{BitsPerSecond: 1e9, Propagation: time.Millisecond}
	nw.ConnectSymmetric(a1, r, access)
	nw.ConnectSymmetric(a2, r, access)
	nw.ConnectSymmetric(r, b, LinkConfig{BitsPerSecond: 40e6, Propagation: 5 * time.Millisecond, QueueBytes: 128 << 10})
	router := NewRouter(r)
	router.AddHostRoute(a1.Addr(), r.Port(0))
	router.AddHostRoute(a2.Addr(), r.Port(1))
	router.AddHostRoute(b.Addr(), r.Port(2))
	h1, h2, hb := NewHost(a1), NewHost(a2), NewHost(b)

	s1 := NewGreedyReceiver(hb, 6001)
	s2 := NewGreedyReceiver(hb, 6002)
	g1 := NewGreedyFlow(h1, b.Addr(), 6001, 40001, 1400)
	g2 := NewGreedyFlow(h2, b.Addr(), 6002, 40002, 1400)
	g1.Start()
	g2.Start()
	eng.RunFor(30 * time.Second)
	g1.Stop()
	g2.Stop()
	eng.RunFor(time.Second)

	t1 := s1.ThroughputBps() / 1e6
	t2 := s2.ThroughputBps() / 1e6
	total := t1 + t2
	if total < 30 || total > 42 {
		t.Errorf("aggregate = %.1f Mbps, want near the 40 Mbps bottleneck", total)
	}
	ratio := t1 / t2
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("fairness ratio = %.2f (%.1f vs %.1f Mbps)", ratio, t1, t2)
	}
}

// TestSetDownDropAccounting pins the LinkStats counter semantics under
// failure injection: drops at the transmitter never count as sent, so
// Sent+Dropped is the offered load and Sent−Delivered is in flight.
func TestSetDownDropAccounting(t *testing.T) {
	eng, ha, hb, l := twoHosts(t, LinkConfig{BitsPerSecond: 1e6, Propagation: time.Millisecond})
	var got int
	hb.Listen(80, AppFunc(func(_ *Host, p *Packet) { got++ }))
	// One packet accepted into service, then the link fails and two more
	// are offered: the in-service packet is still delivered, the offered
	// ones are dropped at the transmitter.
	ha.Send(hb.Node.Addr(), 1, 80, pkt.ProtoUDP, 1250, nil)
	l.SetDown(true)
	ha.Send(hb.Node.Addr(), 1, 80, pkt.ProtoUDP, 1250, nil)
	ha.Send(hb.Node.Addr(), 1, 80, pkt.ProtoUDP, 1250, nil)
	eng.Run()
	st := l.StatsAB()
	if got != 1 || st.Sent != 1 || st.Delivered != 1 || st.Dropped != 2 {
		t.Errorf("after down: got=%d stats=%+v, want 1 delivered / Sent=1 / Dropped=2", got, st)
	}
	if st.Sent+st.Dropped != 3 {
		t.Errorf("offered = %d, want 3", st.Sent+st.Dropped)
	}
	if st.Sent-st.Delivered != 0 {
		t.Errorf("Sent-Delivered = %d after quiescence, want 0 in flight", st.Sent-st.Delivered)
	}
	// Repair and verify the link carries traffic again with counters intact.
	l.SetDown(false)
	ha.Send(hb.Node.Addr(), 1, 80, pkt.ProtoUDP, 1250, nil)
	eng.Run()
	st = l.StatsAB()
	if got != 2 || st.Sent != 2 || st.Delivered != 2 || st.Dropped != 2 {
		t.Errorf("after repair: got=%d stats=%+v, want Sent=2 Delivered=2 Dropped=2", got, st)
	}
}

// TestConnectNamesNothing: a link reports its counters as a telemetry
// source, so building links names nothing — a run that never snapshots
// (the metro generator builds one link per UE) pays for no metric names —
// and the first snapshot lists every direction's five metrics.
func TestConnectNamesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng)
	hub := nw.AddNode("hub", pkt.AddrFrom(10, 0, 0, 1))
	for i := 0; i < 1000; i++ {
		nw.Connect(hub, nw.AddNode("leaf-"+strconv.Itoa(i), pkt.AddrFrom(10, 1, byte(i>>8), byte(i))), LinkConfig{}, LinkConfig{})
	}
	for _, l := range nw.links {
		if l.names != nil {
			t.Fatalf("link %d named its metrics before any snapshot", l.idx)
		}
	}
	snap := eng.Metrics().Snapshot()
	if got := len(snap.Metrics); got != 10000 {
		t.Fatalf("first snapshot lists %d metrics, want 10000 (1000 links x 2 directions x 5)", got)
	}
	for _, name := range []string{"netsim/link/0/hub->leaf-0/sent", "netsim/link/999/leaf-999->hub/queue-bytes"} {
		if _, ok := snap.Get(name); !ok {
			t.Errorf("snapshot lacks %s", name)
		}
	}
	if n := testing.AllocsPerRun(10, func() { eng.Metrics().Snapshot() }); n > 3 {
		t.Errorf("a repeated snapshot of 1000 links allocates %.0f times, want <= 3 (the snapshot, its metric slice, the sorted named-metric list)", n)
	}
}

// handlerFunc adapts a function to the Handler interface.
type handlerFunc func(ingress *Port, p *Packet)

func (f handlerFunc) Handle(ingress *Port, p *Packet) { f(ingress, p) }
