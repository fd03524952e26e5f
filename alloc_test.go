package acacia

// Allocation benchmarks and zero-alloc contract tests for the hot paths
// covered by DESIGN.md §3f. The BenchmarkAlloc* family is what
// `make bench-alloc` records into BENCH_alloc.json, and what
// cmd/acacia-allocgate holds against the budgets in ALLOC_BUDGET.json.
// The TestZeroAlloc* tests pin the strict 0 allocs/op contracts directly
// with testing.AllocsPerRun so a regression fails `go test` even without
// the benchmark gate.

import (
	"fmt"
	"testing"
	"time"

	"acacia/internal/ctl"
	"acacia/internal/epc"
	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sdn"
	"acacia/internal/sim"
	"acacia/internal/telemetry"
)

// BenchmarkAllocGTPUEncap measures the zero-alloc encap path: outer
// IPv4+UDP+GTP-U headers appended to a reused scratch buffer.
func BenchmarkAllocGTPUEncap(b *testing.B) {
	src, dst := pkt.AddrFrom(10, 0, 0, 1), pkt.AddrFrom(10, 0, 0, 2)
	buf := make([]byte, 0, pkt.GTPUOverhead)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = pkt.AppendGPDU(buf[:0], src, dst, 0xbeef, 1400)
	}
	if len(buf) != pkt.GTPUOverhead {
		b.Fatalf("encap length %d, want %d", len(buf), pkt.GTPUOverhead)
	}
}

// BenchmarkAllocGTPUEncapDecap round-trips a full tunneled packet through
// encap and decap with every buffer reused across iterations.
func BenchmarkAllocGTPUEncapDecap(b *testing.B) {
	src, dst := pkt.AddrFrom(10, 0, 0, 1), pkt.AddrFrom(10, 0, 0, 2)
	inner := make([]byte, 1400)
	buf := make([]byte, 0, pkt.GTPUOverhead+len(inner))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = pkt.AppendGPDU(buf[:0], src, dst, 0xbeef, len(inner))
		buf = append(buf, inner...)
		teid, got, err := pkt.DecapsulateGPDU(buf)
		if err != nil {
			b.Fatal(err)
		}
		if teid != 0xbeef || len(got) != len(inner) {
			b.Fatalf("decap teid %#x len %d", teid, len(got))
		}
	}
}

// BenchmarkAllocTelemetryInc measures a counter increment on an
// already-registered metric — the per-event telemetry hot path.
func BenchmarkAllocTelemetryInc(b *testing.B) {
	reg := telemetry.New()
	c := reg.Scope("bench").Counter("inc")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkAllocTelemetryObserve measures a histogram observation, the
// per-sample latency-recording path.
func BenchmarkAllocTelemetryObserve(b *testing.B) {
	reg := telemetry.New()
	h := reg.Scope("bench").Histogram("observe")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i))
	}
}

// BenchmarkAllocTelemetryScope measures re-deriving an interned scope —
// the path a handler takes when it scopes metrics per message rather than
// caching the Scope value.
func BenchmarkAllocTelemetryScope(b *testing.B) {
	reg := telemetry.New()
	reg.Scope("epc").Scope("s1ap") // warm the intern table
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = reg.Scope("epc").Scope("s1ap")
	}
}

// BenchmarkAllocPacketPath measures the steady-state one-hop data path:
// pooled packet out of the network free-list, link transit, sink release.
func BenchmarkAllocPacketPath(b *testing.B) {
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	na := nw.AddNode("a", pkt.AddrFrom(10, 0, 0, 1))
	nb := nw.AddNode("b", pkt.AddrFrom(10, 0, 0, 2))
	ha := netsim.NewHost(na)
	netsim.NewSink(netsim.NewHost(nb), 9000)
	nw.ConnectSymmetric(na, nb, netsim.LinkConfig{BitsPerSecond: 1e9, Propagation: time.Millisecond})
	// Warm the packet and event pools before measuring.
	ha.Send(pkt.AddrFrom(10, 0, 0, 2), 30000, 9000, pkt.ProtoUDP, 1200, nil)
	eng.Run()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ha.Send(pkt.AddrFrom(10, 0, 0, 2), 30000, 9000, pkt.ProtoUDP, 1200, nil)
		eng.Run()
	}
}

// BenchmarkAllocQueuedLink measures the link transmit queue in steady state
// under congestion: a FIFO direction (a -> b, one lane) and a QCI-prioritised
// one (b -> a, nine lanes) each hold a 64-packet backlog, and every
// iteration offers one packet to each and serialises one out of each, so
// lanes compact, drain and refill with no allocation.
func BenchmarkAllocQueuedLink(b *testing.B) {
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	na := nw.AddNode("a", pkt.AddrFrom(10, 0, 0, 1))
	nb := nw.AddNode("b", pkt.AddrFrom(10, 0, 0, 2))
	netsim.NewSink(netsim.NewHost(na), 9000)
	netsim.NewSink(netsim.NewHost(nb), 9000)
	fifo := netsim.LinkConfig{BitsPerSecond: 10e6, Propagation: time.Millisecond}
	radio := fifo
	radio.Prioritized = true
	nw.Connect(na, nb, fifo, radio)
	const size = 1250 // 1 ms of serialisation at 10 Mbps
	n := 0
	offer := func() {
		for _, end := range [2][2]*netsim.Node{{na, nb}, {nb, na}} {
			p := end[0].NewPacket()
			p.Flow = pkt.FiveTuple{Src: end[0].Addr(), Dst: end[1].Addr(), DstPort: 9000, Proto: pkt.ProtoUDP}
			p.Size, p.Priority = size, 1+n%9
			end[0].Inject(p)
		}
		n++
	}
	for i := 0; i < 64; i++ {
		offer()
	}
	step := func() {
		offer()
		eng.RunFor(time.Millisecond)
	}
	for i := 0; i < 256; i++ { // warm pools, lanes and the compaction cycle
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	if got := nw.Links()[0].BacklogAB(); got < 32*size {
		b.Fatalf("a->b backlog %d bytes: the direction is not congested", got)
	}
}

// BenchmarkAllocConnect measures building one link: the metro generator
// builds one per UE. Links fan onto one hub, 10,000 to a network (a fresh
// network per 10,000 keeps the heap flat); telemetry names nothing until a
// snapshot reads it, so what is left is the link itself and the two
// pre-bound method values per direction.
func BenchmarkAllocConnect(b *testing.B) {
	const fanout = 10000
	cfg := netsim.LinkConfig{Propagation: time.Millisecond}
	var nw *netsim.Network
	var hub, leaf *netsim.Node
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%fanout == 0 {
			nw = netsim.New(sim.NewEngine(1))
			hub = nw.AddNode("hub", pkt.AddrFrom(10, 0, 0, 1))
			leaf = nw.AddNode("leaf", pkt.AddrFrom(10, 0, 0, 2))
		}
		nw.Connect(hub, leaf, cfg, cfg)
	}
}

// BenchmarkAllocEngineSchedule measures pooled event scheduling with a
// pre-bound callback, the engine's per-event hot path.
func BenchmarkAllocEngineSchedule(b *testing.B) {
	eng := sim.NewEngine(1)
	nop := func() {}
	// Warm the event pool.
	eng.Schedule(1, nop)
	eng.Run()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.Schedule(1, nop)
		eng.Run()
	}
}

// BenchmarkAllocEngineHold is the hold model on the event queue: depth
// pending events, each handler re-arming itself once, so one op is one pop
// plus one add at that depth. The delays mix same-instant, microsecond,
// millisecond and 100 ms distances, so slots enter the radix queue at every
// height, and the clock keeps crossing power-of-two boundaries, so ever new
// buckets fill — from the queue's spare arrays, not the allocator.
func BenchmarkAllocEngineHold(b *testing.B) {
	units := [...]time.Duration{0, time.Microsecond, time.Millisecond, 100 * time.Millisecond}
	for _, depth := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("q%dk", depth>>10), func(b *testing.B) {
			eng := sim.NewEngine(1)
			rng := eng.RNG()
			left := 0
			var hold func()
			hold = func() {
				r := rng.Uint64()
				eng.Schedule(units[r&3]*time.Duration(1+r>>2&15), hold)
				if left--; left == 0 {
					eng.Stop()
				}
			}
			left = 8 * depth // warm the event pool and the bucket arrays
			for i := 0; i < depth; i++ {
				hold()
			}
			eng.Run()
			b.ReportAllocs()
			b.ResetTimer()
			left = b.N
			eng.Run()
		})
	}
}

// BenchmarkAllocCtlTxn measures one control transaction on a warmed endpoint
// pair: the request frame, its T3 timer, the ack coming back and the
// receiver's duplicate filter, all drawn from pools.
func BenchmarkAllocCtlTxn(b *testing.B) {
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	tr := ctl.NewTransport(eng)
	a := tr.Endpoint(nw.AddNode("a", pkt.AddrFrom(10, 0, 0, 1)), true)
	z := tr.Endpoint(nw.AddNode("z", pkt.AddrFrom(10, 0, 0, 2)), true)
	ctl.Connect(a, z, netsim.LinkConfig{Propagation: time.Millisecond})
	delivered := 0
	deliver := func() { delivered++ }
	txn := func() {
		a.Send(z.Addr(), a.NextSeq(z.Addr()), "Req", 120, deliver, nil, nil)
		eng.Run()
	}
	for i := 0; i < 64; i++ {
		txn()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn()
	}
	if delivered != b.N+64 {
		b.Fatalf("delivered %d of %d transactions", delivered, b.N+64)
	}
}

// BenchmarkAllocTicker measures a steady-state ticker period: the tick's
// event is recycled before the re-arm takes it back, so a tick costs no
// allocation.
func BenchmarkAllocTicker(b *testing.B) {
	eng := sim.NewEngine(1)
	tk := sim.NewTicker(eng, time.Millisecond, func() {})
	defer tk.Stop()
	eng.RunFor(time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(time.Millisecond)
	}
}

// switchPath builds host a -> SDN switch -> CPU-modelled host b with a
// forwarding flow installed and every pool warm, and returns a function
// that sends one packet from a to b and runs it to delivery. Both hops
// past a queue the packet for a single-server CPU (the switch's and the
// node's), which is where a pop that shrinks the queue's capacity used to
// cost an allocation per packet.
func switchPath(tb testing.TB) func() {
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	na := nw.AddNode("a", pkt.AddrFrom(10, 0, 0, 1))
	ns := nw.AddNode("s", pkt.AddrFrom(10, 0, 0, 2))
	nb := nw.AddNode("b", pkt.AddrFrom(10, 0, 0, 3))
	cfg := netsim.LinkConfig{BitsPerSecond: 1e9, Propagation: 100 * time.Microsecond}
	nw.ConnectSymmetric(na, ns, cfg) // s port 0
	nw.ConnectSymmetric(ns, nb, cfg) // s port 1
	nb.SetCPU(&netsim.CPUModel{PerPacket: 10 * time.Microsecond})
	ha := netsim.NewHost(na)
	sink := netsim.NewSink(netsim.NewHost(nb), 9000)

	sw := sdn.NewSwitch(1, ns, sdn.ACACIAGWCosts)
	ctl := sdn.NewController(eng)
	ctl.AddSwitch(sw)
	ctl.InstallFlow(sw, sdn.FlowEntry{
		Priority: 100, Cookie: 1,
		Match:   pkt.Match{IPv4Dst: pkt.AddrPtr(nb.Addr())},
		Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 1}},
	})
	eng.RunFor(time.Millisecond) // let the FlowMod land

	send := func() {
		ha.Send(nb.Addr(), 30000, 9000, pkt.ProtoUDP, 1200, nil)
		eng.Run()
	}
	// The first packet takes the slow path and fills the megaflow cache and
	// the pools; the second runs the steady-state path once.
	send()
	send()
	if sink.Packets != 2 {
		tb.Fatalf("warm-up delivered %d packets through the switch, want 2", sink.Packets)
	}
	return send
}

// BenchmarkAllocSwitchPath measures a packet crossing a switch CPU queue and
// a node CPU queue in steady state.
func BenchmarkAllocSwitchPath(b *testing.B) {
	send := switchPath(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

// BenchmarkAllocTFTMatch measures the modem's per-packet uplink
// classification against a dedicated-bearer TFT: the template is shared by
// every session bound to the site, so matching must only read it.
func BenchmarkAllocTFTMatch(b *testing.B) {
	ci := pkt.AddrFrom(10, 3, 0, 10)
	tft := pkt.DedicatedBearerTFT(ci)
	ft := pkt.FiveTuple{Src: pkt.AddrFrom(172, 16, 0, 2), Dst: ci, SrcPort: 40000, DstPort: 7000, Proto: pkt.ProtoTCP}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !tft.MatchUplink(ft, 0) || tft.MatchDownlink(ft, 0) {
			b.Fatal("uplink packet toward the CI server misclassified")
		}
	}
}

// BenchmarkAllocFlowInstall measures one FlowMod add and one delete by
// cookie, controller call to switch table, against a warm 10,000-entry
// table: the encoded message goes into the controller's scratch, the entry
// into a slot the previous round vacated, and what is left is the two
// delivery closures.
func BenchmarkAllocFlowInstall(b *testing.B) {
	eng := sim.NewEngine(1)
	sw := sdn.NewSwitch(1, netsim.New(eng).AddNode("s", pkt.AddrFrom(10, 0, 0, 2)), sdn.ACACIAGWCosts)
	ctl := sdn.NewController(eng)
	ctl.AddSwitch(sw)
	e := sdn.FlowEntry{Priority: 100, Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 1}}}
	round := func(i int) {
		e.Cookie, e.Match = uint64(i), pkt.Match{TunnelID: pkt.U64(uint64(i))}
		ctl.InstallFlow(sw, e)
		eng.Run()
	}
	for i := 1; i <= 10001; i++ {
		round(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.RemoveFlows(sw, uint64(1+i%10001))
		round(1 + i%10001)
	}
	if sw.FlowCount() != 10001 {
		b.Fatalf("%d flows at the end, want 10001", sw.FlowCount())
	}
}

// BenchmarkAllocAttachCycle measures a full control-plane attach/detach
// cycle on a live testbed: NAS + S1AP + GTPv2 signaling, bearer setup and
// teardown, all encoding into core-owned scratch buffers.
func BenchmarkAllocAttachCycle(b *testing.B) {
	tb := NewTestbed(TestbedConfig{Seed: 1})
	ue := tb.UEs[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tb.Attach(ue); err != nil {
			b.Fatal(err)
		}
		done := false
		if err := ue.UE.Detach(func() { done = true }); err != nil {
			b.Fatal(err)
		}
		tb.Run(time.Second)
		if !done {
			b.Fatal("detach did not complete")
		}
	}
}

// BenchmarkAllocAttachBatch measures the batched control-plane path: one
// AttachBatch/DetachBatch cycle over an 8-UE cohort, which coalesces the
// per-UE GTPv2 exchanges into per-batch ones (6 messages per cohort instead
// of 6 per UE). Compare per-UE cost against BenchmarkAllocAttachCycle.
func BenchmarkAllocAttachBatch(b *testing.B) {
	const cohort = 8
	tb := NewTestbed(TestbedConfig{Seed: 1, NumUEs: cohort})
	ues := make([]*epc.UE, cohort)
	for i, bundle := range tb.UEs {
		ues[i] = bundle.UE
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		attached := 0
		tb.EPC.AttachBatch(ues, "core-sgw", "core-pgw", func(_ *epc.UE, err error) {
			if err != nil {
				b.Fatal(err)
			}
			attached++
		})
		tb.Run(2 * time.Second)
		if attached != cohort {
			b.Fatalf("attached %d of %d", attached, cohort)
		}
		detached := 0
		tb.EPC.DetachBatch(ues, func(_ *epc.UE, err error) {
			if err != nil {
				b.Fatal(err)
			}
			detached++
		})
		tb.Run(2 * time.Second)
		if detached != cohort {
			b.Fatalf("detached %d of %d", detached, cohort)
		}
	}
}

// BenchmarkAllocHandover measures the S1 handover control path on a live
// testbed: one iteration ping-pongs an attached session between two cells
// (two full handovers), covering the S1AP leg to both eNBs, the GTPv2
// bearer-modify exchange toward the gateways, and the path switch with its
// compensation bookkeeping. The UE runs no app, so this isolates the
// control plane from MRS relocation and state migration.
func BenchmarkAllocHandover(b *testing.B) {
	tb := NewTestbed(TestbedConfig{Seed: 1, IdleTimeout: time.Hour})
	east := tb.AddNeighborENB("enb-east")
	ue := tb.UEs[0]
	if err := tb.Attach(ue); err != nil {
		b.Fatal(err)
	}
	// Warm: one round trip so lazily-built state exists before measuring.
	if err := tb.Handover(ue, east); err != nil {
		b.Fatal(err)
	}
	if err := tb.Handover(ue, tb.ENB); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tb.Handover(ue, east); err != nil {
			b.Fatal(err)
		}
		if err := tb.Handover(ue, tb.ENB); err != nil {
			b.Fatal(err)
		}
	}
}

// TestZeroAllocGTPUEncap pins the strict contract from ISSUE acceptance:
// GTP-U encapsulation into a reused scratch buffer performs zero
// allocations per packet.
func TestZeroAllocGTPUEncap(t *testing.T) {
	src, dst := pkt.AddrFrom(10, 0, 0, 1), pkt.AddrFrom(10, 0, 0, 2)
	buf := make([]byte, 0, pkt.GTPUOverhead)
	n := testing.AllocsPerRun(1000, func() {
		buf = pkt.AppendGPDU(buf[:0], src, dst, 0xbeef, 1400)
	})
	if n != 0 {
		t.Fatalf("GTP-U encap allocates %.1f times per packet, want 0", n)
	}
}

// TestZeroAllocTelemetry pins zero allocations on counter increment,
// gauge set and histogram observe for registered metrics.
func TestZeroAllocTelemetry(t *testing.T) {
	reg := telemetry.New()
	s := reg.Scope("zero")
	c := s.Counter("c")
	g := s.Gauge("g")
	h := s.Histogram("h")
	x := 0.0
	n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(x)
		h.Observe(x)
		x++
	})
	if n != 0 {
		t.Fatalf("telemetry observe path allocates %.1f times per event, want 0", n)
	}
}

// TestZeroAllocInternedScope pins zero allocations when re-deriving a
// scope whose prefix is already interned in the registry.
func TestZeroAllocInternedScope(t *testing.T) {
	reg := telemetry.New()
	reg.Scope("epc").Scope("s1ap")
	n := testing.AllocsPerRun(1000, func() {
		_ = reg.Scope("epc").Scope("s1ap")
	})
	if n != 0 {
		t.Fatalf("interned scope lookup allocates %.1f times, want 0", n)
	}
}

// TestZeroAllocSwitchPath pins zero allocations for a packet crossing a
// Switch and a CPU-modelled Node: both serve a 0–1-deep CPU queue, and
// popping it must not cost the next append its backing array.
func TestZeroAllocSwitchPath(t *testing.T) {
	send := switchPath(t)
	if n := testing.AllocsPerRun(1000, send); n != 0 {
		t.Fatalf("switch + CPU node path allocates %.1f times per packet, want 0", n)
	}
}
