package acacia

// Allocation budgets for the hot paths covered by DESIGN.md §3f. Every
// ALLOC_BUDGET.json entry names a BenchmarkAlloc* benchmark, and every such
// benchmark is a thin wrapper over a rig: setup and warm-up that return one
// op. TestAllocBudgets holds each rig to its budget with
// testing.AllocsPerRun, so go test is the allocation gate; `make bench`
// still reports the benchmarks' ns/op and allocs/op.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
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
func BenchmarkAllocGTPUEncap(b *testing.B) { benchRig(b, gtpuEncapRig) }

func gtpuEncapRig(t testing.TB) func() {
	src, dst := pkt.AddrFrom(10, 0, 0, 1), pkt.AddrFrom(10, 0, 0, 2)
	buf := make([]byte, 0, pkt.GTPUOverhead)
	return func() {
		if buf = pkt.AppendGPDU(buf[:0], src, dst, 0xbeef, 1400); len(buf) != pkt.GTPUOverhead {
			t.Fatalf("encap length %d, want %d", len(buf), pkt.GTPUOverhead)
		}
	}
}

// BenchmarkAllocGTPUEncapDecap round-trips a full tunneled packet through
// encap and decap with every buffer reused across iterations.
func BenchmarkAllocGTPUEncapDecap(b *testing.B) { benchRig(b, gtpuEncapDecapRig) }

func gtpuEncapDecapRig(t testing.TB) func() {
	src, dst := pkt.AddrFrom(10, 0, 0, 1), pkt.AddrFrom(10, 0, 0, 2)
	inner := make([]byte, 1400)
	buf := make([]byte, 0, pkt.GTPUOverhead+len(inner))
	return func() {
		buf = pkt.AppendGPDU(buf[:0], src, dst, 0xbeef, len(inner))
		buf = append(buf, inner...)
		teid, got, err := pkt.DecapsulateGPDU(buf)
		if err != nil {
			t.Fatal(err)
		}
		if teid != 0xbeef || len(got) != len(inner) {
			t.Fatalf("decap teid %#x len %d", teid, len(got))
		}
	}
}

// BenchmarkAllocTelemetryInc measures a counter increment on an
// already-registered metric — the per-event telemetry hot path.
func BenchmarkAllocTelemetryInc(b *testing.B) { benchRig(b, telemetryIncRig) }

func telemetryIncRig(testing.TB) func() {
	return telemetry.New().Scope("bench").Counter("inc").Inc
}

// BenchmarkAllocTelemetryObserve measures a histogram observation, the
// per-sample latency-recording path.
func BenchmarkAllocTelemetryObserve(b *testing.B) { benchRig(b, telemetryObserveRig) }

func telemetryObserveRig(testing.TB) func() {
	h := telemetry.New().Scope("bench").Histogram("observe")
	x := 0.0
	return func() {
		h.Observe(x)
		x++
	}
}

// BenchmarkAllocTelemetryScope measures re-deriving an interned scope —
// the path a handler takes when it scopes metrics per message rather than
// caching the Scope value.
func BenchmarkAllocTelemetryScope(b *testing.B) { benchRig(b, telemetryScopeRig) }

func telemetryScopeRig(testing.TB) func() {
	reg := telemetry.New()
	reg.Scope("epc").Scope("s1ap") // warm the intern table
	return func() { _ = reg.Scope("epc").Scope("s1ap") }
}

// BenchmarkAllocTimelineEmit measures a timeline event on an interned
// (scope, name) pair: the log grows by whole chunks it never copies, so an
// emit between chunks allocates nothing.
func BenchmarkAllocTimelineEmit(b *testing.B) { benchRig(b, timelineEmitRig) }

func timelineEmitRig(testing.TB) func() {
	s := telemetry.New().Scope("epc").Scope("session").Scope("001")
	return func() { s.Emit("state", "connected") }
}

// BenchmarkAllocPacketPath measures the steady-state one-hop data path:
// pooled packet out of the network free-list, link transit, sink release.
func BenchmarkAllocPacketPath(b *testing.B) { benchRig(b, packetPathRig) }

func packetPathRig(testing.TB) func() {
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	na := nw.AddNode("a", pkt.AddrFrom(10, 0, 0, 1))
	nb := nw.AddNode("b", pkt.AddrFrom(10, 0, 0, 2))
	ha := netsim.NewHost(na)
	netsim.NewSink(netsim.NewHost(nb), 9000)
	nw.ConnectSymmetric(na, nb, netsim.LinkConfig{BitsPerSecond: 1e9, Propagation: time.Millisecond})
	return func() {
		ha.Send(pkt.AddrFrom(10, 0, 0, 2), 30000, 9000, pkt.ProtoUDP, 1200, nil)
		eng.Run()
	}
}

// BenchmarkAllocQueuedLink measures the link transmit queue in steady state
// under congestion: a FIFO direction (a -> b, one lane) and a QCI-prioritised
// one (b -> a, nine lanes) each hold a 64-packet backlog, and every
// iteration offers one packet to each and serialises one out of each, so
// lanes cycle their blocks, drain and refill with no allocation.
func BenchmarkAllocQueuedLink(b *testing.B) { benchRig(b, queuedLinkRig) }

func queuedLinkRig(t testing.TB) func() {
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	na := nw.AddNode("a", pkt.AddrFrom(10, 0, 0, 1))
	nb := nw.AddNode("b", pkt.AddrFrom(10, 0, 0, 2))
	netsim.NewSink(netsim.NewHost(na), 9000)
	netsim.NewSink(netsim.NewHost(nb), 9000)
	fifo := netsim.LinkConfig{BitsPerSecond: 10e6, Propagation: time.Millisecond}
	radio := fifo
	radio.Prioritized = true
	link := nw.Connect(na, nb, fifo, radio)
	const size = 1250 // 1 ms of serialisation at 10 Mbps
	n := 0
	offer := func() {
		for _, end := range [2][2]*netsim.Node{{na, nb}, {nb, na}} {
			p := end[0].NewPacket()
			p.Flow = pkt.FiveTuple{Src: end[0].Addr(), Dst: end[1].Addr(), DstPort: 9000, Proto: pkt.ProtoUDP}
			p.Size, p.Priority = size, uint8(1+n%9)
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
	for i := 0; i < 256; i++ { // warm pools, lanes and their spare blocks
		step()
	}
	if got := link.BacklogAB(); got < 32*size {
		t.Fatalf("a->b backlog %d bytes: the direction is not congested", got)
	}
	return step
}

// BenchmarkAllocConnect measures building one link: the metro generator
// builds one per UE. Links fan onto one hub, 10,000 to a network (a fresh
// network per 10,000 keeps the heap flat); telemetry names nothing until a
// snapshot reads it, and the link is carved from the network's slab, so
// what is left is one pre-bound method value per direction.
func BenchmarkAllocConnect(b *testing.B) { benchRig(b, connectRig) }

func connectRig(testing.TB) func() {
	const fanout = 10000
	cfg := netsim.LinkConfig{Propagation: time.Millisecond}
	var nw *netsim.Network
	var hub, leaf *netsim.Node
	i := 0
	return func() {
		if i%fanout == 0 {
			nw = netsim.New(sim.NewEngine(1))
			hub = nw.AddNode("hub", pkt.AddrFrom(10, 0, 0, 1))
			leaf = nw.AddNode("leaf", pkt.AddrFrom(10, 0, 0, 2))
		}
		i++
		nw.Connect(hub, leaf, cfg, cfg)
	}
}

// BenchmarkAllocEngineSchedule measures pooled event scheduling with a
// pre-bound callback, the engine's per-event hot path.
func BenchmarkAllocEngineSchedule(b *testing.B) { benchRig(b, engineScheduleRig) }

func engineScheduleRig(testing.TB) func() {
	eng := sim.NewEngine(1)
	nop := func() {}
	return func() {
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
	for _, depth := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("q%dk", depth>>10), func(b *testing.B) { benchRig(b, engineHoldRig(depth)) })
	}
}

// engineHoldRig's op runs one event of the hold model at depth.
func engineHoldRig(depth int) allocRig {
	units := [...]time.Duration{0, time.Microsecond, time.Millisecond, 100 * time.Millisecond}
	return func(testing.TB) func() {
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
		return func() {
			left = 1
			eng.Run()
		}
	}
}

// BenchmarkAllocCtlTxn measures one control transaction on a warmed endpoint
// pair: the request frame, its T3 timer, the ack coming back and the
// receiver's duplicate filter, all drawn from pools.
func BenchmarkAllocCtlTxn(b *testing.B) { benchRig(b, ctlTxnRig) }

// ctlTxnRig returns one loss-free transaction between two fresh endpoints,
// run to its ack, after 64 warm-up transactions.
func ctlTxnRig(t testing.TB) func() {
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	tr := ctl.NewTransport(eng)
	a := tr.Endpoint(nw.AddNode("a", pkt.AddrFrom(10, 0, 0, 1)), true)
	z := tr.Endpoint(nw.AddNode("z", pkt.AddrFrom(10, 0, 0, 2)), true)
	ctl.Connect(a, z, netsim.LinkConfig{Propagation: time.Millisecond})
	delivered := false
	deliver := func() { delivered = true }
	txn := func() {
		delivered = false
		a.Send(z.Addr(), a.NextSeq(z.Addr()), "Req", 120, deliver, nil, nil)
		eng.Run()
		if !delivered {
			t.Fatal("control transaction not delivered")
		}
	}
	for i := 0; i < 64; i++ {
		txn()
	}
	return txn
}

// BenchmarkAllocTicker measures a steady-state ticker period: the tick's
// event is recycled before the re-arm takes it back, so a tick costs no
// allocation.
func BenchmarkAllocTicker(b *testing.B) { benchRig(b, tickerRig) }

func tickerRig(testing.TB) func() {
	eng := sim.NewEngine(1)
	sim.NewTicker(eng, time.Millisecond, func() {})
	return func() { eng.RunFor(time.Millisecond) }
}

// switchPathRig builds host a -> SDN switch -> host b with a forwarding flow
// installed and every pool warm, and returns a function that sends one
// packet from a to b and runs it to delivery. The switch queues the packet
// for its single-server CPU, which is where a pop that shrinks the queue's
// capacity used to cost an allocation per packet.
func switchPathRig(tb testing.TB) func() {
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	na := nw.AddNode("a", pkt.AddrFrom(10, 0, 0, 1))
	ns := nw.AddNode("s", pkt.AddrFrom(10, 0, 0, 2))
	nb := nw.AddNode("b", pkt.AddrFrom(10, 0, 0, 3))
	cfg := netsim.LinkConfig{BitsPerSecond: 1e9, Propagation: 100 * time.Microsecond}
	nw.ConnectSymmetric(na, ns, cfg) // s port 0
	nw.ConnectSymmetric(ns, nb, cfg) // s port 1
	ha := netsim.NewHost(na)
	sink := netsim.NewSink(netsim.NewHost(nb), 9000)

	sw := sdn.NewSwitch(1, ns, sdn.ACACIAGWCosts)
	controller := sdn.NewController(eng)
	controller.AddSwitch(sw)
	wireController(controller, eng, nw)
	controller.InstallFlow(sw, sdn.FlowEntry{
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

// wireController connects c to its switches over a control node of its own.
func wireController(c *sdn.Controller, eng *sim.Engine, nw *netsim.Network) {
	c.EnableTransport(ctl.NewTransport(eng), nw.AddNode("sdn-ctl", pkt.AddrFrom(10, 255, 0, 10)))
}

// BenchmarkAllocSwitchPath measures a packet crossing a switch CPU queue in
// steady state.
func BenchmarkAllocSwitchPath(b *testing.B) { benchRig(b, switchPathRig) }

// BenchmarkAllocSwitchBacklog holds an OpenEPC-cost switch (every packet
// on the 35 µs slow path) at a backlog of about 4,000 packets, Fig. 8's
// overload regime, and each iteration offers one packet and serves one.
// The CPU queue's blocks cycle through its spare list and the packets
// through the pool, so the steady state allocates nothing at all.
func BenchmarkAllocSwitchBacklog(b *testing.B) { benchRig(b, switchBacklogRig) }

func switchBacklogRig(t testing.TB) func() {
	const backlog = 4000
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	na := nw.AddNode("a", pkt.AddrFrom(10, 0, 0, 1))
	ns := nw.AddNode("s", pkt.AddrFrom(10, 0, 0, 2))
	nb := nw.AddNode("b", pkt.AddrFrom(10, 0, 0, 3))
	cfg := netsim.LinkConfig{BitsPerSecond: 1e9, Propagation: 100 * time.Microsecond}
	nw.ConnectSymmetric(na, ns, cfg) // s port 0
	nw.ConnectSymmetric(ns, nb, cfg) // s port 1
	ha := netsim.NewHost(na)
	sink := netsim.NewSink(netsim.NewHost(nb), 9000)
	sw := sdn.NewSwitch(1, ns, sdn.OpenEPCGWCosts)
	controller := sdn.NewController(eng)
	controller.AddSwitch(sw)
	wireController(controller, eng, nw)
	controller.InstallFlow(sw, sdn.FlowEntry{
		Priority: 100, Cookie: 1,
		Match:   pkt.Match{IPv4Dst: pkt.AddrPtr(nb.Addr())},
		Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 1}},
	})
	eng.RunFor(time.Millisecond) // let the FlowMod land
	sent := 0
	offer := func() {
		ha.Send(nb.Addr(), 30000, 9000, pkt.ProtoUDP, 1200, nil)
		sent++
	}
	// One offer per slow-path service time keeps the backlog where the
	// burst put it; 3,000 warm-up rounds fill the packet pool and the
	// queue's spare list.
	step := func() {
		offer()
		eng.RunFor(sdn.OpenEPCGWCosts.SlowPath)
	}
	for i := 0; i < backlog; i++ {
		offer()
	}
	for i := 0; i < 3000; i++ {
		step()
	}
	// allocs/op rounds one new block per 1,024 packets down to 0, so also
	// count per 1,024 steps, averaged over 16 rounds.
	if n := testing.AllocsPerRun(16, func() {
		for i := 0; i < 1024; i++ {
			step()
		}
	}); n != 0 {
		t.Fatalf("%.0f allocations per 1,024 steps at a steady backlog, want 0", n)
	}
	if waiting := sent - int(sink.Packets); waiting < backlog/2 {
		t.Fatalf("%d packets behind the switch, want a backlog near %d", waiting, backlog)
	}
	return step
}

// BenchmarkAllocTFTMatch measures the modem's per-packet uplink
// classification against a dedicated-bearer TFT: the template is shared by
// every session bound to the site, so matching must only read it.
func BenchmarkAllocTFTMatch(b *testing.B) { benchRig(b, tftMatchRig) }

func tftMatchRig(t testing.TB) func() {
	ci := pkt.AddrFrom(10, 3, 0, 10)
	tft := pkt.DedicatedBearerTFT(ci)
	ft := pkt.FiveTuple{Src: pkt.AddrFrom(172, 16, 0, 2), Dst: ci, SrcPort: 40000, DstPort: 7000, Proto: pkt.ProtoTCP}
	return func() {
		if !tft.MatchUplink(ft, 0) {
			t.Fatal("uplink packet toward the CI server misclassified")
		}
	}
}

// BenchmarkAllocFlowInstall measures one FlowMod add and one delete by
// cookie, controller call to switch table, against a warm 10,000-entry
// table: the encoded message goes into the controller's scratch, the entry
// into a slot the previous round vacated, both messages ride the pooled
// control transport, and each carries its entry or cookie in a pooled
// FlowMod record, so the round allocates nothing.
func BenchmarkAllocFlowInstall(b *testing.B) { benchRig(b, flowInstallRig) }

func flowInstallRig(t testing.TB) func() {
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	sw := sdn.NewSwitch(1, nw.AddNode("s", pkt.AddrFrom(10, 0, 0, 2)), sdn.ACACIAGWCosts)
	controller := sdn.NewController(eng)
	controller.AddSwitch(sw)
	wireController(controller, eng, nw)
	e := sdn.FlowEntry{Priority: 100, Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 1}}}
	round := func(i int) {
		e.Cookie, e.Match = uint64(i), pkt.Match{TunnelID: pkt.U64(uint64(i))}
		controller.InstallFlow(sw, e)
		eng.Run()
	}
	for i := 1; i <= 10001; i++ {
		round(i)
	}
	if sw.FlowCount() != 10001 {
		t.Fatalf("%d flows after the fill, want 10001", sw.FlowCount())
	}
	i := 0
	return func() {
		controller.RemoveFlows(sw, uint64(1+i%10001))
		round(1 + i%10001)
		i++
	}
}

// BenchmarkAllocAttachCycle measures a full control-plane attach/detach
// cycle on a live testbed: NAS + S1AP + GTPv2 signaling, bearer setup and
// teardown, all encoding into core-owned scratch buffers.
func BenchmarkAllocAttachCycle(b *testing.B) { benchRig(b, attachCycleRig) }

func attachCycleRig(t testing.TB) func() {
	tb := NewTestbed(TestbedConfig{Seed: 1})
	ue := tb.UEs[0]
	done := false
	detached := func() { done = true }
	return func() {
		if err := tb.Attach(ue); err != nil {
			t.Fatal(err)
		}
		done = false
		if err := ue.UE.Detach(detached); err != nil {
			t.Fatal(err)
		}
		tb.Run(time.Second)
		if !done {
			t.Fatal("detach did not complete")
		}
	}
}

// BenchmarkAllocAttachBatch measures the batched control-plane path: one
// AttachBatch/DetachBatch cycle over an 8-UE cohort, which coalesces the
// per-UE GTPv2 exchanges into per-batch ones (6 messages per cohort instead
// of 6 per UE). Compare per-UE cost against BenchmarkAllocAttachCycle. The
// rig runs 50 warm-up cycles first: the early cycles pay map and timeline
// growth (8, 8, 6, 6, 5, 5, ... mallocs) and would round the measured mean
// up from its steady 4.2.
func BenchmarkAllocAttachBatch(b *testing.B) { benchRig(b, attachBatchRig) }

func attachBatchRig(t testing.TB) func() {
	const cohort = 8
	tb := NewTestbed(TestbedConfig{Seed: 1, NumUEs: cohort})
	ues := make([]*epc.UE, cohort)
	for i, bundle := range tb.UEs {
		ues[i] = bundle.UE
	}
	op := func() {
		attached := 0
		tb.EPC.AttachBatch(ues, "core-sgw", "core-pgw", func(_ *epc.UE, err error) {
			if err != nil {
				t.Fatal(err)
			}
			attached++
		})
		tb.Run(2 * time.Second)
		if attached != cohort {
			t.Fatalf("attached %d of %d", attached, cohort)
		}
		detached := 0
		tb.EPC.DetachBatch(ues, func(_ *epc.UE, err error) {
			if err != nil {
				t.Fatal(err)
			}
			detached++
		})
		tb.Run(2 * time.Second)
		if detached != cohort {
			t.Fatalf("detached %d of %d", detached, cohort)
		}
	}
	for i := 0; i < 50; i++ {
		op()
	}
	return op
}

// BenchmarkAllocHandover measures the S1 handover control path on a live
// testbed: one iteration ping-pongs an attached session between two cells
// (two full handovers), covering the S1AP leg to both eNBs, the GTPv2
// bearer-modify exchange toward the gateways, and the path switch with its
// compensation bookkeeping. The UE runs no app, so this isolates the
// control plane from MRS relocation and state migration.
func BenchmarkAllocHandover(b *testing.B) { benchRig(b, handoverRig) }

func handoverRig(t testing.TB) func() {
	tb := NewTestbed(TestbedConfig{Seed: 1, IdleTimeout: time.Hour})
	east := tb.AddNeighborENB("enb-east")
	ue := tb.UEs[0]
	if err := tb.Attach(ue); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := tb.Handover(ue, east); err != nil {
			t.Fatal(err)
		}
		if err := tb.Handover(ue, tb.ENB); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkAllocIdleCycle measures the idle-mode procedures on a live
// testbed: one iteration lets the UE's inactivity timer release it twice,
// waking it once by uplink data (a promotion) and once by downlink data (a
// page, then the promotion the page starts).
func BenchmarkAllocIdleCycle(b *testing.B) { benchRig(b, idleCycleRig) }

func idleCycleRig(t testing.TB) func() {
	tb := NewTestbed(TestbedConfig{Seed: 1, IdleTimeout: 2 * time.Second, DiscoveryPeriod: time.Hour})
	ue, server := tb.UEs[0].UE, tb.CentralMEC
	if err := tb.Attach(tb.UEs[0]); err != nil {
		t.Fatal(err)
	}
	sess := tb.EPC.Session(ue.IMSI)
	settle := func(d time.Duration, want epc.SessionState) {
		tb.Run(d)
		if sess.State != want {
			t.Fatalf("session %v, want %v", sess.State, want)
		}
	}
	return func() {
		settle(3*time.Second, epc.StateIdle)
		ue.Host.Send(server.Node.Addr(), 9000, 9000, pkt.ProtoUDP, 100, nil)
		settle(time.Second, epc.StateConnected)
		settle(3*time.Second, epc.StateIdle)
		server.Send(ue.Addr(), 9000, 9000, pkt.ProtoUDP, 100, nil)
		settle(time.Second, epc.StateConnected)
	}
}

// BenchmarkAllocChurnRound measures one round of the control-plane churn
// the paper's per-session bearer lifecycle implies, over 16 UEs: attach,
// MRS bind (dedicated MEC bearer and its flows), handover out and back,
// release, detach. Every procedure runs on a pooled record whose legs ride
// pooled continuation records, flow rules hold their actions inline, the
// MRS bindings are pooled too, and each attach's session and bearers are
// carved from the core's slabs: what is left is a share of those slabs,
// just under one allocation a round once 20 warm-up rounds are past (the
// measured mean flips between 0 and 1, so the budget is 1).
func BenchmarkAllocChurnRound(b *testing.B) { benchRig(b, churnRoundRig) }

func churnRoundRig(t testing.TB) func() {
	tb := NewTestbed(TestbedConfig{Seed: 1, NumUEs: 16, IdleTimeout: time.Hour, DiscoveryPeriod: time.Hour})
	east := tb.AddNeighborENB("enb-east")
	tb.Run(time.Second)
	fired := 0
	bound := func(_ pkt.Addr, err error) {
		if err == nil {
			fired++
		}
	}
	released := func(err error) {
		if err == nil {
			fired++
		}
	}
	detached := func() { fired++ }
	fanOut := func(phase string, issue func(u *UEBundle) error) {
		fired = 0
		for _, u := range tb.UEs {
			if err := issue(u); err != nil {
				t.Fatalf("%s %s: %v", phase, u.Name, err)
			}
		}
		tb.Run(2 * time.Second)
		if fired != len(tb.UEs) {
			t.Fatalf("%s: %d of %d completed", phase, fired, len(tb.UEs))
		}
	}
	op := func() {
		for _, u := range tb.UEs {
			if err := tb.Attach(u); err != nil {
				t.Fatal(err)
			}
		}
		fanOut("bind", func(u *UEBundle) error {
			tb.MRS.RequestConnectivity(RetailServiceName, u.UE.Addr(), tb.ENB.Name(), bound)
			return nil
		})
		for _, u := range tb.UEs {
			for _, target := range []*epc.ENB{east, tb.ENB} {
				if err := tb.Handover(u, target); err != nil {
					t.Fatal(err)
				}
			}
		}
		fanOut("release", func(u *UEBundle) error {
			tb.MRS.ReleaseConnectivity(u.UE.Addr(), released)
			return nil
		})
		fanOut("detach", func(u *UEBundle) error { return u.UE.Detach(detached) })
	}
	for i := 0; i < 20; i++ {
		op()
	}
	return op
}

// allocRig builds a benchmark's fixture and returns one op. A rig warms
// only what one op cannot: its callers run one op before they measure.
type allocRig func(testing.TB) func()

// benchRig times rig's op after one warm-up op, as testing.AllocsPerRun
// does: the body of every BenchmarkAlloc* benchmark.
func benchRig(b *testing.B, rig allocRig) {
	op := rig(b)
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// allocRigs are the rigs TestAllocBudgets holds, by the benchmark name
// ALLOC_BUDGET.json budgets them under, each with the number of ops
// testing.AllocsPerRun averages over.
var allocRigs = map[string]struct {
	rig  allocRig
	runs int
}{
	"BenchmarkAllocGTPUEncap":        {gtpuEncapRig, 1000},
	"BenchmarkAllocGTPUEncapDecap":   {gtpuEncapDecapRig, 1000},
	"BenchmarkAllocTelemetryInc":     {telemetryIncRig, 1000},
	"BenchmarkAllocTelemetryObserve": {telemetryObserveRig, 1000},
	"BenchmarkAllocTelemetryScope":   {telemetryScopeRig, 1000},
	"BenchmarkAllocTimelineEmit":     {timelineEmitRig, 1000},
	"BenchmarkAllocPacketPath":       {packetPathRig, 1000},
	"BenchmarkAllocQueuedLink":       {queuedLinkRig, 1000},
	"BenchmarkAllocConnect":          {connectRig, 1000},
	"BenchmarkAllocEngineSchedule":   {engineScheduleRig, 1000},
	"BenchmarkAllocEngineHold/q1k":   {engineHoldRig(1 << 10), 1000},
	"BenchmarkAllocEngineHold/q64k":  {engineHoldRig(1 << 16), 1000},
	"BenchmarkAllocCtlTxn":           {ctlTxnRig, 1000},
	"BenchmarkAllocTicker":           {tickerRig, 1000},
	"BenchmarkAllocSwitchPath":       {switchPathRig, 1000},
	"BenchmarkAllocSwitchBacklog":    {switchBacklogRig, 1000},
	"BenchmarkAllocTFTMatch":         {tftMatchRig, 1000},
	"BenchmarkAllocFlowInstall":      {flowInstallRig, 1000},
	"BenchmarkAllocAttachCycle":      {attachCycleRig, 50},
	"BenchmarkAllocAttachBatch":      {attachBatchRig, 20},
	"BenchmarkAllocHandover":         {handoverRig, 50},
	"BenchmarkAllocIdleCycle":        {idleCycleRig, 20},
	"BenchmarkAllocChurnRound":       {churnRoundRig, 20},
}

// allocHeldElsewhere names the budgets a test other than TestAllocBudgets
// holds, with the test that does.
var allocHeldElsewhere = map[string]string{
	"BenchmarkAllocGWChain": "internal/experiments TestGWChainAllocBudget",
	"ScaleAllocsPerUE":      "TestScaleAllocsPerUE",
}

// raceBuild reports a -race build, whose instrumentation allocates; the
// race-only file alloc_race_test.go sets it.
var raceBuild bool

// TestAllocBudgets holds every ALLOC_BUDGET.json entry inside go test: each
// rig, averaged over its runs by testing.AllocsPerRun (which warms it with
// one op first), must stay within its budget. The gate is two-sided: a rig
// measuring more than max(1, 2%) under its budget fails too, naming the
// value to write, so a PR that cuts allocations records the cut (a -race
// build allocates more, so it checks only the ceiling). A budget with no
// rig, or a rig with no budget, fails, so a renamed benchmark cannot escape
// the gate.
func TestAllocBudgets(t *testing.T) {
	raw, err := os.ReadFile("ALLOC_BUDGET.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget map[string]float64
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(budget))
	for name := range budget {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c, ok := allocRigs[name]
		if !ok {
			if _, ok := allocHeldElsewhere[name]; !ok {
				t.Errorf("ALLOC_BUDGET.json budgets %s, which has no rig", name)
			}
			continue
		}
		t.Run(name, func(t *testing.T) {
			got, want := testing.AllocsPerRun(c.runs, c.rig(t)), budget[name]
			if got > want {
				t.Errorf("%.0f allocs per op, budget %.0f", got, want)
			}
			if !raceBuild && got < want-max(1, 0.02*want) {
				t.Errorf("%.0f allocs per op, under budget %.0f: write %.0f to ALLOC_BUDGET.json", got, want, got)
			}
			t.Logf("%.0f allocs per op (budget %.0f)", got, budget[name])
		})
	}
	rigs := make([]string, 0, len(allocRigs)+len(allocHeldElsewhere))
	for name := range allocRigs {
		rigs = append(rigs, name)
	}
	for name := range allocHeldElsewhere {
		rigs = append(rigs, name)
	}
	sort.Strings(rigs)
	for _, name := range rigs {
		if _, ok := budget[name]; !ok {
			t.Errorf("rig %s has no ALLOC_BUDGET.json entry", name)
		}
	}
}

// TestScaleAllocsPerUE holds what one more UE costs the metro scenario to
// ALLOC_BUDGET.json's ScaleAllocsPerUE, two-sided as TestAllocBudgets
// holds its rigs: a scaled-down metro-attach shape (4 sites x 2 eNBs,
// flash arrivals, 2 s ramp, every UE bound) runs at 1,000 and 2,000 UEs,
// and the difference in mallocs over the difference in UEs, floored,
// leaves out the metro's fixed cost. Counts only: no wall time is read.
func TestScaleAllocsPerUE(t *testing.T) {
	raw, err := os.ReadFile("ALLOC_BUDGET.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget map[string]float64
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatal(err)
	}
	want, ok := budget["ScaleAllocsPerUE"]
	if !ok {
		t.Fatal("ALLOC_BUDGET.json has no ScaleAllocsPerUE")
	}
	if raceBuild {
		t.Skip("race instrumentation adds about one allocation per UE")
	}
	mallocs := func(ues int) uint64 {
		cfg := ScaleConfig{
			Sites: 4, ENBsPerSite: 2, UEs: ues, Ramp: 2 * time.Second, Hold: time.Second,
			CohortWindow: 250 * time.Millisecond, FramePeriod: 2 * time.Second, FrameService: 2 * time.Millisecond,
			Arrival: "flash", FlashSite: 1, FlashFraction: 0.2,
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		res := RunScaleScenario(1, cfg)
		runtime.ReadMemStats(&m1)
		if note := fmt.Sprintf("attached %d/%d UEs, %d bound", ues, ues, ues); !strings.HasPrefix(res.Notes[0], note) {
			t.Fatalf("%d UEs: %q, want every UE attached and bound", ues, res.Notes[0])
		}
		return m1.Mallocs - m0.Mallocs
	}
	lo, hi := mallocs(1000), mallocs(2000)
	got := math.Floor(float64(hi-lo) / 1000)
	if got > want {
		t.Errorf("%.0f allocs per UE, budget %.0f", got, want)
	}
	if !raceBuild && got < want-max(1, 0.02*want) {
		t.Errorf("%.0f allocs per UE, under budget %.0f: write %.0f to ALLOC_BUDGET.json", got, want, got)
	}
	t.Logf("%.0f allocs per UE (%d mallocs at 1,000 UEs, %d at 2,000; budget %.0f)", got, lo, hi, want)
}

// TestZeroAllocTelemetry pins zero allocations on a gauge set, the one
// telemetry hot path no budgeted rig covers.
func TestZeroAllocTelemetry(t *testing.T) {
	g := telemetry.New().Scope("zero").Gauge("g")
	x := 0.0
	if n := testing.AllocsPerRun(1000, func() {
		g.Set(x)
		x++
	}); n != 0 {
		t.Fatalf("gauge set allocates %.1f times, want 0", n)
	}
}
