package main

import (
	"fmt"
	"time"

	"acacia"
	"acacia/internal/ctl"
	"acacia/internal/epc"
	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sdn"
	"acacia/internal/sim"
	"acacia/internal/telemetry"
	"acacia/internal/vision"
)

// Layer probes: small drivers, each a span around a batch of calls into one
// layer's public API. Every probe runs shape.probeBatches batches (5 at full
// size) and reports the median host nanoseconds per call, so a one-layer optimisation has a
// number that moves even when its share of every workload is small.

// probeNames lists every probe metric in reporting order. runProbes emits
// exactly these.
var probeNames = []string{
	"sim.hold_ns_per_event.q1k", "sim.hold_ns_per_event.q64k", "sim.schedule_cancel_ns",
	"netsim.hop_ns", "netsim.queued_hop_ns",
	"sdn.install_ns_per_flow.t1k", "sdn.install_ns_per_flow.t10k", "sdn.remove_ns_per_flow.t10k",
	"sdn.fastpath_ns_per_pkt.t10k", "sdn.fastpath_under_install_ns_per_pkt",
	"pkt.gtpu_encap_decap_ns", "pkt.gtpv2_roundtrip_ns", "pkt.s1ap_roundtrip_ns",
	"pkt.openflow_flowmod_roundtrip_ns", "pkt.tft_match_ns",
	"ctl.txn_ns", "ctl.txn_lossy_ns", "ctl.lossy_retrans_per_txn",
	"epc.attach_detach_ns", "epc.attach_batch_ns_per_ue", "epc.handover_ns",
	"core.mrs_bind_release_ns", "core.ar_frame_ns", "core.testbed_build_ns",
	"vision.match_ns_per_frame",
	"telemetry.counter_inc_ns", "telemetry.observe_ns", "telemetry.snapshot_ns",
	"cluster.windowed_ratio", "cluster.gang2_ratio",
}

// prober runs batches under spans and keeps each probe's result.
type prober struct {
	seed uint64
	sh   shape
	tr   *tracer
	out  map[string]float64
	err  error
}

// failf records a probe whose sanity check failed; the child reports the
// first one as its error.
func (p *prober) failf(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

// n scales a full-size call count down for the smoke shape.
func (p *prober) n(full int) int {
	if n := full / p.sh.probeDiv; n > 1 {
		return n
	}
	return 1
}

// measure runs batch shape.probeBatches times, each under a span covering calls
// calls, and records the median ns per call under name.
func (p *prober) measure(name string, calls int, batch func()) {
	per := make([]float64, 0, p.sh.probeBatches)
	for i := 0; i < p.sh.probeBatches; i++ {
		per = append(per, p.timed(name, calls, batch))
	}
	p.out[name] = median(per)
}

// timed runs one batch under a span and returns its ns per call.
func (p *prober) timed(name string, calls int, batch func()) float64 {
	sp := p.tr.beginN(0, name, calls)
	batch()
	p.tr.end(sp)
	s := p.tr.spans[sp-1]
	return float64(s.EndNs-s.StartNs) / float64(calls)
}

func runProbes(seed uint64, sh shape, tr *tracer) (map[string]float64, error) {
	p := &prober{seed: seed, sh: sh, tr: tr, out: map[string]float64{}}
	p.simProbes()
	p.netsimProbes()
	p.sdnProbes()
	p.pktProbes()
	p.ctlProbes()
	p.epcProbes()
	p.coreProbes()
	p.visionProbe()
	p.telemetryProbes()
	p.clusterProbes()
	return p.out, p.err
}

// xorshift is the probes' own generator: delays and keys must not come from
// an engine RNG whose draw order a simulator change could shift.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// --- sim ---

// hold is the classic hold model: depth pending events, each handler
// re-arming itself at a pseudo-random delay, run for events events. The
// queue depth stays at depth throughout, so the figure is the cost of one
// pop + one push at that depth.
func (p *prober) hold(name string, depth, events int) {
	p.measure(name, events, func() {
		eng := sim.NewEngine(p.seed)
		rng := xorshift(p.seed | 1)
		left := events - depth
		var fn func()
		fn = func() {
			if left > 0 {
				left--
				eng.After(time.Duration(1+rng.next()%1000)*time.Microsecond, fn)
			}
		}
		for i := 0; i < depth; i++ {
			eng.After(time.Duration(1+rng.next()%1000)*time.Microsecond, fn)
		}
		eng.Run()
		if got := eng.Processed(); got != uint64(events) {
			p.failf("%s: processed %d events, want %d", name, got, events)
		}
	})
}

func (p *prober) simProbes() {
	events := p.n(400000)
	p.hold("sim.hold_ns_per_event.q1k", min(1<<10, events), events)
	p.hold("sim.hold_ns_per_event.q64k", min(1<<16, events), events)

	calls := p.n(400000)
	eng := sim.NewEngine(p.seed)
	nop := func() {}
	p.measure("sim.schedule_cancel_ns", calls, func() {
		for i := 0; i < calls; i++ {
			eng.Schedule(time.Millisecond, nop).Cancel()
			if i%1024 == 1023 {
				eng.Run() // drain the cancelled tombstones
			}
		}
		eng.Run()
	})
}

// --- netsim ---

func (p *prober) netsimProbes() {
	// Eight nodes in a chain: host, six routers, host. One packet crosses
	// seven links; the figure is per link crossed.
	const chain = 8
	eng := sim.NewEngine(p.seed)
	nw := netsim.New(eng)
	nodes := make([]*netsim.Node, chain)
	for i := range nodes {
		nodes[i] = nw.AddNode(fmt.Sprintf("n%d", i), pkt.AddrFrom(10, 0, 0, byte(1+i)))
	}
	src, dstAddr := netsim.NewHost(nodes[0]), nodes[chain-1].Addr()
	netsim.NewSink(netsim.NewHost(nodes[chain-1]), 9000)
	for i := 0; i+1 < chain; i++ {
		nw.ConnectSymmetric(nodes[i], nodes[i+1], netsim.LinkConfig{BitsPerSecond: 1e9, Propagation: 100 * time.Microsecond})
	}
	for i := 1; i+1 < chain; i++ {
		// Port 0 faces the source, port 1 the sink.
		netsim.NewRouter(nodes[i]).AddDefaultRoute(nodes[i].Port(1))
	}
	pkts := p.n(60000)
	send := func(h *netsim.Host, to pkt.Addr, n int) {
		for i := 0; i < n; i++ {
			h.Send(to, 30000, 9000, pkt.ProtoUDP, 1200, nil)
			if i%64 == 63 {
				eng.Run()
			}
		}
		eng.Run()
	}
	send(src, dstAddr, 64) // warm the packet and event pools
	p.measure("netsim.hop_ns", pkts*(chain-1), func() { send(src, dstAddr, pkts) })

	// One rate-limited link fed in bursts, so every packet but the first
	// of a burst waits in a non-empty transmit queue.
	qeng := sim.NewEngine(p.seed)
	qnw := netsim.New(qeng)
	a := qnw.AddNode("a", pkt.AddrFrom(10, 0, 1, 1))
	b := qnw.AddNode("b", pkt.AddrFrom(10, 0, 1, 2))
	qsrc := netsim.NewHost(a)
	netsim.NewSink(netsim.NewHost(b), 9000)
	qnw.ConnectSymmetric(a, b, netsim.LinkConfig{BitsPerSecond: 10e6, Propagation: time.Millisecond})
	qpkts := p.n(500000)
	burst := func(n int) {
		for i := 0; i < n; i++ {
			qsrc.Send(b.Addr(), 30000, 9000, pkt.ProtoUDP, 1200, nil)
			if i%128 == 127 { // 128 x 1200 B sits inside the 256 KiB queue
				qeng.Run()
			}
		}
		qeng.Run()
	}
	burst(128)
	p.measure("netsim.queued_hop_ns", qpkts, func() { burst(qpkts) })
}

// --- sdn ---

// teidFlow is a TEID-exact entry that drops: the probes care about table
// and cache work, not about where the packet goes next.
func teidFlow(teid uint64, cookie uint64) sdn.FlowEntry {
	return sdn.FlowEntry{
		Priority: 100, Cookie: cookie,
		Match:   pkt.Match{TunnelID: pkt.U64(teid)},
		Actions: []pkt.Action{{Type: pkt.ActionDrop}},
	}
}

func (p *prober) sdnProbes() {
	// A real testbed, so FlowMods are encoded, cross the control link as
	// transactions and are applied by the switch's control endpoint.
	tb := acacia.NewTestbed(acacia.TestbedConfig{Seed: p.seed, IdleTimeout: time.Hour, DiscoveryPeriod: time.Hour})
	tb.Run(time.Second)
	sw := tb.EdgeSGW
	base := sw.FlowCount()
	const teid0, sharedCookie = 0x100000, 0x5eed

	// install sends n FlowMods in chunks the 256 KiB control-link queue
	// holds, letting each chunk land before the next.
	install := func(n int, cookie func(i int) uint64) {
		for i := 0; i < n; i++ {
			tb.Ctl.InstallFlow(sw, teidFlow(uint64(teid0+i), cookie(i)))
			if i%500 == 499 {
				tb.Run(10 * time.Millisecond)
			}
		}
		tb.Run(10 * time.Millisecond)
		if got := sw.FlowCount(); got != base+n {
			p.failf("sdn probe: %d flows installed, want %d", got-base, n)
		}
	}
	shared := func(int) uint64 { return sharedCookie }
	own := func(i int) uint64 { return uint64(teid0 + i) }
	clear := func() {
		tb.Ctl.RemoveFlows(sw, sharedCookie)
		tb.Run(10 * time.Millisecond)
	}

	small, large := p.n(1000), p.n(10000)
	// Small tables: several fill-and-clear cycles per batch.
	cycles := 20
	p.measure("sdn.install_ns_per_flow.t1k", cycles*small, func() {
		for c := 0; c < cycles; c++ {
			install(small, shared)
			clear()
		}
	})
	// Large table: fill it once per batch, then empty it one cookie at a
	// time; install and remove are timed as separate spans.
	var ins, rem []float64
	for i := 0; i < p.sh.probeBatches; i++ {
		ins = append(ins, p.timed("sdn.install_ns_per_flow.t10k", large, func() { install(large, own) }))
		rem = append(rem, p.timed("sdn.remove_ns_per_flow.t10k", large, func() {
			for i := 0; i < large; i++ {
				tb.Ctl.RemoveFlows(sw, own(i))
				if i%500 == 499 {
					tb.Run(10 * time.Millisecond)
				}
			}
			tb.Run(10 * time.Millisecond)
		}))
		if got := sw.FlowCount(); got != base {
			p.failf("sdn probe: %d flows left after remove", got-base)
		}
	}
	p.out["sdn.install_ns_per_flow.t10k"] = median(ins)
	p.out["sdn.remove_ns_per_flow.t10k"] = median(rem)

	// Fast path: tunnelled packets for the first warm TEIDs of a full
	// table, injected at the switch; every pass after the first hits the
	// megaflow cache.
	install(large, shared)
	warm := min(1000, large)
	node := sw.Node()
	pass := func(withInstalls bool) {
		for i := 0; i < warm; i++ {
			pk := node.NewPacket()
			pk.Flow = pkt.FiveTuple{
				Src: pkt.AddrFrom(172, 16, 0, 2), Dst: pkt.AddrFrom(10, 3, 0, 10),
				SrcPort: 40000, DstPort: 7000, Proto: pkt.ProtoUDP,
			}
			pk.Size = 1200
			pk.Encapsulate(pkt.AddrFrom(10, 1, 0, 1), node.Addr(), uint32(teid0+i))
			node.Inject(pk)
			if withInstalls && i%100 == 99 {
				// Re-install an existing entry: the table stays the
				// same size but the cache is flushed, as on any write.
				tb.Ctl.InstallFlow(sw, teidFlow(uint64(teid0+i), sharedCookie))
			}
		}
		tb.Run(10 * time.Millisecond)
	}
	pass(false)
	passes := p.n(400)
	before := sw.Stats()
	p.measure("sdn.fastpath_ns_per_pkt.t10k", passes*warm, func() {
		for i := 0; i < passes; i++ {
			pass(false)
		}
	})
	after := sw.Stats()
	if hits, want := after.FastPathHits-before.FastPathHits, uint64(p.sh.probeBatches*passes*warm); hits != want {
		p.failf("sdn probe: %d fast-path hits, want %d", hits, want)
	}
	mixed := p.n(60)
	p.measure("sdn.fastpath_under_install_ns_per_pkt", mixed*warm, func() {
		for i := 0; i < mixed; i++ {
			pass(true)
		}
	})
}

// --- pkt ---

func (p *prober) pktProbes() {
	calls := p.n(200000)
	src, dst := pkt.AddrFrom(10, 0, 0, 1), pkt.AddrFrom(10, 0, 0, 2)
	ci := pkt.AddrFrom(10, 3, 0, 10)
	buf := make([]byte, 0, 4096)
	fail := func(what string, err error) {
		if err != nil {
			p.failf("pkt probe: %s: %v", what, err)
		}
	}

	inner := make([]byte, 1400)
	gtpuCalls := calls * 5
	p.measure("pkt.gtpu_encap_decap_ns", gtpuCalls, func() {
		for i := 0; i < gtpuCalls; i++ {
			buf = pkt.AppendGPDU(buf[:0], src, dst, 0xbeef, len(inner))
			buf = append(buf, inner...)
			_, _, err := pkt.DecapsulateGPDU(buf)
			fail("gtpu", err)
		}
	})

	tft := pkt.DedicatedBearerTFT(ci)
	qos := &pkt.BearerQoS{QCI: 5, ARP: 2}
	gtp := &pkt.GTPv2Msg{
		Type: pkt.GTPv2CreateBearerRequest, Seq: 7,
		Bearers: []pkt.BearerContext{{
			EBI: 6, TFT: &tft, QoS: qos,
			FTEIDs: []pkt.FTEID{{IfaceType: pkt.FTEIDIfaceS1USGW, TEID: 1, Addr: pkt.AddrFrom(10, 3, 0, 1)}},
		}},
	}
	p.measure("pkt.gtpv2_roundtrip_ns", calls, func() {
		for i := 0; i < calls; i++ {
			buf = gtp.Encode(buf[:0])
			var out pkt.GTPv2Msg
			_, err := out.Decode(buf)
			fail("gtpv2", err)
		}
	})

	s1 := &pkt.S1APMsg{
		Procedure: pkt.S1APInitialContextSetupRequest, TSN: 9, ENBUEID: 0x1000001, MMEUEID: 1,
		NAS: make([]byte, 48),
		ERABs: []pkt.ERABItem{{
			ERABID: 5, QoS: qos,
			Transport: pkt.FTEID{IfaceType: pkt.FTEIDIfaceS1USGW, TEID: 1, Addr: pkt.AddrFrom(10, 3, 0, 1)},
		}},
	}
	s1Calls := max(1, calls/5) // the SCTP checksum makes this the slow codec
	p.measure("pkt.s1ap_roundtrip_ns", s1Calls, func() {
		for i := 0; i < s1Calls; i++ {
			buf = s1.Encode(buf[:0])
			var out pkt.S1APMsg
			_, err := out.Decode(buf)
			fail("s1ap", err)
		}
	})

	of := &pkt.OFMsg{
		Type: pkt.OFFlowMod, Command: pkt.FlowModAdd, Priority: 100, Cookie: 1,
		Match: pkt.Match{TunnelID: pkt.U64(101), IPv4Dst: pkt.AddrPtr(pkt.AddrFrom(172, 16, 0, 2))},
		Actions: []pkt.Action{
			{Type: pkt.ActionSetTunnel, TunnelID: 201, TunnelDst: pkt.AddrFrom(10, 3, 0, 2)},
			{Type: pkt.ActionOutput, Port: 1},
		},
	}
	p.measure("pkt.openflow_flowmod_roundtrip_ns", calls, func() {
		for i := 0; i < calls; i++ {
			buf = of.Encode(buf[:0])
			var out pkt.OFMsg
			_, err := out.Decode(buf)
			fail("openflow", err)
		}
	})

	flows := make([]pkt.FiveTuple, 16)
	for i := range flows {
		flows[i] = pkt.FiveTuple{
			Src: pkt.AddrFrom(172, 16, 0, 2), Dst: pkt.AddrFrom(10, 3, 0, byte(i)),
			SrcPort: uint16(40000 + i), DstPort: 7000, Proto: pkt.ProtoTCP,
		}
	}
	matches := 0
	tftCalls := calls * 8
	p.measure("pkt.tft_match_ns", tftCalls, func() {
		for i := 0; i < tftCalls; i++ {
			if tft.MatchUplink(flows[i%len(flows)], 0) {
				matches++
			}
		}
	})
	if matches == 0 {
		p.failf("pkt probe: TFT never matched")
	}
}

// --- ctl ---

func (p *prober) ctlProbes() {
	calls := p.n(100000)
	run := func(name string, loss float64) (retransPerTxn float64) {
		eng := sim.NewEngine(p.seed)
		nw := netsim.New(eng)
		tr := ctl.NewTransport(eng)
		a := tr.Endpoint(nw.AddNode("a", pkt.AddrFrom(10, 0, 0, 1)), true)
		b := tr.Endpoint(nw.AddNode("b", pkt.AddrFrom(10, 0, 0, 2)), true)
		ctl.Connect(a, b, netsim.LinkConfig{BitsPerSecond: 1e9, Propagation: time.Millisecond, LossProb: loss})
		// A transaction ends exactly once: acked, or (on the lossy link)
		// out of retries.
		done := 0
		delivered := func() {}
		acked := func(ctl.TxInfo) { done++ }
		failed := func(error) { done++ }
		p.measure(name, calls, func() {
			for i := 0; i < calls; i++ {
				a.Send(b.Addr(), a.NextSeq(b.Addr()), "Probe", 120, delivered, failed, acked)
				if i%64 == 63 {
					eng.Run()
				}
			}
			eng.Run()
		})
		if done != p.sh.probeBatches*calls {
			p.failf("%s: %d of %d transactions finished", name, done, p.sh.probeBatches*calls)
		}
		return float64(tr.Retransmissions()) / float64(done)
	}
	run("ctl.txn_ns", 0)
	p.out["ctl.lossy_retrans_per_txn"] = run("ctl.txn_lossy_ns", 0.10)
}

// --- epc ---

func (p *prober) epcProbes() {
	fail := func(what string, err error) {
		if err != nil {
			p.failf("epc probe: %s: %v", what, err)
		}
	}
	tb := acacia.NewTestbed(acacia.TestbedConfig{Seed: p.seed, IdleTimeout: time.Hour, DiscoveryPeriod: time.Hour})
	east := tb.AddNeighborENB("enb-east")
	tb.Run(time.Second)
	ue := tb.UEs[0]
	detached := false
	onDetach := func() { detached = true }
	cycle := func() {
		fail("attach", tb.Attach(ue))
		detached = false
		fail("detach", ue.UE.Detach(onDetach))
		tb.Run(time.Second)
		if !detached {
			p.failf("epc probe: detach did not complete")
		}
	}
	cycle()
	calls := p.n(2000)
	p.measure("epc.attach_detach_ns", calls, func() {
		for i := 0; i < calls; i++ {
			cycle()
		}
	})

	fail("attach", tb.Attach(ue))
	hops := p.n(2000)
	p.measure("epc.handover_ns", 2*hops, func() {
		for i := 0; i < hops; i++ {
			fail("handover", tb.Handover(ue, east))
			fail("handover", tb.Handover(ue, tb.ENB))
		}
	})

	const cohort = 64
	btb := acacia.NewTestbed(acacia.TestbedConfig{Seed: p.seed, NumUEs: cohort, IdleTimeout: time.Hour, DiscoveryPeriod: time.Hour})
	btb.Run(time.Second)
	ues := make([]*epc.UE, cohort)
	for i, b := range btb.UEs {
		ues[i] = b.UE
	}
	finished := 0
	onUE := func(_ *epc.UE, err error) {
		fail("batch", err)
		finished++
	}
	batchCycle := func() {
		finished = 0
		btb.EPC.AttachBatch(ues, "core-sgw", "core-pgw", onUE)
		btb.Run(2 * time.Second)
		btb.EPC.DetachBatch(ues, onUE)
		btb.Run(2 * time.Second)
		if finished != 2*cohort {
			p.failf("epc probe: %d of %d batch outcomes", finished, 2*cohort)
		}
	}
	batchCycle()
	cycles := p.n(60)
	p.measure("epc.attach_batch_ns_per_ue", cycles*cohort, func() {
		for i := 0; i < cycles; i++ {
			batchCycle()
		}
	})
}

// --- core ---

func (p *prober) coreProbes() {
	builds := p.n(2)
	p.measure("core.testbed_build_ns", builds, func() {
		for i := 0; i < builds; i++ {
			acacia.NewTestbed(acacia.TestbedConfig{Seed: p.seed + uint64(i)})
		}
	})

	tb := acacia.NewTestbed(acacia.TestbedConfig{Seed: p.seed, IdleTimeout: time.Hour, DiscoveryPeriod: time.Hour})
	tb.Run(time.Second)
	ue := tb.UEs[0]
	if err := tb.Attach(ue); err != nil {
		p.failf("core probe: attach: %v", err)
	}
	ok := 0
	onBind := func(_ pkt.Addr, err error) {
		if err == nil {
			ok++
		}
	}
	onRelease := func(err error) {
		if err == nil {
			ok++
		}
	}
	cycle := func() {
		tb.MRS.RequestConnectivity(acacia.RetailServiceName, ue.UE.Addr(), tb.ENB.Name(), onBind)
		tb.Run(time.Second)
		tb.MRS.ReleaseConnectivity(ue.UE.Addr(), onRelease)
		tb.Run(time.Second)
	}
	cycle()
	calls := p.n(2000)
	ok = 0
	p.measure("core.mrs_bind_release_ns", calls, func() {
		for i := 0; i < calls; i++ {
			cycle()
		}
	})
	if ok != 2*p.sh.probeBatches*calls {
		p.failf("core probe: %d of %d bind/release callbacks succeeded", ok, 2*p.sh.probeBatches*calls)
	}

	// A four-customer retail session: discovery, dedicated bearers, then
	// the closed AR frame loop against the edge back-end.
	atb := acacia.NewTestbed(acacia.TestbedConfig{Seed: p.seed, NumUEs: 4})
	for _, b := range atb.UEs {
		if err := atb.Attach(b); err != nil {
			p.failf("core probe: attach: %v", err)
		}
		if err := atb.StartRetailApp(b, "electronics"); err != nil {
			p.failf("core probe: retail app: %v", err)
		}
	}
	atb.Run(8 * time.Second)
	frames := func() (n uint64) {
		for _, b := range atb.UEs {
			n += b.Frontend.Responses
		}
		return n
	}
	window := time.Duration(p.n(400)) * time.Second
	per := make([]float64, 0, p.sh.probeBatches)
	for i := 0; i < p.sh.probeBatches; i++ {
		before := frames()
		d := p.timed("core.ar_frame_ns", 1, func() { atb.Run(window) })
		got := frames() - before
		if got == 0 {
			p.failf("core probe: AR session produced no frames")
		}
		p.tr.setCalls(len(p.tr.spans), int(got))
		per = append(per, d/float64(got))
	}
	p.out["core.ar_frame_ns"] = median(per)
}

// --- vision ---

func (p *prober) visionProbe() {
	obj := vision.GenerateObjectFeatures(p.seed, 200)
	frame := vision.GenerateFrame(obj, vision.DefaultFrameParams(128), sim.NewRNG(p.seed+1))
	m := vision.NewMatcher(vision.MatcherConfig{}, sim.NewRNG(p.seed+2))
	calls := p.n(40)
	p.measure("vision.match_ns_per_frame", calls, func() {
		for i := 0; i < calls; i++ {
			if !m.Match(frame, obj).Matched {
				p.failf("vision probe: match failed")
			}
		}
	})
}

// --- telemetry ---

func (p *prober) telemetryProbes() {
	reg := telemetry.New()
	s := reg.Scope("bench")
	c, h := s.Counter("inc"), s.Histogram("observe")
	calls := p.n(40000000)
	p.measure("telemetry.counter_inc_ns", calls, func() {
		for i := 0; i < calls; i++ {
			c.Inc()
		}
	})
	p.measure("telemetry.observe_ns", calls, func() {
		for i := 0; i < calls; i++ {
			h.Observe(float64(i))
		}
	})
	// A registry the size a testbed run ends with.
	for i := 0; i < 200; i++ {
		link := s.Scope(fmt.Sprintf("link-%d", i))
		link.Counter("sent").Inc()
		link.Gauge("queue-bytes").Set(1)
		link.Histogram("latency-ms").Observe(1)
	}
	snaps := p.n(1000)
	p.measure("telemetry.snapshot_ns", snaps, func() {
		for i := 0; i < snaps; i++ {
			if len(reg.Snapshot().Metrics) != 602 {
				p.failf("telemetry probe: snapshot size changed")
			}
		}
	})
}

// --- cluster ---

// clusterProbes runs the metro-frames shape (shorter Hold) back to back
// under the three execution modes and reports the two wall-time ratios
// ROADMAP item 2's decision gate reads. Rounds interleave the modes so host
// drift hits all three alike.
func (p *prober) clusterProbes() {
	cfg := p.sh.frames
	cfg.Hold = p.sh.clusterHold
	workers := []int{0, 1, 2}
	wall := make([][]float64, len(workers))
	var want string
	for round := 0; round < min(3, p.sh.probeBatches); round++ {
		for i, w := range workers {
			cfg.Workers = w
			var res *acacia.ExperimentResult
			wall[i] = append(wall[i], p.timed(fmt.Sprintf("cluster.workers%d", w), 1, func() {
				res = acacia.RunScaleScenario(p.seed, cfg)
			}))
			if fp := fingerprint(res.String()); want == "" {
				want = fp
			} else if fp != want {
				p.failf("cluster probe: workers=%d output differs from sequential", w)
			}
		}
	}
	p.out["cluster.windowed_ratio"] = median(wall[1]) / median(wall[0])
	p.out["cluster.gang2_ratio"] = median(wall[2]) / median(wall[0])
}
