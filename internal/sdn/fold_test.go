package sdn

import (
	"testing"
	"time"

	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sim"
)

// perPacketCPU is the switch CPU before runs were folded, kept as the
// reference model: one queue entry per waiting packet, each served as it
// arrived. It drives the switch's own classifyCost and process, so only
// the queue differs from Switch.Handle's.
type perPacketCPU struct {
	sw    *Switch
	queue netsim.FIFO[pendingPacket]
	cur   pendingPacket
	busy  bool
}

func (m *perPacketCPU) Handle(ingress *netsim.Port, p *netsim.Packet) {
	m.queue.Push(pendingPacket{ingress, p})
	if !m.busy {
		m.serveNext()
	}
}

func (m *perPacketCPU) serveNext() {
	if m.queue.Len() == 0 {
		m.busy = false
		return
	}
	m.busy = true
	m.cur = m.queue.Pop()
	m.sw.eng.Schedule(m.sw.classifyCost(m.cur), m.done)
}

func (m *perPacketCPU) done() {
	item := m.cur
	m.cur = pendingPacket{}
	m.sw.process(item.ingress, item.p)
	m.serveNext()
}

// arrival is one step of a CPU-queue mix: after gap, a packet reaches the
// switch on ingress port in, or (write) a flow entry is installed.
type arrival struct {
	gap      time.Duration
	write    bool
	in       int
	teid     uint32 // 0: untunnelled
	size     int
	payload  bool
	unpooled bool
}

// Addresses of the fold rig: untunnelled packets are routed by
// destination, tunnelled ones (toward the switch) only by ingress and TEID.
var (
	foldSwitch = pkt.AddrFrom(10, 0, 0, 9)
	foldPlain  = pkt.AddrFrom(10, 0, 9, 1)
	foldTunnel = pkt.AddrFrom(10, 0, 9, 2)
)

// foldWrites are the entries the mix's writes install, in turn: TEID 103,
// a table miss until then, starts to hit from port 0, then from port 1;
// the third write matches nothing the mix sends and only flushes.
var foldWrites = []FlowEntry{
	{Priority: 100, Match: pkt.Match{InPort: pkt.U32(0), TunnelID: pkt.U64(103)},
		Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 3}}},
	{Priority: 100, Match: pkt.Match{InPort: pkt.U32(1), TunnelID: pkt.U64(103)},
		Actions: []pkt.Action{{Type: pkt.ActionSetTunnel, TunnelID: 203, TunnelDst: foldTunnel}, {Type: pkt.ActionOutput, Port: 2}}},
	{Priority: 100, Match: pkt.Match{TunnelID: pkt.U64(999)}, Actions: []pkt.Action{{Type: pkt.ActionDrop}}},
}

// delivery is what the fold rig's sink sees of one packet.
type delivery struct {
	at        sim.Time
	ingress   int
	flow      pkt.FiveTuple
	size      int
	teid      uint32
	queueWait time.Duration
}

// foldTrace is one run of a mix: the sink's deliveries, the switch
// counters, and at every arrival the pooled packets out and the packets
// folded away (waiting run members beyond each run's template).
type foldTrace struct {
	deliveries []delivery
	stats      SwitchStats
	out        []int
	folded     []int
	maxFolded  int
	writesMid  int // writes that landed while a run was waiting
}

// runFoldMix offers mix to an ACACIA-cost switch whose CPU is the switch's
// own (folded) or the per-packet model. Ports 0 and 1 are ingress, port 2
// (GTP) and port 3 lead to the sink; every packet carries a distinct
// QueueWait, so the sink sees which member of a run it got.
func runFoldMix(t testing.TB, mix []arrival, folded bool) foldTrace {
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	swN := nw.AddNode("sw", foldSwitch)
	sink := nw.AddNode("sink", pkt.AddrFrom(10, 0, 0, 8))
	for i := 0; i < 2; i++ {
		nw.ConnectSymmetric(nw.AddNode(string(rune('a'+i)), pkt.AddrFrom(10, 0, 1, byte(i))), swN, netsim.LinkConfig{BitsPerSecond: 1e9})
	}
	fast := netsim.LinkConfig{BitsPerSecond: 1e10, Propagation: time.Microsecond}
	nw.ConnectSymmetric(swN, sink, fast) // sw port 2, sink port 0
	nw.ConnectSymmetric(swN, sink, fast) // sw port 3, sink port 1
	sw := NewSwitch(9, swN, ACACIAGWCosts)
	sw.MarkGTPPort(0)
	sw.MarkGTPPort(1)
	sw.MarkGTPPort(2)
	NewController(eng).AddSwitch(sw) // no OnPacketIn: a miss is dropped
	for _, e := range []FlowEntry{
		{Priority: 10, Match: pkt.Match{IPv4Dst: pkt.AddrPtr(foldPlain)}, Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 3}}},
		{Priority: 100, Match: pkt.Match{InPort: pkt.U32(0), TunnelID: pkt.U64(101)},
			Actions: []pkt.Action{{Type: pkt.ActionSetTunnel, TunnelID: 201, TunnelDst: foldTunnel}, {Type: pkt.ActionOutput, Port: 2}}},
		{Priority: 100, Match: pkt.Match{InPort: pkt.U32(1), TunnelID: pkt.U64(101)}, Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 3}}},
		{Priority: 100, Match: pkt.Match{InPort: pkt.U32(0), TunnelID: pkt.U64(102)}, Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 3}}},
		{Priority: 100, Match: pkt.Match{InPort: pkt.U32(1), TunnelID: pkt.U64(102)},
			Actions: []pkt.Action{{Type: pkt.ActionSetTunnel, TunnelID: 202, TunnelDst: foldTunnel}, {Type: pkt.ActionOutput, Port: 2}}},
	} {
		sw.installEntry(e)
	}
	var h netsim.Handler = sw
	if !folded {
		h = &perPacketCPU{sw: sw}
	}
	swN.SetHandler(h)

	var tr foldTrace
	sink.SetHandler(handlerFunc(func(in *netsim.Port, p *netsim.Packet) {
		tr.deliveries = append(tr.deliveries, delivery{eng.Now(), in.ID, p.Flow, p.Size, p.TEID, p.QueueWait})
		nw.Release(p)
	}))
	// waitingFolded counts the run members the folded queue holds as a
	// wait alone: all but each run's template.
	waitingFolded := func() int {
		n := max(sw.cpuRun.n-1, 0)
		for i := 0; i < sw.cpuRuns.Len(); i++ {
			n += sw.cpuRuns.At(i).n - 1
		}
		return n
	}
	var at time.Duration
	writes := 0
	for i, a := range mix {
		at += a.gap
		eng.Schedule(at, func() {
			if a.write {
				if sw.cpuRun.n != 0 || sw.cpuRuns.Len() != 0 {
					tr.writesMid++
				}
				sw.installEntry(foldWrites[writes%len(foldWrites)])
				writes++
				return
			}
			p := &netsim.Packet{}
			if !a.unpooled {
				p = nw.NewPacket()
			}
			dst := foldPlain
			if a.teid != 0 {
				dst = foldTunnel
			}
			p.Flow = pkt.FiveTuple{Src: pkt.AddrFrom(10, 0, 1, 1), Dst: dst, SrcPort: 1000, DstPort: 2000, Proto: pkt.ProtoUDP}
			p.Size, p.QueueWait = a.size, time.Duration(i+1)
			if a.payload {
				p.Payload = i
			}
			if a.teid != 0 {
				p.Encapsulate(p.Flow.Src, foldSwitch, a.teid)
			}
			h.Handle(swN.Port(a.in), p)
			tr.out = append(tr.out, nw.PacketsOut())
			f := 0
			if folded {
				f = waitingFolded()
			}
			tr.folded = append(tr.folded, f)
			tr.maxFolded = max(tr.maxFolded, f)
		})
	}
	eng.Run()
	tr.stats = sw.Stats()
	if n := nw.PacketsOut(); n != 0 {
		t.Fatalf("%d pooled packets out after the drain, want 0", n)
	}
	return tr
}

// checkFoldMix runs mix through the folded queue and the per-packet model
// and requires the same deliveries (time, ingress, flow, size, TEID and
// QueueWait, in order), the same six counters, and at every arrival as
// many pooled packets out as the model less the members folded away.
func checkFoldMix(t testing.TB, mix []arrival) foldTrace {
	got, want := runFoldMix(t, mix, true), runFoldMix(t, mix, false)
	if len(got.deliveries) != len(want.deliveries) {
		t.Fatalf("folded queue delivered %d packets, the per-packet model %d", len(got.deliveries), len(want.deliveries))
	}
	for i, w := range want.deliveries {
		if g := got.deliveries[i]; g != w {
			t.Fatalf("delivery %d is %+v folded, %+v per packet", i, g, w)
		}
	}
	if got.stats != want.stats {
		t.Fatalf("counters read %+v folded, %+v per packet", got.stats, want.stats)
	}
	for i, w := range want.out {
		if g := got.out[i]; g != w-got.folded[i] {
			t.Fatalf("arrival %d: %d pooled packets out folded, want the model's %d less %d folded members", i, g, w, got.folded[i])
		}
	}
	return got
}

// TestFoldedBacklogMatchesPerPacketModel offers seeded mixes of bursts:
// runs from both ingress ports, neighbours that differ only in Size or
// TEID, payload-carrying and unpooled packets (which never fold), table
// misses, and table writes landing while a run waits (each flushes the
// megaflow cache; the first two turn TEID 103's misses into hits).
func TestFoldedBacklogMatchesPerPacketModel(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRNG(seed)
		var mix []arrival
		for burst := 0; burst < 400; burst++ {
			if burst%60 == 59 {
				mix = append(mix, arrival{gap: time.Duration(rng.Intn(20)) * time.Microsecond, write: true})
			}
			a := arrival{
				gap:  time.Duration(rng.Intn(120)) * time.Microsecond,
				in:   rng.Intn(2),
				teid: []uint32{0, 101, 102, 103}[rng.Intn(4)],
				size: 500 + rng.Intn(2),
			}
			switch rng.Intn(8) {
			case 0:
				a.payload = true
			case 1:
				a.unpooled = true
			}
			for k := 1 + rng.Intn(30); k > 0; k-- {
				mix = append(mix, a)
				a.gap = time.Duration(rng.Intn(3)) * 500 * time.Nanosecond
			}
		}
		tr := checkFoldMix(t, mix)
		if tr.maxFolded < 20 || tr.writesMid == 0 || tr.stats.TableMisses == 0 {
			t.Fatalf("seed %d: up to %d members folded, %d writes during a run, %d misses; the mix must exercise all three",
				seed, tr.maxFolded, tr.writesMid, tr.stats.TableMisses)
		}
	}
}

// FuzzSwitchCPUQueue reads each input byte as a burst and checks it
// against the per-packet model as TestFoldedBacklogMatchesPerPacketModel
// does. The low five bits are the packet: bit 0 the ingress, bits 1–2 the
// TEID (none, 101, 102, 103), bit 3 the size; with bit 4 set it is a
// payload carrier, or with bits 3 and 4 an unpooled packet, and 0x1f is a
// table write instead. The high three bits give 1–8 copies, the first
// (b>>5)×7 µs after the last burst and the rest 1 µs apart.
func FuzzSwitchCPUQueue(f *testing.F) {
	f.Add([]byte{0xe2, 0xe2, 0xe3, 0x1f, 0xe2, 0x04})
	f.Add([]byte{0xe6, 0xe6, 0xe7, 0x1f, 0xf0, 0x06, 0xe6, 0x1f, 0xe6})
	f.Add([]byte{0xea, 0xe8, 0xe2, 0xfa, 0xe2, 0x3f, 0xe0, 0xe1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var mix []arrival
		for _, b := range ops {
			gap := time.Duration(b>>5) * 7 * time.Microsecond
			if b&0x1f == 0x1f {
				mix = append(mix, arrival{gap: gap, write: true})
				continue
			}
			a := arrival{gap: gap, in: int(b & 1), teid: []uint32{0, 101, 102, 103}[b>>1&3], size: 500 + int(b>>3&1)}
			if b&0x10 != 0 {
				a.payload, a.unpooled = b&0x08 == 0, b&0x08 != 0
			}
			for k := int(b>>5) + 1; k > 0; k-- {
				mix = append(mix, a)
				a.gap = time.Microsecond
			}
		}
		checkFoldMix(t, mix)
	})
}

// TestHomogeneousOverloadStaysCompact is the Fig. 8 OpenEPC regime with
// identical segments: 100,000 tunnelled segments offered at one a
// microsecond to a 35 µs slow path. They wait as one run, so the queue
// holds at most 8 bytes per waiting segment plus two of the wait FIFO's
// largest blocks, one pooled packet stands for the backlog, and the
// segments still leave in arrival order.
func TestHomogeneousOverloadStaysCompact(t *testing.T) {
	const (
		offered  = 100_000
		maxBlock = 1024 * 8 // netsim's largest FIFO block of 8-byte waits
	)
	g := buildGWTopo(t, OpenEPCGWCosts)
	sw := g.sgwU
	next := time.Duration(1)
	g.dst.Listen(2000, netsim.AppFunc(func(h *netsim.Host, p *netsim.Packet) {
		if p.QueueWait != next {
			t.Fatalf("delivered segment %d, want %d (FIFO broken)", p.QueueWait, next)
		}
		next++
		h.Node.Network().Release(p)
	}))
	sent := 0
	tk := sim.NewTicker(g.eng, time.Microsecond, func() {
		p := g.nw.NewPacket()
		p.Flow = pkt.FiveTuple{Src: g.src.Node.Addr(), Dst: g.dst.Node.Addr(), SrcPort: 1000, DstPort: 2000, Proto: pkt.ProtoUDP}
		p.Size = 1400
		p.Encapsulate(g.src.Node.Addr(), sw.Node().Addr(), 101)
		sent++
		p.QueueWait = time.Duration(sent)
		sw.Handle(sw.Node().Port(0), p)
	})
	g.eng.RunFor(offered * time.Microsecond)
	tk.Stop()
	// Each run grows while the one before it is served: one is staged,
	// one waits in the queue.
	waiting := sw.cpuWaits.Len()
	if runs := sw.cpuRuns.Len() + min(sw.cpuRun.n, 1); waiting < offered*9/10 || runs > 2 {
		t.Fatalf("%d segments waiting in %d runs, want at least %d in at most two", waiting, runs, offered*9/10)
	}
	held := 16*sw.cpuQueue.Cap() + 16*sw.cpuRuns.Cap() + 8*sw.cpuWaits.Cap()
	if bound := 8*waiting + 2*maxBlock; held > bound {
		t.Errorf("queue holds %d bytes for %d waiting segments, want at most %d", held, waiting, bound)
	}
	// Beside the templates: one segment in service at each gateway, and
	// about three on each 100 µs link behind the SGW-U.
	if out := g.nw.PacketsOut(); out > 16 {
		t.Errorf("%d pooled packets out for %d waiting segments, want the templates and those in flight", out, waiting)
	}
	g.eng.Run()
	if int(next-1) != sent || sw.cpuWaits.Len() != 0 || g.nw.PacketsOut() != 0 {
		t.Errorf("after drain: delivered %d of %d, %d waits left, %d packets out", next-1, sent, sw.cpuWaits.Len(), g.nw.PacketsOut())
	}
}
