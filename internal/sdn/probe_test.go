package sdn

import (
	"testing"
	"time"
	"unsafe"

	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sim"
)

// chargedCost runs eng until sw's CPU takes a packet into service, calls
// during (if non-nil) at that instant, and then runs on until the service period ends. It
// returns the CPU time the packet was charged: service start to cpuDone.
func chargedCost(t *testing.T, eng *sim.Engine, sw *Switch, during func()) time.Duration {
	t.Helper()
	cpuDone := sw.cpuDoneF
	defer func() { sw.node.SetHandler(sw.receive); sw.cpuDoneF = cpuDone }()
	sw.node.SetHandler(func(in *netsim.Port, p *netsim.Packet) {
		if sw.receive(in, p); sw.busy {
			eng.Stop()
		}
	})
	var done sim.Time
	sw.cpuDoneF = func() { done = eng.Now(); eng.Stop(); cpuDone() }
	eng.Run()
	if !sw.busy {
		t.Fatal("engine drained before the switch served a packet")
	}
	start := eng.Now()
	if during != nil {
		during()
	}
	eng.Run()
	return done.Sub(start)
}

// TestSingleProbeMatchesTwoProbes pins the one-probe-per-packet rule to the
// behaviour of the two probes it replaced (classifyCost at service start,
// process at cpuDone). A packet is *charged* by what the cache held when its
// service began and *forwarded* by what it holds when service ends, so a
// table write landing inside the service period separates the two: a staged
// hit is charged FastPath yet takes the slow path, and a staged miss stays a
// miss. Counters and occupancy must read exactly as with two probes.
func TestSingleProbeMatchesTwoProbes(t *testing.T) {
	g := buildGWTopo(t, ACACIAGWCosts)
	sw := g.sgwU
	occupancy := func() float64 {
		m, ok := g.eng.Metrics().Snapshot().Get("sdn/sgw-u/megaflow/occupancy")
		if !ok {
			t.Fatal("no occupancy gauge")
		}
		return m.Value
	}
	write := func() {
		sw.installEntry(FlowEntry{Priority: 100, Cookie: 9, Match: pkt.Match{TunnelID: pkt.U64(999)},
			Actions: []pkt.Action{{Type: pkt.ActionDrop}}})
	}
	check := func(step string, fast, slow uint64, occ float64) {
		t.Helper()
		g.eng.RunFor(time.Millisecond)
		s := sw.Stats()
		if s.FastPathHits != fast || s.SlowPathHits != slow || occupancy() != occ || s.TableMisses != 0 {
			t.Fatalf("%s: fast=%d slow=%d occupancy=%v misses=%d, want fast=%d slow=%d occupancy=%v misses=0",
				step, s.FastPathHits, s.SlowPathHits, occupancy(), s.TableMisses, fast, slow, occ)
		}
	}
	// serve sends one packet, runs during (if any) mid-service, and reports
	// the CPU time the packet was charged.
	serve := func(during func()) time.Duration {
		g.sendTunneled(1000)
		return chargedCost(t, g.eng, sw, during)
	}

	if cost := serve(nil); cost != ACACIAGWCosts.SlowPath {
		t.Fatalf("first packet charged %v, want the slow path", cost)
	}
	check("first packet learns", 0, 1, 1)
	if cost := serve(nil); cost != ACACIAGWCosts.FastPath {
		t.Fatalf("second packet charged %v, want the fast path", cost)
	}
	check("undisturbed hit", 1, 1, 1)

	// hit -> write lands during service -> charged fast, forwarded slow.
	if cost := serve(func() {
		if write(); occupancy() != 0 {
			t.Fatalf("occupancy %v after the flush, want 0", occupancy())
		}
	}); cost != ACACIAGWCosts.FastPath {
		t.Fatalf("staged hit charged %v, want the fast path", cost)
	}
	check("staged hit, flushed mid-service", 1, 2, 1)

	// miss -> write -> still a miss (and the re-learned megaflow is gone).
	write()
	if cost := serve(write); cost != ACACIAGWCosts.SlowPath {
		t.Fatalf("staged miss charged %v, want the slow path", cost)
	}
	check("staged miss, flushed mid-service", 1, 3, 1)

	// A write between two packets, not during one, is the plain sequence.
	if cost := serve(nil); cost != ACACIAGWCosts.FastPath {
		t.Fatalf("hit after re-learn charged %v, want the fast path", cost)
	}
	check("hit after re-learn", 2, 3, 1)
}

// TestPendingPacketStaysTwoWords: the staged probe (key, slot, generation)
// lives on the Switch beside cpuCur, not in the queue entry. cpuQueue is
// unbounded and Fig 8 / ablation-fastpath overload it (≈ 300k entries):
// widening the entry 16 -> 32 B measured alloc_bytes_per_op +1.95 MB/op and
// peak_rss_mb 67-72 -> 87-106 MB on the paper-all workload.
func TestPendingPacketStaysTwoWords(t *testing.T) {
	if got := unsafe.Sizeof(pendingPacket{}); got != 16 {
		t.Fatalf("pendingPacket is %d bytes, want 16", got)
	}
}

// TestGTPPortMarks: only a marked port encapsulates; an unmarked id — inside
// or beyond the marked range — reads false, as a map miss did.
func TestGTPPortMarks(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	swN := nw.AddNode("sw", pkt.AddrFrom(10, 0, 0, 1))
	sw := NewSwitch(1, swN, IdealGWCosts)
	tunneled := make([]bool, 3)
	for i := range tunneled {
		i := i
		n := nw.AddNode(string(rune('a'+i)), pkt.AddrFrom(10, 0, 1, byte(i)))
		nw.ConnectSymmetric(swN, n, netsim.LinkConfig{})
		n.SetHandler(func(_ *netsim.Port, p *netsim.Packet) { tunneled[i] = p.Tunneled() })
	}
	sw.MarkGTPPort(1)
	for port := range tunneled {
		sw.installEntry(FlowEntry{Priority: 100, Match: pkt.Match{UDPDst: pkt.U16(uint16(port))},
			Actions: []pkt.Action{
				{Type: pkt.ActionSetTunnel, TunnelID: 7, TunnelDst: pkt.AddrFrom(10, 0, 9, 9)},
				{Type: pkt.ActionOutput, Port: uint32(port)}}})
		swN.Inject(&netsim.Packet{Flow: pkt.FiveTuple{DstPort: uint16(port), Proto: pkt.ProtoUDP}, Size: 100})
	}
	eng.Run()
	if want := []bool{false, true, false}; tunneled[0] != want[0] || tunneled[1] != want[1] || tunneled[2] != want[2] {
		t.Errorf("tunneled by port = %v, want %v", tunneled, want)
	}
}
