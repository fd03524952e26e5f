package netsim

import (
	"testing"
	"time"

	"acacia/internal/pkt"
	"acacia/internal/sim"
)

// TestRunForRefreshesLookahead adds a shorter cross-domain link between two
// runs. A driver that computed the lookahead once would open the second
// run's window 10 ms wide and the 1 ms cross send inside it would trip the
// cluster's conservative-window panic.
func TestRunForRefreshesLookahead(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng)
	nw.Partition(1)
	site := nw.AddDomain("site/b")

	// pair wires a root-domain sender to a site-domain receiver and reports
	// when the receiver saw a packet.
	pair := func(name string, last byte, prop time.Duration) (*Host, *Host, *sim.Time) {
		na := nw.AddNode(name+"-a", pkt.AddrFrom(10, 0, last, 1))
		nb := nw.AddNode(name+"-b", pkt.AddrFrom(10, 0, last, 2))
		nw.SetDomain(nb, site)
		nw.ConnectSymmetric(na, nb, LinkConfig{Propagation: prop})
		ha, hb := NewHost(na), NewHost(nb)
		gotAt := new(sim.Time)
		hb.Listen(80, AppFunc(func(h *Host, p *Packet) {
			*gotAt = h.Engine().Now()
			nw.Release(p)
		}))
		return ha, hb, gotAt
	}
	sendAfter := func(d time.Duration, from, to *Host) {
		eng.Schedule(d, func() { from.Send(to.Node.Addr(), 1, 80, pkt.ProtoUDP, 100, nil) })
	}

	slowA, slowB, slowAt := pair("slow", 1, 10*time.Millisecond)
	if slowB.Engine() == eng {
		t.Fatal("site node still on the root engine after Partition + AddDomain")
	}
	sendAfter(2*time.Millisecond, slowA, slowB)
	nw.RunFor(20 * time.Millisecond)
	if want := sim.Time(12 * time.Millisecond); *slowAt != want {
		t.Fatalf("first cross link delivered at %v, want %v", *slowAt, want)
	}

	fastA, fastB, fastAt := pair("fast", 2, time.Millisecond)
	sendAfter(2*time.Millisecond, fastA, fastB)
	nw.RunFor(20 * time.Millisecond)
	if want := sim.Time(23 * time.Millisecond); *fastAt != want {
		t.Errorf("shorter cross link delivered at %v, want %v", *fastAt, want)
	}
	if now := eng.Now(); now != sim.Time(40*time.Millisecond) {
		t.Errorf("root clock %v after two 20ms runs, want 40ms", now)
	}
}

// TestSingleDomainDriverIsTheEngine holds the unpartitioned path to exactly
// what it replaced: RunFor and MetricsSnapshot on a network with only its
// root domain match driving the engine directly, and AddDomain hands back
// the root domain so builders need no mode switch.
func TestSingleDomainDriverIsTheEngine(t *testing.T) {
	run := func(direct bool) (sim.Time, string) {
		eng := sim.NewEngine(7)
		nw := New(eng)
		na := nw.AddNode("a", pkt.AddrFrom(10, 0, 0, 1))
		nb := nw.AddNode("b", pkt.AddrFrom(10, 0, 0, 2))
		nw.SetDomain(nb, nw.AddDomain("site/b"))
		if nb.Engine() != eng {
			t.Fatal("AddDomain on an unpartitioned network left the root engine")
		}
		nw.ConnectSymmetric(na, nb, LinkConfig{BitsPerSecond: 1e6, Propagation: 2 * time.Millisecond})
		ha, hb := NewHost(na), NewHost(nb)
		NewSink(hb, 80)
		NewCBRSource(ha, nb.Addr(), 80, 1250).Start(2e6) // twice the link rate: queues and drops
		if direct {
			eng.RunFor(50 * time.Millisecond)
			return eng.Now(), eng.Metrics().Snapshot().String()
		}
		nw.RunFor(50 * time.Millisecond)
		return eng.Now(), nw.MetricsSnapshot().String()
	}
	wantNow, want := run(true)
	gotNow, got := run(false)
	if gotNow != wantNow || got != want {
		t.Errorf("network driver diverged from the engine:\nclock %v vs %v\n--- engine ---\n%s--- network ---\n%s", wantNow, gotNow, want, got)
	}
	if want == "" {
		t.Error("empty telemetry snapshot: the comparison proves nothing")
	}
}
