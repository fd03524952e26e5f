package sdn

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sim"
)

// tableOrder lists the live slots in table order: descending priority, then
// arrival. It is the order the historical linear scan walked.
func (sw *Switch) tableOrder() []int32 {
	const rankSpecMask = uint64(0xf) << rankSeqBits // the rank's specificity class
	order := make([]int32, 0, sw.flows)
	for i := int32(1); i <= sw.nslots; i++ {
		if sw.slot(i).rank != 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		return sw.slot(order[a]).rank&^rankSpecMask < sw.slot(order[b]).rank&^rankSpecMask
	})
	return order
}

// lookupScan is the historical O(#flows) linear scan over the table in
// table order, kept as the semantic reference: the tests below hold
// lookup() to it winner for winner, and the BenchmarkScaleLookup* pair
// quantifies the gap at 10k entries.
func (sw *Switch) lookupScan(inPort uint32, flow pkt.FiveTuple, tunnelID uint64) int32 {
	best := int32(0)
	for _, i := range sw.tableOrder() {
		e := sw.slot(i)
		if !e.Match.Matches(inPort, flow, tunnelID) {
			continue
		}
		if best == 0 || e.Priority > sw.slot(best).Priority ||
			(e.Priority == sw.slot(best).Priority &&
				e.Match.SpecificityScore() > sw.slot(best).Match.SpecificityScore()) {
			best = i
		}
	}
	return best
}

// benchSwitch builds a bare switch (no links, no controller) to exercise
// table lookup in isolation.
func benchSwitch() *Switch {
	eng := sim.NewEngine(11)
	nw := netsim.New(eng)
	n := nw.AddNode("gw-u", pkt.AddrFrom(10, 9, 0, 1))
	return NewSwitch(1, n, ACACIAGWCosts)
}

// fillScaleTable installs n entries in the shapes the testbed actually uses:
// uplink TunnelID exact-match, downlink IPv4Dst (every fourth with IPv4Src
// too), and a low-priority background IPv4Src chain, plus one match-all
// catch-all so every probe resolves.
func fillScaleTable(sw *Switch, n int) {
	for i := 0; i < n; i++ {
		var e FlowEntry
		switch i % 4 {
		case 0:
			e = FlowEntry{Priority: 100, Cookie: uint64(i),
				Match:   pkt.Match{TunnelID: pkt.U64(uint64(1000 + i))},
				Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 0}}}
		case 1:
			e = FlowEntry{Priority: 100, Cookie: uint64(i),
				Match:   pkt.Match{IPv4Dst: pkt.AddrPtr(pkt.AddrFrom(172, 16, byte(i/250%250), byte(2+i%250)))},
				Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 0}}}
		case 2:
			e = FlowEntry{Priority: 110, Cookie: uint64(i),
				Match: pkt.Match{
					IPv4Dst: pkt.AddrPtr(pkt.AddrFrom(172, 16, byte(i/250%250), byte(2+i%250))),
					IPv4Src: pkt.AddrPtr(pkt.AddrFrom(10, 3, 0, 10)),
				},
				Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 0}}}
		default:
			e = FlowEntry{Priority: 50, Cookie: uint64(i),
				Match:   pkt.Match{IPv4Src: pkt.AddrPtr(pkt.AddrFrom(10, 1, byte(i/250%250), byte(1+i%250)))},
				Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 0}}}
		}
		sw.installEntry(e)
	}
	sw.installEntry(FlowEntry{Priority: 1, Cookie: 0xca7c4a11,
		Actions: []pkt.Action{{Type: pkt.ActionDrop}}})
}

// randProbe draws a packet view that may or may not hit one of the
// installed entries.
func randProbe(rng *rand.Rand, n int) (uint32, pkt.FiveTuple, uint64) {
	i := rng.Intn(2 * n)
	ft := pkt.FiveTuple{
		Src:     pkt.AddrFrom(10, 3, 0, 10),
		Dst:     pkt.AddrFrom(172, 16, byte(i/250%250), byte(2+i%250)),
		SrcPort: uint16(7000), DstPort: uint16(7000), Proto: pkt.ProtoTCP,
	}
	if i%3 == 0 {
		ft.Src = pkt.AddrFrom(10, 1, byte(i/250%250), byte(1+i%250))
	}
	teid := uint64(0)
	if i%2 == 0 {
		teid = uint64(1000 + i)
	}
	return uint32(rng.Intn(3)), ft, teid
}

// TestLookupMatchesScan holds the tuple-space index to the linear scan's
// semantics — winner identity under overlapping priorities, specificities
// and insertion order — over a randomized probe stream.
func TestLookupMatchesScan(t *testing.T) {
	sw := benchSwitch()
	fillScaleTable(sw, 400)
	// Overlap block: same key reachable through several shapes and equal
	// priorities, so tie-breaks are actually exercised.
	dst := pkt.AddrFrom(172, 16, 0, 7)
	sw.installEntry(FlowEntry{Priority: 100, Cookie: 0xa,
		Match:   pkt.Match{IPv4Dst: pkt.AddrPtr(dst)},
		Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 1}}})
	sw.installEntry(FlowEntry{Priority: 100, Cookie: 0xb,
		Match:   pkt.Match{IPv4Dst: pkt.AddrPtr(dst), IPProto: pkt.U8(pkt.ProtoTCP)},
		Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 2}}})
	sw.installEntry(FlowEntry{Priority: 100, Cookie: 0xc,
		Match:   pkt.Match{IPv4Dst: pkt.AddrPtr(dst)},
		Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 3}}})

	rng := rand.New(rand.NewSource(2016))
	for trial := 0; trial < 5000; trial++ {
		inPort, ft, teid := randProbe(rng, 400)
		if trial%7 == 0 {
			ft.Dst = dst
		}
		got := sw.lookup(inPort, ft, teid)
		want := sw.lookupScan(inPort, ft, teid)
		if got != want {
			t.Fatalf("probe %d: lookup=%d scan=%d (inPort=%d ft=%+v teid=%d)",
				trial, got, want, inPort, ft, teid)
		}
	}
}

// TestLookupTracksMutations verifies the index follows install, cookie
// removal and idle expiry.
func TestLookupTracksMutations(t *testing.T) {
	sw := benchSwitch()
	fillScaleTable(sw, 64)
	rng := rand.New(rand.NewSource(7))
	check := func(stage string) {
		t.Helper()
		for i := 0; i < 500; i++ {
			inPort, ft, teid := randProbe(rng, 64)
			if got, want := sw.lookup(inPort, ft, teid), sw.lookupScan(inPort, ft, teid); got != want {
				t.Fatalf("%s: lookup=%d scan=%d", stage, got, want)
			}
		}
	}
	check("initial")
	sw.removeFlows(2) // one of the DL entries
	check("after remove")
	sw.installEntry(FlowEntry{Priority: 200, Cookie: 0xf00,
		Match:   pkt.Match{TunnelID: pkt.U64(1000)},
		Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 2}}})
	check("after install")
}

// refTable is the table as it was before the index: a slice kept in
// (priority desc, arrival) order by insertion-shift, a linear duplicate scan
// on install, a full scan for cookie removal, and the linear
// lookup. TestTableMatchesReferenceModel holds the switch to it operation by
// operation.
type refTable struct{ entries []refEntry }

type refEntry struct{ FlowEntry }

func (r *refTable) install(e FlowEntry) {
	ne := refEntry{e}
	for i := range r.entries {
		if r.entries[i].Priority == e.Priority && r.entries[i].Match == e.Match {
			r.entries[i] = ne
			return
		}
	}
	r.entries = append(r.entries, ne)
	i := len(r.entries) - 1
	for i > 0 && r.entries[i-1].Priority < e.Priority {
		r.entries[i] = r.entries[i-1]
		i--
	}
	r.entries[i] = ne
}

func (r *refTable) filter(drop func(*refEntry) bool) int {
	kept := r.entries[:0]
	for _, e := range r.entries {
		if !drop(&e) {
			kept = append(kept, e)
		}
	}
	removed := len(r.entries) - len(kept)
	r.entries = kept
	return removed
}

func (r *refTable) remove(cookie uint64) int {
	return r.filter(func(e *refEntry) bool { return e.Cookie == cookie })
}

func (r *refTable) scan(inPort uint32, flow pkt.FiveTuple, tunnelID uint64) *refEntry {
	var best *refEntry
	for i := range r.entries {
		e := &r.entries[i]
		if !e.Match.Matches(inPort, flow, tunnelID) {
			continue
		}
		if best == nil || e.Priority > best.Priority ||
			(e.Priority == best.Priority && e.Match.SpecificityScore() > best.Match.SpecificityScore()) {
			best = e
		}
	}
	return best
}

// tag reads the install number the model test stores in an entry's output
// port, so entries can be told apart across the two tables.
func tag(acts []pkt.Action) uint32 { return acts[0].Port }

// modelMatch draws from a universe small enough that re-installs, one key
// at several priorities and EthType-only differences all happen often.
func modelMatch(rng *rand.Rand) pkt.Match {
	dst := pkt.AddrPtr(pkt.AddrFrom(172, 16, 0, byte(rng.Intn(6))))
	switch rng.Intn(8) {
	case 0:
		return pkt.Match{TunnelID: pkt.U64(uint64(rng.Intn(8)))}
	case 1:
		return pkt.Match{TunnelID: pkt.U64(uint64(rng.Intn(8))), InPort: pkt.U32(uint32(rng.Intn(2)))}
	case 2:
		return pkt.Match{IPv4Dst: dst}
	case 3:
		return pkt.Match{IPv4Dst: dst, EthType: pkt.U16(0x0800)}
	case 4:
		return pkt.Match{IPv4Dst: dst, EthType: pkt.U16(0x86dd)}
	case 5:
		return pkt.Match{IPv4Dst: dst, IPv4Src: pkt.AddrPtr(pkt.AddrFrom(10, 3, 0, byte(rng.Intn(2))))}
	case 6:
		return pkt.Match{IPv4Dst: dst, IPProto: pkt.U8(pkt.ProtoTCP)}
	default:
		return pkt.Match{}
	}
}

func modelProbe(rng *rand.Rand) (uint32, pkt.FiveTuple, uint64) {
	return uint32(rng.Intn(2)), pkt.FiveTuple{
		Src:   pkt.AddrFrom(10, 3, 0, byte(rng.Intn(3))),
		Dst:   pkt.AddrFrom(172, 16, 0, byte(rng.Intn(7))),
		Proto: []uint8{pkt.ProtoTCP, pkt.ProtoUDP}[rng.Intn(2)],
	}, uint64(rng.Intn(9))
}

// TestTableMatchesReferenceModel drives a seeded stream of install,
// re-install and remove-by-cookie at the switch and at the
// reference table, and after every operation requires the same flow count,
// the same (priority, arrival) dump order and the same winner for random
// probes — from lookup, from the scan over the switch's own table, and from
// the reference.
func TestTableMatchesReferenceModel(t *testing.T) {
	for _, seed := range []int64{1, 2016, 77} {
		sw := benchSwitch()
		ref := &refTable{}
		rng := rand.New(rand.NewSource(seed))
		peakSlots := 0
		for op := 0; op < 3000; op++ {
			what := "install"
			switch r := rng.Intn(10); {
			case r < 6:
				e := FlowEntry{
					Priority: []uint16{50, 100, 110}[rng.Intn(3)],
					Cookie:   uint64(rng.Intn(12)),
					Match:    modelMatch(rng),
					Actions:  []pkt.Action{{Type: pkt.ActionOutput, Port: uint32(op)}},
				}
				sw.installEntry(e)
				ref.install(e)
			default:
				what = "remove"
				cookie := uint64(rng.Intn(12))
				if got, want := sw.removeFlows(cookie), ref.remove(cookie); got != want {
					t.Fatalf("seed %d op %d: removeFlows(%d) = %d, reference %d", seed, op, cookie, got, want)
				}
			}
			if sw.FlowCount() != len(ref.entries) {
				t.Fatalf("seed %d op %d (%s): FlowCount %d, reference %d", seed, op, what, sw.FlowCount(), len(ref.entries))
			}
			for n, i := range sw.tableOrder() {
				if got, want := tag(sw.slot(i).actions()), tag(ref.entries[n].Actions); got != want {
					t.Fatalf("seed %d op %d (%s): dump position %d holds install #%d, reference #%d", seed, op, what, n, got, want)
				}
			}
			for probe := 0; probe < 20; probe++ {
				inPort, ft, teid := modelProbe(rng)
				got, scan, want := sw.lookup(inPort, ft, teid), sw.lookupScan(inPort, ft, teid), ref.scan(inPort, ft, teid)
				if got != scan || (got == 0) != (want == nil) || (got != 0 && tag(sw.slot(got).actions()) != tag(want.Actions)) {
					t.Fatalf("seed %d op %d (%s): lookup=%d scan=%d reference=%+v (inPort=%d ft=%+v teid=%d)",
						seed, op, what, got, scan, want, inPort, ft, teid)
				}
			}
			slots := int(sw.nslots)
			peakSlots = max(peakSlots, sw.FlowCount())
			if slots > peakSlots {
				t.Fatalf("seed %d op %d (%s): %d slots allocated for a table that never exceeded %d entries (freed slots not reused)",
					seed, op, what, slots, peakSlots)
			}
		}
		if len(sw.index) == 0 || sw.FlowCount() == 0 {
			t.Fatalf("seed %d: stream ended on an empty table; it proves nothing", seed)
		}
	}
}

// TestIndexChainsAndSlots pins the index's corner cases one by one.
func TestIndexChainsAndSlots(t *testing.T) {
	dst := pkt.AddrFrom(172, 16, 0, 7)
	ft := pkt.FiveTuple{Dst: dst, Proto: pkt.ProtoTCP}
	out := func(port uint32) []pkt.Action { return []pkt.Action{{Type: pkt.ActionOutput, Port: port}} }
	winner := func(sw *Switch) uint32 {
		t.Helper()
		i := sw.lookup(0, ft, 0)
		if i != sw.lookupScan(0, ft, 0) {
			t.Fatalf("lookup=%d scan=%d", i, sw.lookupScan(0, ft, 0))
		}
		if i == 0 {
			return 0
		}
		return tag(sw.slot(i).actions())
	}

	t.Run("same key at two priorities", func(t *testing.T) {
		sw := benchSwitch()
		sw.installEntry(FlowEntry{Priority: 100, Cookie: 1, Match: pkt.Match{IPv4Dst: pkt.AddrPtr(dst)}, Actions: out(1)})
		sw.installEntry(FlowEntry{Priority: 110, Cookie: 2, Match: pkt.Match{IPv4Dst: pkt.AddrPtr(dst)}, Actions: out(2)})
		sw.installEntry(FlowEntry{Priority: 50, Cookie: 3, Match: pkt.Match{IPv4Dst: pkt.AddrPtr(dst)}, Actions: out(3)})
		if sw.FlowCount() != 3 || winner(sw) != 2 {
			t.Fatalf("%d flows, winner #%d; want 3 flows, #2", sw.FlowCount(), winner(sw))
		}
		// Removing the key's current winner promotes the next in the chain.
		sw.removeFlows(2)
		if winner(sw) != 1 {
			t.Errorf("after removing the winner: #%d, want #1", winner(sw))
		}
		sw.removeFlows(1)
		if winner(sw) != 3 {
			t.Errorf("after removing the middle: #%d, want #3", winner(sw))
		}
		sw.removeFlows(3)
		if winner(sw) != 0 || len(sw.index) != 0 || len(sw.shapes) != 0 {
			t.Errorf("empty table: winner #%d, %d index keys, shapes %v", winner(sw), len(sw.index), sw.shapes)
		}
	})

	t.Run("matches differing only in EthType", func(t *testing.T) {
		sw := benchSwitch()
		plain := pkt.Match{IPv4Dst: pkt.AddrPtr(dst)}
		v4 := pkt.Match{IPv4Dst: pkt.AddrPtr(dst), EthType: pkt.U16(0x0800)}
		v6 := pkt.Match{IPv4Dst: pkt.AddrPtr(dst), EthType: pkt.U16(0x86dd)}
		sw.installEntry(FlowEntry{Priority: 100, Cookie: 1, Match: plain, Actions: out(1)})
		sw.installEntry(FlowEntry{Priority: 100, Cookie: 2, Match: v4, Actions: out(2)})
		sw.installEntry(FlowEntry{Priority: 100, Cookie: 3, Match: v6, Actions: out(3)})
		// Three distinct entries under one key; the more specific, earlier
		// one wins, as in the scan.
		if sw.FlowCount() != 3 || winner(sw) != 2 {
			t.Fatalf("%d flows, winner #%d; want 3 flows, #2", sw.FlowCount(), winner(sw))
		}
		// Re-installing one replaces that one only.
		sw.installEntry(FlowEntry{Priority: 100, Cookie: 3, Match: v6, Actions: out(4)})
		if sw.FlowCount() != 3 || winner(sw) != 2 {
			t.Errorf("after re-install: %d flows, winner #%d", sw.FlowCount(), winner(sw))
		}
		sw.removeFlows(2)
		if winner(sw) != 4 {
			t.Errorf("after removing v4: winner #%d, want the replaced v6 (#4)", winner(sw))
		}
	})

	t.Run("replace in place", func(t *testing.T) {
		// epc's handover path switch re-points the SGW-U downlink rule by
		// installing the same match and priority with new actions, and its
		// compensation installs the old ones back: each must replace, not
		// add, and keep the entry's place in the table.
		sw := benchSwitch()
		dl := pkt.Match{TunnelID: pkt.U64(0x5001)}
		sw.installEntry(FlowEntry{Priority: 100, Cookie: 0xa, Match: pkt.Match{TunnelID: pkt.U64(1)}, Actions: out(1)})
		sw.installEntry(FlowEntry{Priority: 100, Cookie: 0xd1, Match: dl, Actions: out(2)})
		sw.installEntry(FlowEntry{Priority: 100, Cookie: 0xb, Match: pkt.Match{TunnelID: pkt.U64(2)}, Actions: out(3)})
		sw.installEntry(FlowEntry{Priority: 100, Cookie: 0xd2, Match: dl, Actions: out(4)}) // path switch, new cookie
		order := sw.tableOrder()
		if sw.FlowCount() != 3 || tag(sw.slot(order[1]).actions()) != 4 {
			t.Fatalf("after replace: %d flows, second in table order is install #%d", sw.FlowCount(), tag(sw.slot(order[1]).actions()))
		}
		if i := sw.lookup(0, pkt.FiveTuple{}, 0x5001); tag(sw.slot(i).actions()) != 4 {
			t.Errorf("lookup still returns install #%d", tag(sw.slot(i).actions()))
		}
		// The replaced entry left its old cookie's chain and joined the new.
		if n := sw.removeFlows(0xd1); n != 0 {
			t.Errorf("old cookie still removes %d entries", n)
		}
		if n := sw.removeFlows(0xd2); n != 1 || sw.FlowCount() != 2 {
			t.Errorf("new cookie removed %d entries, %d flows left", n, sw.FlowCount())
		}
	})

	t.Run("slot reuse", func(t *testing.T) {
		sw := benchSwitch()
		for round := 0; round < 5; round++ {
			for i := 0; i < 600; i++ { // spans chunk boundaries
				sw.installEntry(FlowEntry{Priority: 100, Cookie: uint64(i % 7),
					Match: pkt.Match{TunnelID: pkt.U64(uint64(round*1000 + i))}, Actions: out(uint32(i))})
			}
			for c := uint64(0); c < 7; c++ {
				sw.removeFlows(c)
			}
			if sw.FlowCount() != 0 || len(sw.index) != 0 {
				t.Fatalf("round %d: %d flows, %d keys left", round, sw.FlowCount(), len(sw.index))
			}
		}
		if sw.nslots != 600 {
			t.Errorf("%d slots after five fill/clear rounds of 600, want 600", sw.nslots)
		}
	})
}

// TestCacheFlushSequence sends one flow through hit -> install -> miss ->
// hit and holds the three megaflow numbers every fingerprint contains to
// the flush-on-any-write reference: a write (even one that changes nothing
// for this flow, even a removal that removes nothing) empties the cache,
// the next packet takes the slow path and re-learns, the one after hits.
func TestCacheFlushSequence(t *testing.T) {
	g := buildGWTopo(t, ACACIAGWCosts)
	sw := g.sgwU
	occupancy := func() float64 {
		for _, m := range g.eng.Metrics().Snapshot().Metrics {
			if m.Name == "sdn/sgw-u/megaflow/occupancy" {
				return m.Value
			}
		}
		t.Fatal("no occupancy gauge")
		return 0
	}
	steps := []struct {
		name            string
		do              func()
		fast, slow, occ uint64
	}{
		{"first packet learns", func() { g.sendTunneled(1000) }, 0, 1, 1},
		{"second packet hits", func() { g.sendTunneled(1000) }, 1, 1, 1},
		{"unrelated install flushes", func() {
			sw.installEntry(FlowEntry{Priority: 100, Cookie: 9, Match: pkt.Match{TunnelID: pkt.U64(999)},
				Actions: []pkt.Action{{Type: pkt.ActionDrop}}})
		}, 1, 1, 0},
		{"next packet misses the cache", func() { g.sendTunneled(1000) }, 1, 2, 1},
		{"then hits", func() { g.sendTunneled(1000) }, 2, 2, 1},
		{"removing nothing still flushes", func() { sw.removeFlows(0xdead) }, 2, 2, 0},
		{"miss again", func() { g.sendTunneled(1000) }, 2, 3, 1},
		{"re-install of the live entry flushes", func() {
			sw.installEntry(FlowEntry{Priority: 100, Cookie: 0xbea4e401, Match: pkt.Match{TunnelID: pkt.U64(101)},
				Actions: []pkt.Action{
					{Type: pkt.ActionSetTunnel, TunnelID: 201, TunnelDst: g.pgwU.Node().Addr()},
					{Type: pkt.ActionOutput, Port: 1}}})
		}, 2, 3, 0},
		{"miss, hit", func() { g.sendTunneled(1000); g.eng.RunFor(time.Millisecond); g.sendTunneled(1000) }, 3, 4, 1},
	}
	for _, st := range steps {
		st.do()
		g.eng.RunFor(time.Millisecond)
		s := sw.Stats()
		if s.FastPathHits != st.fast || s.SlowPathHits != st.slow || occupancy() != float64(st.occ) {
			t.Fatalf("%s: fast=%d slow=%d occupancy=%v, reference fast=%d slow=%d occupancy=%d",
				st.name, s.FastPathHits, s.SlowPathHits, occupancy(), st.fast, st.slow, st.occ)
		}
	}
	if g.dst.Node == nil || sw.Stats().TableMisses != 0 {
		t.Errorf("table misses: %d", sw.Stats().TableMisses)
	}
}

// benchWrite times table writes on a table of n entries: rounds of n/8
// fresh installs and their n/8 removals by cookie, one half of each round
// timed, so the table stays between n and 9n/8 (b.N is rounded up to whole
// rounds).
func benchWrite(b *testing.B, n int, timeInstall bool) {
	sw := benchSwitch()
	fillScaleTable(sw, n)
	round := n / 8
	e := FlowEntry{Priority: 100, Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 0}}}
	install := func() {
		for j := 0; j < round; j++ {
			e.Cookie, e.Match = uint64(1<<40+j), pkt.Match{TunnelID: pkt.U64(uint64(1<<32 + j))}
			sw.installEntry(e)
		}
	}
	remove := func() {
		for j := 0; j < round; j++ {
			sw.removeFlows(uint64(1<<40 + j))
		}
	}
	timed, untimed := install, remove
	if !timeInstall {
		install()
		timed, untimed = remove, install
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += round {
		timed()
		b.StopTimer()
		untimed()
		b.StartTimer()
	}
}

// The write-side witness: install cost must not depend on table size.
func BenchmarkScaleInstall1k(b *testing.B)  { benchWrite(b, 1000, true) }
func BenchmarkScaleInstall10k(b *testing.B) { benchWrite(b, 10000, true) }
func BenchmarkScaleRemove10k(b *testing.B)  { benchWrite(b, 10000, false) }

// The acceptance witness: indexed lookup vs the historical scan at 10k
// installed entries.
func BenchmarkScaleLookupIndexed10k(b *testing.B) {
	sw := benchSwitch()
	fillScaleTable(sw, 10000)
	rng := rand.New(rand.NewSource(2016))
	inPort, ft, teid := randProbe(rng, 10000)
	sw.lookup(inPort, ft, teid) // settle the index outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.lookup(inPort, ft, teid)
	}
}

func BenchmarkScaleLookupScan10k(b *testing.B) {
	sw := benchSwitch()
	fillScaleTable(sw, 10000)
	rng := rand.New(rand.NewSource(2016))
	inPort, ft, teid := randProbe(rng, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.lookupScan(inPort, ft, teid)
	}
}
