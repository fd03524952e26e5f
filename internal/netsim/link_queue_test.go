package netsim

import (
	"sort"
	"testing"

	"acacia/internal/pkt"
	"acacia/internal/sim"
)

// TestLaneQueueMatchesStableSort drives the link transmit queue with seeded
// random pushes and pops and checks every pop against the reference order:
// a stable sort of the waiting packets by (priority, arrival). The phases
// cover a deep never-draining backlog, lanes that drain completely and
// refill, and a trickle; each lane stays within its FIFO's memory bound,
// and a drained lane rewinds into one block.
func TestLaneQueueMatchesStableSort(t *testing.T) {
	type ref struct{ prio, id int }
	for seed := uint64(1); seed <= 3; seed++ {
		rng := sim.NewRNG(seed)
		var q laneQueue
		var waiting []ref
		var hwm [maxLanes]int
		next := 0
		pop := func() {
			sort.SliceStable(waiting, func(i, j int) bool { return waiting[i].prio < waiting[j].prio })
			want := waiting[0]
			waiting = waiting[1:]
			if got := q.pop(); got.p.Size != want.id {
				t.Fatalf("seed %d: popped packet %d, want %d (prio %d)", seed, got.p.Size, want.id, want.prio)
			}
		}
		// pushBias is the probability of a push in each phase; -1 drains.
		for phase, pushBias := range []float64{0.9, -1, 0.5, 0.2, -1, 0.7, -1} {
			for op := 0; op < 2000; op++ {
				if pushBias < 0 && len(waiting) == 0 {
					break
				}
				if pushBias >= 0 && (len(waiting) == 0 || rng.Float64() < pushBias) {
					// Few lanes early, all sixteen later.
					prio := rng.Intn(3 + 13*(phase%2))
					q.push(prio, queuedPacket{p: &Packet{Size: next}, enq: sim.Time(next)})
					waiting = append(waiting, ref{prio, next})
					next++
				} else {
					pop()
				}
				var mask uint16
				for i := range q.lanes {
					l := &q.lanes[i]
					hwm[i] = max(hwm[i], l.Len())
					if c, bound := l.Cap(), fifoBound(l, hwm[i]); c > bound {
						t.Fatalf("seed %d: lane %d holds %d slots at high-water mark %d, want at most %d", seed, i, c, hwm[i], bound)
					}
					if l.Len() > 0 {
						mask |= 1 << i
					} else if l.head != l.tail || l.r != 0 || l.w != 0 {
						t.Fatalf("seed %d: drained lane %d not rewound (r %d, w %d)", seed, i, l.r, l.w)
					}
				}
				if mask != q.nonEmpty {
					t.Fatalf("seed %d: nonEmpty = %016b, lanes say %016b", seed, q.nonEmpty, mask)
				}
			}
		}
		if len(waiting) != 0 || q.nonEmpty != 0 {
			t.Fatalf("seed %d: %d packets left after the final drain", seed, len(waiting))
		}
	}
}

// TestLaneQueueGrowsOnDemand: a direction that never queues holds no lane,
// a FIFO holds one, and a prioritised one only as many as its highest
// priority seen — the metro shapes build > 20,000 directions.
func TestLaneQueueGrowsOnDemand(t *testing.T) {
	var q laneQueue
	if q.lanes != nil {
		t.Fatal("zero queue holds lanes")
	}
	q.push(0, queuedPacket{p: &Packet{}})
	if len(q.lanes) != 1 {
		t.Fatalf("FIFO queue holds %d lanes, want 1", len(q.lanes))
	}
	q.push(9, queuedPacket{p: &Packet{}})
	if len(q.lanes) != 10 {
		t.Fatalf("lanes = %d after a priority-9 push, want 10", len(q.lanes))
	}
}

// TestLaneQueuePriorityOutOfRangePanics: a priority outside [0, maxLanes)
// is a caller bug and must panic at push, never land in another lane.
func TestLaneQueuePriorityOutOfRangePanics(t *testing.T) {
	for _, prio := range []int{-1, maxLanes, 1 << 20} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("push(%d) did not panic", prio)
				}
			}()
			var q laneQueue
			q.push(3, queuedPacket{p: &Packet{}})
			q.push(prio, queuedPacket{p: &Packet{}})
		}()
	}
	// Through a link: only a prioritised direction reads Packet.Priority.
	_, _, hb, _ := twoHosts(t, LinkConfig{BitsPerSecond: 1e6})
	na := hb.Node.Network().nodes["a"]
	flow := pkt.FiveTuple{Src: na.Addr(), Dst: hb.Node.Addr(), DstPort: 80}
	na.Inject(&Packet{Flow: flow, Size: 100, Priority: maxLanes}) // FIFO: lane 0
	na.Port(0).link.SetConfigAB(LinkConfig{BitsPerSecond: 1e6, Prioritized: true})
	defer func() {
		if recover() == nil {
			t.Error("prioritised send at priority 16 did not panic")
		}
	}()
	na.Inject(&Packet{Flow: flow, Size: 100, Priority: maxLanes})
}

// TestLinkOrderAcrossPrioritizedToggle queues three batches on one
// direction with Prioritized flipped by SetConfigAB between them. A packet's
// lane is fixed when it is queued (its priority under a prioritised config,
// 0 under FIFO), so delivery is the stable (lane, arrival) order over all
// three batches — what the (prio, seq) heap produced.
func TestLinkOrderAcrossPrioritizedToggle(t *testing.T) {
	cfg := LinkConfig{BitsPerSecond: 1e6, Prioritized: true}
	eng, _, hb, _ := twoHosts(t, cfg)
	na := hb.Node.Network().nodes["a"]
	link := na.Port(0).link
	var order []int
	hb.Listen(80, AppFunc(func(_ *Host, p *Packet) { order = append(order, p.Size) }))

	type ref struct{ lane, id int }
	var want []ref
	rng := sim.NewRNG(7)
	id := 100
	for batch := 0; batch < 3; batch++ {
		cfg.Prioritized = batch != 1
		link.SetConfigAB(cfg)
		for i := 0; i < 20; i++ {
			prio := 1 + rng.Intn(9)
			na.Inject(&Packet{Flow: pkt.FiveTuple{Src: na.Addr(), Dst: hb.Node.Addr(), DstPort: 80}, Size: id, Priority: uint8(prio)})
			lane := 0
			if cfg.Prioritized {
				lane = prio
			}
			want = append(want, ref{lane, id})
			id++
		}
	}
	eng.Run()
	// The first packet went straight into service; the rest were scheduled.
	sort.SliceStable(want[1:], func(i, j int) bool { return want[1+i].lane < want[1+j].lane })
	if len(order) != len(want) {
		t.Fatalf("delivered %d of %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i].id {
			t.Fatalf("delivery %d is packet %d, want %d (lane %d)\norder: %v", i, order[i], want[i].id, want[i].lane, order)
		}
	}
}
