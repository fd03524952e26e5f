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
	// Through a link: only a prioritised direction reads Packet.Priority; a
	// FIFO one queues every packet on lane 0.
	for _, prioritized := range []bool{false, true} {
		_, ha, hb, _ := twoHosts(t, LinkConfig{BitsPerSecond: 1e6, Prioritized: prioritized})
		flow := pkt.FiveTuple{Src: ha.Node.Addr(), Dst: hb.Node.Addr(), DstPort: 80}
		func() {
			defer func() {
				if r := recover(); (r != nil) != prioritized {
					t.Errorf("Prioritized %v: send at priority 16 panicked: %v", prioritized, r)
				}
			}()
			ha.Node.Inject(&Packet{Flow: flow, Size: 100, Priority: maxLanes})
		}()
	}
}
