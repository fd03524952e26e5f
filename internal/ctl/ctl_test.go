package ctl

import (
	"sort"
	"strings"
	"testing"
	"time"

	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sim"
)

// pair builds two connected endpoints on a fresh engine.
func pair(t *testing.T, cfg netsim.LinkConfig) (*sim.Engine, *Transport, *Endpoint, *Endpoint, *netsim.Link) {
	t.Helper()
	eng := sim.NewEngine(7)
	nw := netsim.New(eng)
	na := nw.AddNode("a", pkt.AddrFrom(10, 0, 0, 1))
	nb := nw.AddNode("b", pkt.AddrFrom(10, 0, 0, 2))
	tr := NewTransport(eng)
	a := tr.Endpoint(na, true)
	b := tr.Endpoint(nb, true)
	l := Connect(a, b, cfg)
	return eng, tr, a, b, l
}

func TestNextSeqMonotonic(t *testing.T) {
	_, _, a, b, _ := pair(t, netsim.LinkConfig{Propagation: time.Millisecond})
	var prev uint32
	for i := 0; i < 100; i++ {
		s := a.NextSeq(b.Addr())
		if s <= prev {
			t.Fatalf("seq %d after %d: allocator not strictly monotonic", s, prev)
		}
		prev = s
	}
	// Per-peer independence: a fresh peer starts its own sequence space.
	other := pkt.AddrFrom(10, 0, 0, 9)
	if s := a.NextSeq(other); s != 1 {
		t.Fatalf("fresh peer first seq = %d, want 1", s)
	}
	// The reverse direction is its own allocator too.
	if s := b.NextSeq(a.Addr()); s != 1 {
		t.Fatalf("reverse-direction first seq = %d, want 1", s)
	}
}

func TestLossFreeDelivery(t *testing.T) {
	eng, tr, a, b, _ := pair(t, netsim.LinkConfig{Propagation: 2 * time.Millisecond})
	delivered := 0
	var info TxInfo
	var ackedAt sim.Time
	doneCalls := 0
	seq := a.NextSeq(b.Addr())
	a.Send(b.Addr(), seq, "Req", 100, func() { delivered++ }, func(err error) {
		t.Errorf("unexpected failure: %v", err)
	}, func(ti TxInfo) { info, ackedAt = ti, eng.Now(); doneCalls++ })
	eng.Run()
	if delivered != 1 || doneCalls != 1 {
		t.Fatalf("delivered=%d doneCalls=%d, want 1/1", delivered, doneCalls)
	}
	if info.Retrans != 0 {
		t.Errorf("loss-free exchange reported %d retransmissions", info.Retrans)
	}
	// Sent at time zero, so the ack time is the round trip.
	if rtt := time.Duration(ackedAt); rtt < 4*time.Millisecond {
		t.Errorf("RTT %v below two propagation delays", rtt)
	}
	if tr.Retransmissions() != 0 || tr.Timeouts() != 0 || tr.Duplicates() != 0 {
		t.Errorf("loss-free counters: retrans=%d timeouts=%d dups=%d",
			tr.Retransmissions(), tr.Timeouts(), tr.Duplicates())
	}
}

func TestRetransmissionRecoversFromLoss(t *testing.T) {
	eng, tr, a, b, l := pair(t, netsim.LinkConfig{Propagation: time.Millisecond})
	// 5% keeps the chance of any transaction burning all N3+1 attempts
	// negligible, so the drop/retransmission bookkeeping stays exact.
	l.SetLoss(0.05)
	const n = 200
	delivered := make(map[uint32]int)
	failures := 0
	for i := 0; i < n; i++ {
		seq := a.NextSeq(b.Addr())
		a.Send(b.Addr(), seq, "Req", 200, func() { delivered[seq]++ }, func(err error) {
			failures++
		}, nil)
	}
	eng.Run()
	if failures != 0 {
		t.Fatalf("%d transactions timed out at 5%% loss with N3=%d retries", failures, N3)
	}
	if len(delivered) != n {
		t.Fatalf("delivered %d distinct transactions, want %d", len(delivered), n)
	}
	seqs := make([]int, 0, len(delivered))
	for seq := range delivered {
		seqs = append(seqs, int(seq))
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		if count := delivered[uint32(seq)]; count != 1 {
			t.Errorf("seq %d delivered %d times, want exactly once", seq, count)
		}
	}
	droppedOnWire := l.StatsAB().Dropped + l.StatsBA().Dropped
	if tr.Retransmissions() == 0 {
		t.Fatal("no retransmissions at 5% loss — loss injection is not exercising recovery")
	}
	// With zero timeouts every wire drop (request or ack) is repaired by
	// exactly one retransmission of the affected request.
	if tr.Retransmissions() != droppedOnWire {
		t.Errorf("retransmissions=%d, wire drops=%d: counts should match when nothing timed out",
			tr.Retransmissions(), droppedOnWire)
	}
	// A dropped ack forces a duplicate request the receiver must suppress.
	ackDrops := tr.Retransmissions() - l.StatsAB().Dropped
	if tr.Duplicates() < ackDrops {
		t.Errorf("duplicates=%d, want at least %d (one per dropped ack)", tr.Duplicates(), ackDrops)
	}
}

// TestNoDeliveryAfterTimeout sends over a link slower than the whole retry
// budget: every attempt is still in flight when the transaction fails, and
// none may deliver after that.
func TestNoDeliveryAfterTimeout(t *testing.T) {
	eng, _, a, b, _ := pair(t, netsim.LinkConfig{Propagation: time.Duration(N3+2) * T3})
	delivered, failed := 0, 0
	a.Send(b.Addr(), a.NextSeq(b.Addr()), "Req", 100, func() { delivered++ }, func(error) { failed++ }, nil)
	eng.Run()
	if failed != 1 || delivered != 0 {
		t.Fatalf("%d failures, %d deliveries; want 1 and 0", failed, delivered)
	}
}

// TestTimeoutReturnsPooledRecords fails one transaction over a link slower
// than the retry budget: once every late attempt and its ack have landed,
// the transaction record and every packet — the template included — are
// back in their pools.
func TestTimeoutReturnsPooledRecords(t *testing.T) {
	eng, tr, a, b, _ := pair(t, netsim.LinkConfig{Propagation: time.Duration(N3+2) * T3})
	nw := a.node.Network()
	txns, pkts := tr.txns.Outstanding(), nw.PacketsOut()
	failed := 0
	a.Send(b.Addr(), a.NextSeq(b.Addr()), "Req", 100, func() { t.Error("delivered after timeout") }, func(error) { failed++ }, nil)
	eng.Run()
	if failed != 1 || tr.Timeouts() != 1 {
		t.Fatalf("%d failures, %d timeouts; want 1 and 1", failed, tr.Timeouts())
	}
	if got := tr.txns.Outstanding(); got != txns {
		t.Errorf("%d transaction records out after the timeout, want %d", got, txns)
	}
	if got := nw.PacketsOut(); got != pkts {
		t.Errorf("%d packets out after the timeout, want %d", got, pkts)
	}
}

func TestTimeoutAfterRetryBudget(t *testing.T) {
	eng, tr, a, b, l := pair(t, netsim.LinkConfig{Propagation: time.Millisecond})
	l.SetLoss(1.0)
	delivered := 0
	var failErr error
	failCalls := 0
	seq := a.NextSeq(b.Addr())
	a.Send(b.Addr(), seq, "Req", 100, func() { delivered++ }, func(err error) {
		failErr = err
		failCalls++
	}, func(TxInfo) { t.Error("onDone fired for a transaction that cannot complete") })
	start := eng.Now()
	eng.Run() // terminates: bounded retries mean no livelock
	if delivered != 0 {
		t.Fatalf("delivered %d over a fully lossy link", delivered)
	}
	if failCalls != 1 {
		t.Fatalf("onFail fired %d times, want exactly once", failCalls)
	}
	if failErr == nil || !strings.Contains(failErr.Error(), "timed out") {
		t.Fatalf("error = %v, want terminal timeout", failErr)
	}
	if tr.Timeouts() != 1 {
		t.Errorf("timeouts counter = %d, want 1", tr.Timeouts())
	}
	if got := uint64(N3); tr.Retransmissions() != got {
		t.Errorf("retransmissions = %d, want the full budget %d", tr.Retransmissions(), got)
	}
	// Terminal failure lands after (N3+1) armed timers, not earlier.
	wantElapsed := time.Duration(N3+1) * T3
	if elapsed := eng.Now().Sub(start); elapsed < wantElapsed {
		t.Errorf("failed after %v, want >= %v", elapsed, wantElapsed)
	}
}

func TestDuplicateRequestSuppressed(t *testing.T) {
	eng, tr, a, b, _ := pair(t, netsim.LinkConfig{Propagation: time.Millisecond})
	delivered := 0
	seq := a.NextSeq(b.Addr())
	a.Send(b.Addr(), seq, "Req", 100, func() { delivered++ }, nil, nil)
	eng.Run()
	// Re-offer the same (peer, seq): the receiver must re-ack (retiring the
	// sender's new pending entry) but not deliver again.
	redelivered := false
	a.Send(b.Addr(), seq, "Req", 100, func() { t.Error("duplicate was delivered") }, func(err error) {
		t.Errorf("duplicate send failed: %v", err)
	}, func(TxInfo) { redelivered = true })
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d times, want 1", delivered)
	}
	if !redelivered {
		t.Fatal("duplicate request was not re-acked")
	}
	if tr.Duplicates() != 1 {
		t.Errorf("duplicates counter = %d, want 1", tr.Duplicates())
	}
}

func TestSendWithoutRoutePanics(t *testing.T) {
	_, _, a, _, _ := pair(t, netsim.LinkConfig{Propagation: time.Millisecond})
	defer func() {
		if recover() == nil {
			t.Fatal("Send to an unrouted peer did not panic")
		}
	}()
	a.Send(pkt.AddrFrom(192, 0, 2, 1), 1, "Req", 10, nil, nil, nil)
}

// TestDuplicateFilterWindow walks the receiver's per-peer window through a
// gap: requests that overtake a missing one are delivered and remembered
// individually, the late one is delivered once and closes the gap, and a
// re-offered request counts one duplicate whether it sits below the floor or
// inside the ahead-set.
func TestDuplicateFilterWindow(t *testing.T) {
	eng, tr, a, b, _ := pair(t, netsim.LinkConfig{Propagation: time.Millisecond})
	s1, s2, s3 := a.NextSeq(b.Addr()), a.NextSeq(b.Addr()), a.NextSeq(b.Addr())
	delivered := map[uint32]int{}
	offer := func(seq uint32) {
		a.Send(b.Addr(), seq, "Req", 100, func() { delivered[seq]++ }, func(err error) {
			t.Errorf("seq %d failed: %v", seq, err)
		}, nil)
		eng.Run()
	}
	win := b.peers[a.Addr()]

	offer(s2)
	offer(s3)
	if win.floor != 0 || len(win.ahead) != 2 {
		t.Fatalf("after 2,3: floor = %d, ahead = %v; want 0 and {2,3}", win.floor, win.ahead)
	}
	offer(s3) // duplicate inside the ahead-set
	if tr.Duplicates() != 1 {
		t.Fatalf("duplicates = %d after re-offering seq 3 ahead of the gap, want 1", tr.Duplicates())
	}
	offer(s1) // the late one
	if win.floor != 3 || len(win.ahead) != 0 {
		t.Fatalf("after the gap closed: floor = %d, ahead = %v; want 3 and empty", win.floor, win.ahead)
	}
	offer(s1) // duplicates below the floor
	offer(s2)
	if tr.Duplicates() != 3 {
		t.Errorf("duplicates = %d, want 3", tr.Duplicates())
	}
	for _, seq := range []uint32{s1, s2, s3} {
		if delivered[seq] != 1 {
			t.Errorf("seq %d delivered %d times, want 1", seq, delivered[seq])
		}
	}
}

// TestDuplicateFilterStaysEmptyInOrder is the leak the window replaced: the
// old filter kept one map entry per delivered transaction for ever. In-order
// traffic must leave nothing behind but the floor.
func TestDuplicateFilterStaysEmptyInOrder(t *testing.T) {
	eng, tr, a, b, _ := pair(t, netsim.LinkConfig{Propagation: time.Millisecond})
	const n = 100_000
	delivered := 0
	deliver := func() { delivered++ }
	for i := 0; i < n; i++ {
		a.Send(b.Addr(), a.NextSeq(b.Addr()), "Req", 100, deliver, nil, nil)
		if i%100 == 99 {
			eng.Run()
		}
	}
	win := b.peers[a.Addr()]
	if delivered != n || win.floor != n || len(win.ahead) != 0 {
		t.Errorf("delivered = %d, floor = %d, ahead = %v; want %d, %d and empty", delivered, win.floor, win.ahead, n, n)
	}
	if len(a.pending) != 0 || tr.Duplicates() != 0 {
		t.Errorf("pending = %d, duplicates = %d; want 0, 0", len(a.pending), tr.Duplicates())
	}
}

// TestRetransmittedFrameNotRecycledWhileInFlight acks a transaction while
// its retransmitted clone is still on the wire: with 60 ms each way and
// T3 = 100 ms, the request lands at 60 ms, T3 sends a clone at 100 ms, the
// ack retires the transaction at 120 ms and the clone lands at 160 ms. A
// second transaction sent at 130 ms draws from the frame pool. The clone
// must still carry the first transaction's frame — so the duplicate filter
// suppresses it — and the second transaction must land at its own 190 ms,
// not early through a recycled frame the clone shares.
func TestRetransmittedFrameNotRecycledWhileInFlight(t *testing.T) {
	eng, tr, a, b, _ := pair(t, netsim.LinkConfig{Propagation: 60 * time.Millisecond})
	var first, second []sim.Time
	a.Send(b.Addr(), a.NextSeq(b.Addr()), "First", 100, func() { first = append(first, eng.Now()) }, nil, nil)
	eng.Schedule(130*time.Millisecond, func() {
		a.Send(b.Addr(), a.NextSeq(b.Addr()), "Second", 100, func() { second = append(second, eng.Now()) }, nil, nil)
	})
	eng.RunFor(170 * time.Millisecond)
	if tr.Retransmissions() != 1 || tr.Duplicates() != 1 {
		t.Fatalf("by 170 ms: retransmissions=%d duplicates=%d, want 1 and 1 (the clone suppressed)",
			tr.Retransmissions(), tr.Duplicates())
	}
	eng.Run()
	if len(first) != 1 || first[0] != sim.Time(60*time.Millisecond) {
		t.Fatalf("first delivered at %v, want once at 60ms", first)
	}
	if len(second) != 1 || second[0] != sim.Time(190*time.Millisecond) {
		t.Fatalf("second delivered at %v, want once at 190ms", second)
	}
	if tr.Timeouts() != 0 {
		t.Fatalf("%d timeouts, want 0", tr.Timeouts())
	}
}
