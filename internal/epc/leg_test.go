package epc

import (
	"errors"
	"testing"
	"time"

	"acacia/internal/ctl"
	"acacia/internal/pkt"
	"acacia/internal/sdn"
)

// The continuation contract of sendS1AP/sendGTPv2: each send carries a
// pooled leg record that runs its continuation at most once, and only while
// the procedure is live in the leg's generation, and that returns to
// Core.legs once it has landed and its transaction has been acked or
// has failed.

// distinctLegs fails the test if a record sits in the free list twice,
// which a second delivery of one frame would cause.
func distinctLegs(t *testing.T, c *Core) {
	t.Helper()
	seen := make(map[*leg]bool, len(c.legs.Idle()))
	for _, l := range c.legs.Idle() {
		if seen[l] {
			t.Fatal("a leg record was recycled twice")
		}
		if l.pr != nil || l.deliver != nil {
			t.Fatal("a recycled leg record still holds its procedure")
		}
		seen[l] = true
	}
}

// TestLegAfterFailureRunsNothing fails a procedure on a dead S11 while its
// other leg is still crossing S1: the late leg lands, runs nothing and
// returns its record, and so does the timed-out leg, whose delivery the
// failed transaction cancelled.
func TestLegAfterFailureRunsNothing(t *testing.T) {
	tb := buildTestbed(t, time.Hour)
	c := tb.core
	if n := len(c.legs.Idle()); n != 0 {
		t.Fatalf("fresh core holds %d leg records", n)
	}
	c.S11Link().SetDown(true)

	var failed error
	ran := 0
	pr := &proc{end: func(err error) { failed = err }, undo: func() {}}
	c.sendGTPv2(c.takeLeg(pr, func() { ran++ }), c.mmeEP, c.sgwEP, &pkt.GTPv2Msg{Type: pkt.GTPv2ModifyBearerRequest, IMSI: tb.ue.IMSI})
	// The S11 transaction fails when its last T3 expires; send the S1 leg
	// so that it lands just after.
	failAt := time.Duration(ctl.N3+1) * ctl.T3
	tb.eng.Schedule(failAt-time.Millisecond, func() {
		c.sendS1AP(c.takeLeg(pr, func() { ran++ }), c.mmeEP, tb.enb.ep, &pkt.S1APMsg{Procedure: pkt.S1APPaging})
	})
	tb.eng.RunFor(time.Second)

	if failed == nil {
		t.Fatal("the procedure did not fail over a dead S11")
	}
	if tb.enb.s1Link.StatsAB().Delivered == 0 {
		t.Fatal("the S1 leg never landed")
	}
	if ran != 0 {
		t.Fatalf("%d continuations ran after the procedure failed", ran)
	}
	if n := len(c.legs.Idle()); n != 2 {
		t.Fatalf("%d leg records recycled, want 2 (the landed leg and the timed-out one)", n)
	}
	distinctLegs(t, c)
}

// TestRetransmittedLegRunsOnce loses the ack of a delivered request, so the
// retransmission lands as a duplicate: the continuation must run once, and
// its record return to the pool once.
func TestRetransmittedLegRunsOnce(t *testing.T) {
	tb := buildTestbed(t, time.Hour)
	c := tb.core
	s1 := tb.enb.s1Link
	ran := 0
	pr := &proc{}
	c.sendS1AP(c.takeLeg(pr, func() { ran++ }), c.mmeEP, tb.enb.ep, &pkt.S1APMsg{Procedure: pkt.S1APPaging})
	// The request is in flight at 1 ms and lands at 2 ms; its ack leaves
	// into a dead link and the T3 retransmission repeats the request.
	tb.eng.Schedule(time.Millisecond, func() { s1.SetDown(true) })
	tb.eng.Schedule(3*time.Millisecond, func() { s1.SetDown(false) })
	tb.eng.RunFor(time.Second)

	tr := c.Transport()
	if tr.Retransmissions() != 1 || tr.Duplicates() != 1 || tr.Timeouts() != 0 {
		t.Fatalf("retransmissions=%d duplicates=%d timeouts=%d, want 1, 1, 0",
			tr.Retransmissions(), tr.Duplicates(), tr.Timeouts())
	}
	if ran != 1 {
		t.Fatalf("continuation ran %d times, want once", ran)
	}
	if n := len(c.legs.Idle()); n != 1 {
		t.Fatalf("%d leg records recycled, want 1", n)
	}
	distinctLegs(t, c)

	// Whole procedures over lossy links keep the contract too.
	tb.enb.s1Link.SetLoss(0.2)
	c.S11Link().SetLoss(0.2)
	tb.attach(t)
	if err := tb.ue.Detach(nil); err != nil {
		t.Fatal(err)
	}
	tb.eng.RunFor(2 * time.Second)
	if tr.Duplicates() < 2 {
		t.Fatal("no duplicate deliveries under 20% loss — the filter is untested")
	}
	distinctLegs(t, c)
}

// TestLegPoolsStopGrowing runs loss-free lifecycle rounds — attach,
// dedicated bearer, handover out and back, bearer deletion, detach, then a
// batched attach and detach — and requires every record back in the pool
// at each quiescent point, with the pool no larger after the last round
// than after the first.
func TestLegPoolsStopGrowing(t *testing.T) {
	tb := buildTestbed(t, time.Hour)
	enb2 := withSecondENB(t, tb)
	cohort := tb.addBatchUEs(2)
	c := tb.core
	round := func() {
		t.Helper()
		tb.attach(t)
		tb.dedicate(t)
		sess := c.Session(tb.ue.IMSI)
		for _, target := range []*ENB{enb2, tb.enb} {
			var hoErr error
			c.MME.Handover(sess, target, func(err error) { hoErr = err })
			tb.eng.RunFor(500 * time.Millisecond)
			if hoErr != nil || sess.ENB != target {
				t.Fatalf("handover to %s: %v", target.Name(), hoErr)
			}
		}
		var delErr error
		c.PCRF.RequestBearerTermination(tb.ue.Addr(), tb.ciHost.Node.Addr(), func(_ any, err error) { delErr = err }, nil)
		tb.eng.RunFor(500 * time.Millisecond)
		if delErr != nil {
			t.Fatalf("bearer deletion: %v", delErr)
		}
		if err := tb.ue.Detach(nil); err != nil {
			t.Fatal(err)
		}
		tb.eng.RunFor(time.Second)
		for _, batch := range []func(func(*UE, error)){
			func(done func(*UE, error)) { c.AttachBatch(cohort, "core-sgw", "core-pgw", done) },
			func(done func(*UE, error)) { c.DetachBatch(cohort, done) },
		} {
			batch(func(ue *UE, err error) {
				if err != nil {
					t.Fatalf("%s: %v", ue.IMSI, err)
				}
			})
			tb.eng.RunFor(2 * time.Second)
		}
		if c.Transport().Timeouts() != 0 {
			t.Fatal("a transaction timed out on loss-free links")
		}
		distinctLegs(t, c)
	}
	round()
	first := len(c.legs.Idle())
	if first == 0 {
		t.Fatal("no leg records recycled")
	}
	for i := 0; i < 20; i++ {
		round()
	}
	if n := len(c.legs.Idle()); n != first {
		t.Fatalf("leg pool holds %d records after 21 rounds, %d after the first", n, first)
	}
}

// TestReusedRecordIgnoresLateLegs fails a handover by terminal timeout
// after its request was delivered, then reuses its record at once. The
// source eNB's S1 link dies 1 ms in: the Handover Required (sent at 0)
// still lands, but its acks are lost, and so is the Handover Command the
// MME sends at about 6 ms. The Required's T3 fails the handover at 400 ms;
// its callback heals the link and starts a second handover, which takes
// the same record. The Command's own terminal timeout lands at about
// 406 ms, a leg of the old generation: the new handover must not see it.
// It completes, its callback fires once, and no flow, TEID mapping, bearer
// or procedure record leaks.
func TestReusedRecordIgnoresLateLegs(t *testing.T) {
	tb := buildTestbed(t, time.Hour)
	enb2 := withSecondENB(t, tb)
	c := tb.core
	c.PCRF.AddRule(PolicyRule{ServiceID: "voice-ar", QCI: 1, Precedence: 5})
	tb.attach(t)
	var dedErr error = errors.New("no callback")
	c.PCRF.RequestDedicatedBearer("voice-ar", tb.ue.Addr(), tb.ciHost.Node.Addr(),
		"edge-sgw", "edge-pgw", func(_ any, _ uint8, err error) { dedErr = err }, nil)
	tb.eng.RunFor(time.Second)
	if dedErr != nil {
		t.Fatalf("dedicated bearer activation: %v", dedErr)
	}
	sess := c.Session(tb.ue.IMSI)
	switches := []*sdn.Switch{tb.coreSGW, tb.corePGW, tb.edgeSGW, tb.edgePGW}
	flows := make([]int, len(switches))
	for i, sw := range switches {
		flows[i] = sw.FlowCount()
	}
	if n := len(sess.OrderedBearers()); n != 2 {
		t.Fatalf("%d bearers after the activation, want the default and the dedicated one", n)
	}

	var firstErr, secondErr error
	firstCalls, secondCalls, timeoutsAtReuse := 0, 0, uint64(0)
	var record *handover
	tb.eng.Schedule(time.Millisecond, func() { tb.enb.s1Link.SetDown(true) })
	c.MME.Handover(sess, enb2, func(err error) {
		firstErr = err
		firstCalls++
		if len(c.hos.Idle()) != 1 {
			t.Fatalf("%d handover records free after the first ended, want 1", len(c.hos.Idle()))
		}
		record, timeoutsAtReuse = c.hos.Idle()[0], c.Transport().Timeouts()
		tb.enb.s1Link.SetDown(false)
		c.MME.Handover(sess, enb2, func(err error) { secondErr = err; secondCalls++ })
		if len(c.hos.Idle()) != 0 {
			t.Fatal("the second handover did not take the first one's record")
		}
	})
	tb.eng.RunFor(2 * time.Second)

	if firstCalls != 1 || firstErr == nil {
		t.Fatalf("first handover: %d callbacks, err %v; want one failure", firstCalls, firstErr)
	}
	if timeoutsAtReuse != 1 || c.Transport().Timeouts() != 2 {
		t.Fatalf("timeouts: %d at reuse, %d at the end; want 1 then 2 (the Command's after the reuse)",
			timeoutsAtReuse, c.Transport().Timeouts())
	}
	if secondCalls != 1 || secondErr != nil {
		t.Fatalf("second handover: %d callbacks, err %v; want one success", secondCalls, secondErr)
	}
	if len(c.hos.Idle()) != 1 || c.hos.Idle()[0] != record {
		t.Fatal("the reused record did not come back to the free list alone")
	}
	if sess.ENB != enb2 || tb.ue.enb != enb2 || c.MME.Handovers != 1 {
		t.Fatalf("session at %s, UE at %s, %d handovers; want enb2, enb2, 1",
			sess.ENB.Name(), tb.ue.enb.Name(), c.MME.Handovers)
	}
	for i, sw := range switches {
		if got := sw.FlowCount(); got != flows[i] {
			t.Errorf("%s holds %d flows, %d before the handovers", sw.Node().Name(), got, flows[i])
		}
	}
	bearers := sess.OrderedBearers()
	if len(tb.enb.byDLTEID) != 0 || len(enb2.byDLTEID) != len(bearers) {
		t.Fatalf("downlink mappings: %d at the source, %d at the target; want 0 and %d",
			len(tb.enb.byDLTEID), len(enb2.byDLTEID), len(bearers))
	}
	for _, b := range bearers {
		if key, ok := enb2.byDLTEID[b.S1DL]; !ok || key.ebi != b.EBI {
			t.Fatalf("bearer %d: S1DL %d not mapped at the target", b.EBI, b.S1DL)
		}
	}
	if len(bearers) != 2 {
		t.Fatalf("%d bearers after the handovers, want the default and the dedicated one", len(bearers))
	}
	if l, h := c.legs.Outstanding(), c.hos.Outstanding(); l != 0 || h != 0 {
		t.Fatalf("%d leg and %d handover records still out", l, h)
	}
}
