package epc

import (
	"testing"
	"time"

	"acacia/internal/netsim"
	"acacia/internal/pkt"
)

// withSecondENB extends the testbed with a second eNodeB on the same
// backhaul and a radio link from the UE to it.
func withSecondENB(t *testing.T, tb *testbed) *ENB {
	t.Helper()
	enb2N := tb.nw.AddNode("enb2", pkt.AddrFrom(10, 1, 0, 2))
	rtrN := tb.rtr.Node
	tb.nw.ConnectSymmetric(enb2N, rtrN, netsim.LinkConfig{BitsPerSecond: 1e9, Propagation: backhaulDelay})
	tb.rtr.AddHostRoute(enb2N.Addr(), rtrN.Port(len(rtrN.Ports())-1))
	enb2 := NewENB(tb.core, enb2N)
	enb2.ConnectUE(tb.ue, radio100M, radio100M)
	return enb2
}

// backhaulUL returns the eNB's backhaul link, whose A->B direction carries
// the uplink it forwards to the SGW-U.
func backhaulUL(t *testing.T, tb *testbed, enb *ENB) *netsim.Link {
	t.Helper()
	for _, l := range tb.nw.Links() {
		if l.A.Node == enb.node && l.B.Node == tb.rtr.Node {
			return l
		}
	}
	t.Fatalf("%s has no backhaul link", enb.Name())
	return nil
}

func TestHandoverMovesSession(t *testing.T) {
	tb := buildTestbed(t, time.Hour)
	enb2 := withSecondENB(t, tb)
	tb.attach(t)
	tb.dedicate(t)
	sess := tb.core.Session(tb.ue.IMSI)
	if sess.ENB != tb.enb {
		t.Fatalf("serving eNB = %s", sess.ENB.Name())
	}

	var hoErr error
	hoDone := false
	tb.core.MME.Handover(sess, enb2, func(err error) { hoErr, hoDone = err, true })
	tb.eng.RunFor(time.Second)
	if !hoDone {
		t.Fatal("handover did not complete")
	}
	if hoErr != nil {
		t.Fatalf("handover: %v", hoErr)
	}
	if sess.ENB != enb2 {
		t.Errorf("serving eNB after handover = %s", sess.ENB.Name())
	}
	if tb.core.MME.Handovers != 1 {
		t.Errorf("handover count = %d", tb.core.MME.Handovers)
	}
	if sess.UE.enb != enb2 {
		t.Error("UE radio not retuned")
	}
	// Bearers survive with fresh eNB-side TEIDs.
	if len(sess.DedicatedBearers()) != 1 {
		t.Errorf("dedicated bearers after handover = %d", len(sess.DedicatedBearers()))
	}
}

func TestHandoverDataContinuity(t *testing.T) {
	tb := buildTestbed(t, time.Hour)
	enb2 := withSecondENB(t, tb)
	tb.attach(t)
	tb.dedicate(t)
	sess := tb.core.Session(tb.ue.IMSI)

	// Continuous CI traffic across the handover.
	pg := netsim.NewPinger(&tb.ue.Host, tb.ciHost.Node.Addr(), 64, 5100)
	pg.Start(20 * time.Millisecond)
	tb.eng.RunFor(time.Second)
	lostBefore := pg.Sent - pg.RTTs.N()

	tb.core.MME.Handover(sess, enb2, nil)
	tb.eng.RunFor(2 * time.Second)
	pg.Stop()
	tb.eng.RunFor(500 * time.Millisecond)

	if pg.RTTs.N() < 100 {
		t.Fatalf("replies = %d", pg.RTTs.N())
	}
	// The radio interruption plus the pre-path-switch downlink window cost
	// a bounded handful of probes at 20 ms spacing.
	lostDuring := (pg.Sent - pg.RTTs.N()) - lostBefore
	if lostDuring > 10 {
		t.Errorf("lost %d probes across handover, want a small bounded gap", lostDuring)
	}
	// Traffic now flows via eNB2.
	ul := backhaulUL(t, tb, enb2)
	before := ul.StatsAB().Sent
	pg2 := netsim.NewPinger(&tb.ue.Host, tb.ciHost.Node.Addr(), 64, 5101)
	pg2.SendOne()
	tb.eng.RunFor(200 * time.Millisecond)
	if pg2.RTTs.N() != 1 {
		t.Error("post-handover ping lost")
	}
	if ul.StatsAB().Sent == before {
		t.Error("post-handover uplink did not traverse the target eNB")
	}
}

func TestHandoverMessageAccounting(t *testing.T) {
	tb := buildTestbed(t, time.Hour)
	enb2 := withSecondENB(t, tb)
	tb.attach(t)
	sess := tb.core.Session(tb.ue.IMSI)
	before := acctCounts(tb.core.Acct)
	done := false
	tb.core.MME.Handover(sess, enb2, func(error) { done = true })
	tb.eng.RunFor(time.Second)
	if !done {
		t.Fatal("handover incomplete")
	}
	d := acctDiff(tb.core.Acct, before)
	// Required, Request, RequestAck, Command, Notify.
	if d.Msgs[ProtoS1AP] != 5 {
		t.Errorf("handover S1AP messages = %d, want 5", d.Msgs[ProtoS1AP])
	}
	// Modify Bearer Request/Response for the path switch.
	if d.Msgs[ProtoGTPv2] != 2 {
		t.Errorf("handover GTPv2 messages = %d, want 2", d.Msgs[ProtoGTPv2])
	}
}

func TestHandoverGuards(t *testing.T) {
	tb := buildTestbed(t, time.Hour)
	enb2 := withSecondENB(t, tb)
	tb.attach(t)
	sess := tb.core.Session(tb.ue.IMSI)

	// Same source and target.
	var err1 error
	tb.core.MME.Handover(sess, tb.enb, func(err error) { err1 = err })
	tb.eng.RunFor(100 * time.Millisecond)
	if err1 == nil {
		t.Error("handover to the serving eNB accepted")
	}

	// UE without a radio link to the target.
	ue2N := tb.nw.AddNode("ue-noradio", pkt.AddrFrom(172, 16, 0, 9))
	ue2 := tb.core.NewUE(ue2N, "001010000000003")
	tb.core.HSS.Provision(Subscriber{IMSI: ue2.IMSI})
	tb.enb.ConnectUE(ue2, radioLine, radioLine)
	var aerr error
	ue2.Attach("core-sgw", "core-pgw", func(err error) { aerr = err })
	tb.eng.RunFor(2 * time.Second)
	if aerr != nil {
		t.Fatal(aerr)
	}
	var err2 error
	tb.core.MME.Handover(tb.core.Session(ue2.IMSI), enb2, func(err error) { err2 = err })
	tb.eng.RunFor(100 * time.Millisecond)
	if err2 == nil {
		t.Error("handover without target radio link accepted")
	}

	// Idle session.
	tb2 := buildTestbed(t, 3*time.Second)
	enb2b := withSecondENB(t, tb2)
	tb2.attach(t)
	tb2.eng.RunFor(6 * time.Second) // idle out
	sess2 := tb2.core.Session(tb2.ue.IMSI)
	if sess2.State != StateIdle {
		t.Fatalf("state = %v", sess2.State)
	}
	var err3 error
	fired := false
	tb2.core.MME.Handover(sess2, enb2b, func(err error) { err3, fired = err, true })
	tb2.eng.RunFor(100 * time.Millisecond)
	if !fired || err3 == nil {
		t.Error("handover of idle session accepted")
	}
}

func TestHandoverThenIdleAndPromotionOnTarget(t *testing.T) {
	// After a handover, the inactivity/promotion machinery must work at
	// the target eNB.
	tb := buildTestbed(t, 3*time.Second)
	enb2 := withSecondENB(t, tb)
	tb.attach(t)
	sess := tb.core.Session(tb.ue.IMSI)
	tb.core.MME.Handover(sess, enb2, nil)
	tb.eng.RunFor(time.Second)
	if sess.ENB != enb2 {
		t.Fatal("handover failed")
	}
	tb.eng.RunFor(6 * time.Second)
	if sess.State != StateIdle {
		t.Fatalf("state = %v, want idle at target", sess.State)
	}
	pg := netsim.NewPinger(&tb.ue.Host, tb.inetHost.Node.Addr(), 64, 5102)
	pg.SendOne()
	tb.eng.RunFor(2 * time.Second)
	if sess.State != StateConnected {
		t.Fatalf("state = %v after uplink at target", sess.State)
	}
	if pg.RTTs.N() != 1 {
		t.Error("promotion at target did not deliver the buffered ping")
	}
}
