package epc

import (
	"strings"
	"testing"
	"time"

	"acacia/internal/ctl"
	"acacia/internal/netsim"
	"acacia/internal/pkt"
)

// Control-plane robustness: the transactional transport must carry EPC
// procedures to completion across a lossy control link, and fail loudly —
// exactly once, with cleaned-up state — when the link is unusable.

func TestAttachSurvivesLossyS11(t *testing.T) {
	tb := buildTestbed(t, IdleTimeout)
	tb.core.S11Link().SetLoss(0.1)
	tb.attach(t)
	tb.dedicate(t)

	tr := tb.core.Transport()
	if tr.Timeouts() != 0 {
		t.Fatalf("%d transactions timed out at 10%% S11 loss", tr.Timeouts())
	}
	if tr.Retransmissions() == 0 {
		t.Fatal("no retransmissions despite S11 loss — recovery path untested")
	}
	// Only S11 is lossy, so every retransmission is attributable to a drop
	// there: a lost request or a lost ack each cost exactly one retry.
	s11 := tb.core.S11Link()
	drops := s11.StatsAB().Dropped + s11.StatsBA().Dropped
	if tr.Retransmissions() != drops {
		t.Errorf("retransmissions=%d, S11 drops=%d: should match with zero timeouts",
			tr.Retransmissions(), drops)
	}
	// A lost ack means the retransmitted request arrives twice.
	if drops > 0 && tr.Duplicates() == 0 && tr.Retransmissions() > s11.StatsAB().Dropped+s11.StatsBA().Dropped {
		t.Error("ack losses occurred but no duplicates were suppressed")
	}
}

func TestAttachFailsCleanlyOnDeadS11(t *testing.T) {
	tb := buildTestbed(t, IdleTimeout)
	tb.core.S11Link().SetLoss(1.0)

	var attachErr error
	doneCalls := 0
	tb.ue.Attach("core-sgw", "core-pgw", func(err error) {
		attachErr = err
		doneCalls++
	})
	tb.eng.RunFor(5 * time.Second) // no hang: bounded retries terminate

	if doneCalls != 1 {
		t.Fatalf("attach callback fired %d times, want exactly once", doneCalls)
	}
	if attachErr == nil {
		t.Fatal("attach succeeded over a dead S11 link")
	}
	if tb.core.Transport().Timeouts() == 0 {
		t.Error("no timeout recorded for the failed transaction")
	}
	if tb.ue.attached {
		t.Error("UE reports attached after a failed attach")
	}
	if tb.core.Session(tb.ue.IMSI) != nil {
		t.Error("failed attach left a session behind")
	}
}

func TestDedicatedBearerFailureReleasesResources(t *testing.T) {
	tb := buildTestbed(t, IdleTimeout)
	tb.attach(t)

	// Kill S11: the Create Bearer Request from the SGW-C cannot reach the
	// MME, so the activation must fail terminally and release the admitted
	// GBR capacity.
	tb.core.S11Link().SetLoss(1.0)
	var derr error
	doneCalls := 0
	tb.core.PCRF.RequestDedicatedBearer("retail-ar", tb.ue.Addr(), tb.ciHost.Node.Addr(),
		"edge-sgw", "edge-pgw", func(_ any, e uint8, err error) {
			derr = err
			doneCalls++
		}, nil)
	tb.eng.RunFor(5 * time.Second)
	if doneCalls != 1 {
		t.Fatalf("bearer callback fired %d times, want exactly once", doneCalls)
	}
	if derr == nil {
		t.Fatal("dedicated bearer activation succeeded over a dead S11 link")
	}
	if got := len(tb.ue.sess.DedicatedBearers()); got != 0 {
		t.Fatalf("%d dedicated bearers exist after failed activation", got)
	}

	// Heal the link: a retry must succeed, proving the failed attempt
	// leaked neither GBR budget nor session state.
	tb.core.S11Link().SetLoss(0)
	tb.dedicate(t)
}

// TestHandoverLossyLegsLeakNothing sweeps a kill time across the whole
// handover procedure — S1AP legs at ~2 ms spacing, the 30 ms radio
// interruption, and the GTPv2 path switch — and at each point kills every
// control link mid-flight. Whatever leg dies, the compensations must leave
// the session either fully at the source (usable, no target contexts, all
// downlink state repointed) or cleanly completed at the target; a healed
// retry must then succeed, proving no TEIDs or eNB contexts leaked.
func TestHandoverLossyLegsLeakNothing(t *testing.T) {
	failures, successes := 0, 0
	for killMS := 0; killMS <= 60; killMS += 3 {
		killAt := time.Duration(killMS) * time.Millisecond
		tb := buildTestbed(t, time.Hour)
		enb2 := withSecondENB(t, tb)
		tb.attach(t)
		tb.dedicate(t)
		sess := tb.core.Session(tb.ue.IMSI)
		srcMappings := len(tb.enb.byDLTEID)

		var hoErr error
		doneCalls := 0
		tb.eng.Schedule(killAt, func() {
			tb.enb.s1Link.SetLoss(1.0)
			enb2.s1Link.SetLoss(1.0)
			tb.core.S11Link().SetLoss(1.0)
		})
		tb.core.MME.Handover(sess, enb2, func(err error) {
			hoErr = err
			doneCalls++
		})
		tb.eng.RunFor(8 * time.Second) // bounded: terminal timeouts conclude the proc
		if doneCalls != 1 {
			t.Fatalf("kill@%v: handover callback fired %d times, want exactly once", killAt, doneCalls)
		}

		if hoErr != nil {
			failures++
			// Failed leg: fully unwound to the source.
			if sess.ENB != tb.enb {
				t.Fatalf("kill@%v: session half-switched, ENB=%s", killAt, sess.ENB.Name())
			}
			if sess.UE.enb != tb.enb {
				t.Fatalf("kill@%v: UE radio left at %s", killAt, sess.UE.enb.Name())
			}
			if n := len(enb2.byDLTEID); n != 0 {
				t.Fatalf("kill@%v: %d bearer contexts leaked at the target eNB", killAt, n)
			}
			if n := len(tb.enb.byDLTEID); n != srcMappings {
				t.Fatalf("kill@%v: source eNB has %d downlink mappings, want %d", killAt, n, srcMappings)
			}
			for _, b := range sess.OrderedBearers() {
				key, ok := tb.enb.byDLTEID[b.S1DL]
				if !ok || key.ebi != b.EBI {
					t.Fatalf("kill@%v: bearer %d S1DL %d not mapped at the source", killAt, b.EBI, b.S1DL)
				}
			}
			if tb.core.MME.Handovers != 0 {
				t.Fatalf("kill@%v: failed handover counted as completed", killAt)
			}
		} else {
			successes++
			// Late kill: the procedure finished first and must be complete.
			if sess.ENB != enb2 || sess.UE.enb != enb2 {
				t.Fatalf("kill@%v: handover reported success but session at %s", killAt, sess.ENB.Name())
			}
		}

		// Heal and prove the session is usable on its current anchor.
		tb.enb.s1Link.SetLoss(0)
		enb2.s1Link.SetLoss(0)
		tb.core.S11Link().SetLoss(0)
		pg := netsim.NewPinger(&tb.ue.Host, tb.ciHost.Node.Addr(), 64, uint16(5400+killMS))
		pg.SendOne()
		tb.eng.RunFor(500 * time.Millisecond)
		if pg.RTTs.N() != 1 {
			t.Fatalf("kill@%v: post-recovery CI ping lost (handover err=%v)", killAt, hoErr)
		}

		// A failed handover must be retryable: nothing leaked blocks it.
		if hoErr != nil {
			var retryErr error
			retried := false
			tb.core.MME.Handover(sess, enb2, func(err error) { retryErr, retried = err, true })
			tb.eng.RunFor(time.Second)
			if !retried || retryErr != nil {
				t.Fatalf("kill@%v: healed retry failed: done=%v err=%v", killAt, retried, retryErr)
			}
			if sess.ENB != enb2 {
				t.Fatalf("kill@%v: retry left session at %s", killAt, sess.ENB.Name())
			}
		}
	}
	// The sweep must exercise both outcomes or it proves nothing.
	if failures == 0 || successes == 0 {
		t.Fatalf("sweep degenerate: %d failures, %d successes", failures, successes)
	}
}

func TestTraceSeqsMonotonicPerPath(t *testing.T) {
	tb := buildTestbed(t, 500*time.Millisecond)
	tb.core.Acct.Trace = true
	tb.attach(t)
	tb.dedicate(t)
	// Idle release + promotion adds more signalling on the same paths.
	tb.eng.RunFor(2 * time.Second)
	netsim.NewPinger(&tb.ue.Host, tb.inetHost.Node.Addr(), 64, 5300).SendOne()
	tb.eng.RunFor(2 * time.Second)

	last := map[string]uint32{} // "proto|path" -> last seq
	n := 0
	for _, r := range tb.core.Acct.Log {
		if r.Proto != ProtoS1AP && r.Proto != ProtoGTPv2 {
			continue
		}
		if r.Path == "" {
			t.Fatalf("traced %s %s has no transport path", r.Proto, r.Name)
		}
		if r.Seq == 0 {
			t.Fatalf("traced %s %s on %s has seq 0 — not allocator-issued", r.Proto, r.Name, r.Path)
		}
		key := r.Proto.String() + "|" + r.Path
		if r.Seq <= last[key] {
			t.Fatalf("%s on %s: seq %d after %d — per-peer sequences must be strictly monotonic",
				r.Name, r.Path, r.Seq, last[key])
		}
		last[key] = r.Seq
		n++
	}
	if n == 0 {
		t.Fatal("trace captured no control messages")
	}
	// Loss-free runs traverse their link on the first attempt.
	for _, r := range tb.core.Acct.Log {
		if r.Retrans != 0 {
			t.Errorf("%s on %s reports %d retransmissions on a loss-free run", r.Name, r.Path, r.Retrans)
		}
	}
}

// TestAttachUnwindsRadioAfterContextSetup kills S11 as the last Initial
// Context Setup Response leaves its eNB: the default bearers are mapped at
// the eNB, and the Modify Bearer exchange that follows is lost. Both attach
// procedures must then unwind the eNB side as well as the sessions — no
// downlink TEID mapping and no connected radio context may remain — and a
// healed retry must succeed.
func TestAttachUnwindsRadioAfterContextSetup(t *testing.T) {
	procedures := []struct {
		name  string
		extra int // cohort members beside the testbed's UE
		start func(tb *testbed, cohort []*UE, done func(*UE, error))
	}{
		{"Attach", 0, func(tb *testbed, _ []*UE, done func(*UE, error)) {
			tb.ue.Attach("core-sgw", "core-pgw", func(err error) { done(tb.ue, err) })
		}},
		{"AttachBatch", 2, func(tb *testbed, cohort []*UE, done func(*UE, error)) {
			tb.core.AttachBatch(cohort, "core-sgw", "core-pgw", done)
		}},
	}
	for _, p := range procedures {
		setup := func() (*testbed, []*UE) {
			tb := buildTestbed(t, time.Hour)
			return tb, tb.addBatchUEs(p.extra)
		}
		// A traced loss-free run times the last context-setup response.
		ref, refCohort := setup()
		ref.core.Acct.Trace = true
		p.start(ref, refCohort, func(*UE, error) {})
		ref.eng.RunFor(2 * time.Second)
		var killAt time.Duration
		for _, r := range ref.core.Acct.Log {
			if r.Name == pkt.S1APInitialContextSetupResponse.String() {
				killAt = time.Duration(r.At)
			}
		}
		if killAt == 0 {
			t.Fatalf("%s: reference run sent no InitialContextSetupResponse", p.name)
		}

		tb, cohort := setup()
		tb.eng.Schedule(killAt-time.Duration(tb.eng.Now()), func() { tb.core.S11Link().SetDown(true) })
		errs := make(map[string]int)
		p.start(tb, cohort, func(ue *UE, err error) {
			if err == nil {
				t.Errorf("%s: %s attached without its Modify Bearer exchange", p.name, ue.IMSI)
			}
			errs[ue.IMSI]++
		})
		tb.eng.RunFor(5 * time.Second)
		for _, ue := range cohort {
			if errs[ue.IMSI] != 1 {
				t.Errorf("%s: %s heard %d errors, want exactly 1", p.name, ue.IMSI, errs[ue.IMSI])
			}
		}
		connected := 0
		for _, ctx := range tb.enb.byRadio {
			if ctx != nil && ctx.connected {
				connected++
			}
		}
		if n := len(tb.enb.byDLTEID); n != 0 || connected != 0 {
			t.Errorf("%s: eNB kept %d downlink mappings and %d connected contexts, want 0 and 0", p.name, n, connected)
		}
		if len(tb.core.sessions) != 0 || len(tb.core.byIP) != 0 {
			t.Errorf("%s: %d sessions and %d UE-IP bindings left", p.name, len(tb.core.sessions), len(tb.core.byIP))
		}

		tb.core.S11Link().SetDown(false)
		var retryErr error
		retried := 0
		p.start(tb, cohort, func(_ *UE, err error) {
			if err != nil {
				retryErr = err
			}
			retried++
		})
		tb.eng.RunFor(2 * time.Second)
		if retried != len(cohort) || retryErr != nil || !tb.ue.attached {
			t.Errorf("%s: healed retry: %d outcomes, err=%v, attached=%v", p.name, retried, retryErr, tb.ue.attached)
		}
	}
}

// TestIdleModeLossyLegs fails each S1AP and GTPv2 leg of an S1 release, of
// a page and of the promotion the page starts, one leg per run: the leg's
// control link goes down as the leg is sent and stays down until the
// leg's transaction has failed, T3×(N3+1) later. Whatever leg dies, the
// session must end idle or connected at the MME, the eNB and the SGW-U
// alike, with no page left buffered and every leg and idle record back in
// its pool, and once idle the UE must be paged again for downlink.
func TestIdleModeLossyLegs(t *testing.T) {
	// cycle idles the UE out and pages it back with one downlink packet.
	cycle := func(tb *testbed) {
		tb.eng.RunFor(5 * time.Second)
		tb.inetHost.Send(tb.ue.Addr(), 9999, 8888, pkt.ProtoUDP, 200, nil)
		tb.eng.RunFor(3 * time.Second)
	}
	ref := buildTestbed(t, 3*time.Second)
	ref.attach(t)
	connectedFlows := ref.coreSGW.FlowCount()
	ref.core.Acct.Trace = true
	cycle(ref)
	var legs []MsgRecord
	for _, r := range ref.core.Acct.Log {
		if r.Proto != ProtoOpenFlow {
			legs = append(legs, r)
		}
	}
	if len(legs) != 12 {
		t.Fatalf("the reference cycle sent %d S1AP and GTPv2 messages, want 12", len(legs))
	}

	outcomes := map[SessionState]int{}
	for _, leg := range legs {
		what := leg.Name + " " + leg.Path
		tb := buildTestbed(t, 3*time.Second)
		tb.attach(t)
		idleFlows := connectedFlows - len(tb.core.Session(tb.ue.IMSI).OrderedBearers())
		link := tb.enb.s1Link
		if strings.Contains(leg.Path, "sgw-c") {
			link = tb.core.S11Link()
		}
		down := time.Duration(leg.At) - time.Duration(tb.eng.Now())
		tb.eng.Schedule(down, func() { link.SetDown(true) })
		tb.eng.Schedule(down+time.Duration(ctl.N3+1)*ctl.T3, func() { link.SetDown(false) })
		cycle(tb)
		if tb.core.Transport().Timeouts() == 0 {
			t.Fatalf("%s: no transaction failed", what)
		}

		sess := tb.core.Session(tb.ue.IMSI)
		connected := sess.State == StateConnected
		if !connected && sess.State != StateIdle {
			t.Fatalf("%s: session %v, want idle or connected", what, sess.State)
		}
		outcomes[sess.State]++
		flows, mappings := idleFlows, 0
		if connected {
			flows, mappings = connectedFlows, len(sess.OrderedBearers())
		}
		if ctx := tb.enb.byUEIP[tb.ue.Addr()]; ctx.connected != connected || len(tb.enb.byDLTEID) != mappings {
			t.Fatalf("%s: session %v, but the eNB context connected=%v with %d downlink mappings", what, sess.State, ctx.connected, len(tb.enb.byDLTEID))
		}
		if n := tb.coreSGW.FlowCount(); n != flows {
			t.Fatalf("%s: session %v, but the SGW-U holds %d flows, want %d", what, sess.State, n, flows)
		}
		if n := len(tb.core.SGWC.paged); n != 0 {
			t.Fatalf("%s: %d paging buffers left", what, n)
		}
		if l, id := tb.core.legs.Outstanding(), tb.core.idles.Outstanding(); l != 0 || id != 0 {
			t.Fatalf("%s: %d leg and %d idle records outstanding", what, l, id)
		}

		tb.eng.RunFor(5 * time.Second)
		tb.core.Acct.Trace = true
		got := 0
		tb.ue.Host.Listen(8888, netsim.AppFunc(func(h *netsim.Host, p *netsim.Packet) {
			got++
			h.Node.Network().Release(p)
		}))
		tb.inetHost.Send(tb.ue.Addr(), 9999, 8888, pkt.ProtoUDP, 200, nil)
		tb.eng.RunFor(3 * time.Second)
		if p := traced(tb, pkt.S1APPaging); p != 1 || sess.State != StateConnected || got != 1 {
			t.Fatalf("%s: healed: %d pages, session %v, %d delivered; want 1, connected, 1", what, p, sess.State, got)
		}
	}
	// The sweep must end in both states or it proves nothing.
	if outcomes[StateIdle] == 0 || outcomes[StateConnected] == 0 {
		t.Fatalf("sweep degenerate: outcomes %v", outcomes)
	}
}
