package epc

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sdn"
)

// tracedSince lists the control messages traced after the first n, one
// "name bytes path" line each.
func tracedSince(tb *testbed, n int) string {
	var b strings.Builder
	for _, r := range tb.core.Acct.Log[n:] {
		if r.Path != "" {
			fmt.Fprintf(&b, "%s %d %s\n", r.Name, r.Bytes, r.Path)
		}
	}
	return b.String()
}

// TestBearerPathTraces pins the messages of two bearer paths the golden
// lifecycle does not cover: a dedicated bearer activated while the UE is
// idle (paging, then the promotion, then the E-RAB Setup), and an
// activation that reaches the MME after a detach ended the session, which
// the SGW-C answers with a Denied Create Bearer Response.
func TestBearerPathTraces(t *testing.T) {
	tb := buildTestbed(t, 3*time.Second)
	tb.core.Acct.Trace = true
	tb.attach(t)
	tb.eng.RunFor(5 * time.Second)
	if s := tb.core.Session(tb.ue.IMSI); s.State != StateIdle {
		t.Fatalf("state = %v, want idle", s.State)
	}
	n := len(tb.core.Acct.Log)
	tb.dedicate(t)
	const idle = `CreateBearerRequest 77 pgw-c->sgw-c
CreateBearerRequest 77 sgw-c->mme
Paging 46 mme->enb
InitialUEMessage 46 enb->mme
InitialContextSetupRequest 82 mme->enb
InitialContextSetupResponse 60 enb->mme
ModifyBearerRequest 46 mme->sgw-c
ModifyBearerResponse 18 sgw-c->mme
DownlinkNASTransport 51 mme->enb
E-RABSetupRequest 138 mme->enb
E-RABSetupResponse 60 enb->mme
CreateBearerResponse 46 sgw-c->pgw-c
`
	if got := tracedSince(tb, n); got != idle {
		t.Errorf("activation while idle sent:\n%swant:\n%s", got, idle)
	}

	tb = buildTestbed(t, time.Hour)
	tb.core.Acct.Trace = true
	tb.attach(t)
	n = len(tb.core.Acct.Log)
	if err := tb.ue.Detach(nil); err != nil {
		t.Fatal(err)
	}
	// 9 ms in, the session is still bound but its release is under way:
	// the request reaches the MME after the session ended.
	var derr error
	tb.eng.Schedule(9*time.Millisecond, func() {
		tb.core.PCRF.RequestDedicatedBearer("retail-ar", tb.ue.Addr(), tb.ciHost.Node.Addr(),
			"edge-sgw", "edge-pgw", func(_ any, _ uint8, err error) { derr = err }, nil)
	})
	tb.eng.RunFor(time.Second)
	if derr == nil {
		t.Fatal("an activation for a detached session succeeded")
	}
	const denied = `UplinkNASTransport 61 enb->mme
DeleteSessionRequest 24 mme->sgw-c
DeleteSessionRequest 24 sgw-c->pgw-c
DeleteSessionResponse 18 pgw-c->sgw-c
DeleteSessionResponse 18 sgw-c->mme
UEContextReleaseCommand 50 mme->enb
UEContextReleaseComplete 46 enb->mme
CreateBearerRequest 77 pgw-c->sgw-c
CreateBearerRequest 77 sgw-c->mme
CreateBearerResponse 46 sgw-c->pgw-c
`
	if got := tracedSince(tb, n); got != denied {
		t.Errorf("denied activation sent:\n%swant:\n%s", got, denied)
	}
}

// killControl sets every control link the EPC procedures of the testbed
// cross — S1-MME, S11 and S5 — to drop everything (true) or nothing.
func killControl(tb *testbed, dead bool) {
	loss := 0.0
	if dead {
		loss = 1
	}
	tb.enb.s1Link.SetLoss(loss)
	tb.core.S11Link().SetLoss(loss)
	tb.core.S5Link().SetLoss(loss)
}

// recordTimes returns the send time of the first traced record named first
// and of the last one named last.
func recordTimes(t *testing.T, log []MsgRecord, first, last string) (time.Duration, time.Duration) {
	t.Helper()
	from, to := time.Duration(-1), time.Duration(-1)
	for _, r := range log {
		if r.Name == first && from < 0 {
			from = time.Duration(r.At)
		}
		if r.Name == last {
			to = time.Duration(r.At)
		}
	}
	if from < 0 || to < 0 {
		t.Fatalf("reference run sent no %s or no %s", first, last)
	}
	return from, to
}

// TestPromotionFailureLeavesUEIdle sweeps a kill time across the promotion
// an uplink packet of an idle UE starts, from its InitialUEMessage to just
// after the NAS service accept, killing S1, S11 and S5 at each point. A
// promotion that fails must leave the UE idle at every layer — no eNB
// downlink mapping, no connected radio context and no SGW-U downlink rule,
// so downlink pages again — and a healed retry must promote.
func TestPromotionFailureLeavesUEIdle(t *testing.T) {
	// idled builds a testbed whose UE, with a dedicated bearer, went idle;
	// ping then starts the promotion.
	idled := func() *testbed {
		tb := buildTestbed(t, 3*time.Second)
		tb.attach(t)
		tb.dedicate(t)
		tb.eng.RunFor(5 * time.Second)
		if s := tb.core.Session(tb.ue.IMSI); s.State != StateIdle {
			t.Fatalf("state = %v, want idle", s.State)
		}
		return tb
	}
	ping := func(tb *testbed, port uint16) *netsim.Pinger {
		pg := netsim.NewPinger(&tb.ue.Host, tb.inetHost.Node.Addr(), 64, port)
		pg.SendOne()
		return pg
	}

	ref := idled()
	ref.core.Acct.Trace = true
	start := ref.eng.Now()
	ping(ref, 5500)
	ref.eng.RunFor(time.Second)
	from, to := recordTimes(t, ref.core.Acct.Log, pkt.S1APInitialUEMessage.String(), pkt.S1APDownlinkNASTransport.String())
	from, to = from-time.Duration(start), to-time.Duration(start)

	failures := 0
	for killAt := from; killAt <= to+3*time.Millisecond; killAt += time.Millisecond {
		tb := idled()
		sess := tb.core.Session(tb.ue.IMSI)
		coreSGW, edgeSGW := tb.coreSGW.FlowCount(), tb.edgeSGW.FlowCount()
		tb.eng.Schedule(killAt, func() { killControl(tb, true) })
		ping(tb, 5501)
		tb.eng.RunFor(8 * time.Second) // terminal timeouts conclude the promotion
		if sess.State == StateConnected {
			continue // the promotion finished before the kill
		}
		failures++
		if sess.State != StateIdle {
			t.Fatalf("kill@%v: failed promotion left the session %v", killAt, sess.State)
		}
		connected := 0
		for _, ctx := range tb.enb.byRadio {
			if ctx != nil && ctx.connected {
				connected++
			}
		}
		if n := len(tb.enb.byDLTEID); n != 0 || connected != 0 {
			t.Fatalf("kill@%v: eNB kept %d downlink mappings and %d connected contexts, want 0 and 0", killAt, n, connected)
		}
		if c, e := tb.coreSGW.FlowCount(), tb.edgeSGW.FlowCount(); c != coreSGW || e != edgeSGW {
			t.Fatalf("kill@%v: SGW-U flows core %d edge %d, want the idle %d and %d (uplink only)", killAt, c, e, coreSGW, edgeSGW)
		}

		killControl(tb, false)
		pg := ping(tb, 5502)
		tb.eng.RunFor(time.Second)
		if sess.State != StateConnected || pg.RTTs.N() != 1 {
			t.Fatalf("kill@%v: healed retry: state %v, %d replies", killAt, sess.State, pg.RTTs.N())
		}
	}
	if failures == 0 {
		t.Fatal("sweep degenerate: no promotion failed")
	}
}

// TestDedicatedActivationFailureReleasesRadio sweeps a kill time across a
// dedicated bearer activation, killing S1, S11 and S5 at each point. An
// activation that fails must take back what its E-RAB Setup gave the radio
// side — the eNB's downlink mapping and the modem's TFT — so modem and eNB
// agree the bearer does not exist, and a healed retry must succeed.
func TestDedicatedActivationFailureReleasesRadio(t *testing.T) {
	ciFlow := func(tb *testbed) pkt.FiveTuple {
		return pkt.FiveTuple{Src: tb.ue.Addr(), Dst: tb.ciHost.Node.Addr(), SrcPort: 5000, DstPort: netsim.PingPort, Proto: pkt.ProtoUDP}
	}
	failures, successes := 0, 0
	for killMS := 0; killMS <= 10; killMS++ {
		tb := buildTestbed(t, time.Hour)
		tb.attach(t)
		base := len(tb.enb.byDLTEID)
		tb.eng.Schedule(time.Duration(killMS)*time.Millisecond, func() { killControl(tb, true) })
		var derr error
		calls := 0
		tb.core.PCRF.RequestDedicatedBearer("retail-ar", tb.ue.Addr(), tb.ciHost.Node.Addr(),
			"edge-sgw", "edge-pgw", func(_ any, _ uint8, err error) { derr = err; calls++ }, nil)
		tb.eng.RunFor(8 * time.Second)
		if calls != 1 {
			t.Fatalf("kill@%dms: activation callback fired %d times", killMS, calls)
		}
		if derr == nil {
			successes++
			continue
		}
		failures++
		if n := len(tb.enb.byDLTEID); n != base {
			t.Fatalf("kill@%dms: eNB holds %d downlink mappings, want %d", killMS, n, base)
		}
		if ebi := bearerFor(tb.ue, ciFlow(tb)); ebi != EBIDefault {
			t.Fatalf("kill@%dms: the modem still steers CI traffic onto EBI %d", killMS, ebi)
		}
		killControl(tb, false)
		tb.dedicate(t)
	}
	if failures == 0 || successes == 0 {
		t.Fatalf("sweep degenerate: %d failures, %d successes", failures, successes)
	}
}

// TestActivationRacingDetachLeaksNothing detaches 0–8 ms after a dedicated
// bearer activation starts. Whichever procedure lands first, no flow entry,
// eNB downlink mapping, modem TFT or procedure record may outlive the
// session, and the activation must report exactly once.
func TestActivationRacingDetachLeaksNothing(t *testing.T) {
	for offMS := 0; offMS <= 8; offMS++ {
		tb := buildTestbed(t, time.Hour)
		tb.core.PCRF.AddRule(PolicyRule{ServiceID: "voice-ar", QCI: 1, Precedence: 5})
		switches := []*sdn.Switch{tb.coreSGW, tb.corePGW, tb.edgeSGW, tb.edgePGW}
		before := make([]int, len(switches))
		for i, sw := range switches {
			before[i] = sw.FlowCount()
		}
		tb.attach(t)

		calls := 0
		tb.core.PCRF.RequestDedicatedBearer("voice-ar", tb.ue.Addr(), tb.ciHost.Node.Addr(),
			"edge-sgw", "edge-pgw", func(any, uint8, error) { calls++ }, nil)
		detached := false
		tb.eng.Schedule(time.Duration(offMS)*time.Millisecond, func() {
			if err := tb.ue.Detach(func() { detached = true }); err != nil {
				t.Errorf("+%dms: detach: %v", offMS, err)
			}
		})
		tb.eng.RunFor(2 * time.Second)

		if !detached || calls != 1 {
			t.Fatalf("+%dms: detached=%v, activation callback fired %d times", offMS, detached, calls)
		}
		for i, sw := range switches {
			if n := sw.FlowCount(); n != before[i] {
				t.Errorf("+%dms: switch %d holds %d flows, %d before attach", offMS, i, n, before[i])
			}
		}
		if n := len(tb.enb.byDLTEID); n != 0 {
			t.Errorf("+%dms: the eNB keeps %d downlink mappings", offMS, n)
		}
		if tb.ue.tfts != [len(tb.ue.tfts)]modemTFT{} {
			t.Errorf("+%dms: the modem keeps a dedicated bearer's TFT", offMS)
		}
		if d, l := tb.core.deds.Outstanding(), tb.core.legs.Outstanding(); d != 0 || l != 0 {
			t.Errorf("+%dms: %d dedicated and %d leg records still out", offMS, d, l)
		}
	}
}

// TestOverlappingActivationsTakeDistinctEBIs issues two dedicated bearer
// activations back to back on one session, toward different CI servers.
// The second starts before the first is answered, so the EBI the first
// chose is not yet in sess.Bearers: each must still get its own EBI, and
// both bearers, their modem TFTs and their gateway flows must be in place.
func TestOverlappingActivationsTakeDistinctEBIs(t *testing.T) {
	tb := buildTestbed(t, time.Hour)
	tb.attach(t)
	sgwFlows, pgwFlows := tb.edgeSGW.FlowCount(), tb.edgePGW.FlowCount()
	servers := []pkt.Addr{tb.ciHost.Node.Addr(), tb.inetHost.Node.Addr()}
	ebis := make([]uint8, len(servers))
	for i, server := range servers {
		tb.core.PCRF.RequestDedicatedBearer("retail-ar", tb.ue.Addr(), server, "edge-sgw", "edge-pgw",
			func(_ any, ebi uint8, err error) {
				if err != nil {
					t.Errorf("activation toward %v: %v", server, err)
				}
				ebis[i] = ebi
			}, nil)
	}
	tb.eng.RunFor(2 * time.Second)

	if ebis[0] != EBIDedicated || ebis[1] != EBIDedicated+1 {
		t.Fatalf("activations reported EBIs %v, want [%d %d]", ebis, EBIDedicated, EBIDedicated+1)
	}
	sess := tb.core.Session(tb.ue.IMSI)
	for i, server := range servers {
		ebi := ebis[i]
		if b := sess.Bearers[ebi]; b == nil || b.CIServer != server {
			t.Errorf("EBI %d holds %+v, want the bearer toward %v", ebi, b, server)
		}
		flow := pkt.FiveTuple{Src: tb.ue.Addr(), Dst: server, SrcPort: 5000, DstPort: netsim.PingPort, Proto: pkt.ProtoUDP}
		if got := bearerFor(tb.ue, flow); got != ebi {
			t.Errorf("the modem steers traffic toward %v onto EBI %d, want %d", server, got, ebi)
		}
	}
	// Each dedicated bearer installs an uplink and a downlink rule on both
	// edge gateways.
	if n := tb.edgeSGW.FlowCount() - sgwFlows; n != 4 {
		t.Errorf("edge SGW-U gained %d flows, want 4", n)
	}
	if n := tb.edgePGW.FlowCount() - pgwFlows; n != 4 {
		t.Errorf("edge PGW-U gained %d flows, want 4", n)
	}
}

// TestNilDoneActivationReleasesItsEBI runs ten activate/terminate cycles
// whose callers pass no done callback. Each activation must give back its
// EBI reservation when it ends, as one with a callback does: afterwards
// nothing is reserved and an eleventh activation still finds a free EBI
// (a session has ten dedicated EBIs).
func TestNilDoneActivationReleasesItsEBI(t *testing.T) {
	tb := buildTestbed(t, time.Hour)
	tb.attach(t)
	server := tb.ciHost.Node.Addr()
	sess := tb.core.Session(tb.ue.IMSI)
	for i := 0; i < 10; i++ {
		tb.core.PCRF.RequestDedicatedBearer("retail-ar", tb.ue.Addr(), server, "edge-sgw", "edge-pgw", nil, nil)
		tb.eng.RunFor(2 * time.Second)
		if sess.Bearers[EBIDedicated] == nil {
			t.Fatalf("cycle %d: the activation installed no bearer", i)
		}
		tb.core.PCRF.RequestBearerTermination(tb.ue.Addr(), server, nil, nil)
		tb.eng.RunFor(2 * time.Second)
	}
	if sess.pending != 0 {
		t.Fatalf("pending = %016b after ten cycles, want 0", sess.pending)
	}
	var ebi uint8
	var err error
	tb.core.PCRF.RequestDedicatedBearer("retail-ar", tb.ue.Addr(), server, "edge-sgw", "edge-pgw",
		func(_ any, e uint8, er error) { ebi, err = e, er }, nil)
	tb.eng.RunFor(2 * time.Second)
	if err != nil || ebi != EBIDedicated {
		t.Fatalf("eleventh activation: EBI %d, err %v; want EBI %d", ebi, err, EBIDedicated)
	}
}
