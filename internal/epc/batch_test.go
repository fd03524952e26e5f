package epc

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"acacia/internal/pkt"
	"acacia/internal/sdn"
)

// addBatchUEs provisions and radio-connects n extra UEs on the testbed's
// eNB, returning the full cohort including the original UE.
func (tb *testbed) addBatchUEs(n int) []*UE {
	cohort := []*UE{tb.ue}
	for i := 0; i < n; i++ {
		imsi := fmt.Sprintf("00101000001%04d", i+1)
		ueN := tb.nw.AddNode(fmt.Sprintf("ue-%d", i+2), pkt.AddrFrom(172, 16, 0, byte(3+i)))
		ue := tb.core.NewUE(ueN, imsi)
		tb.enb.ConnectUE(ue, radio100M, radio100M)
		tb.core.HSS.Provision(Subscriber{IMSI: imsi})
		cohort = append(cohort, ue)
	}
	return cohort
}

func TestAttachBatchAmortizesGTPv2(t *testing.T) {
	tb := buildTestbed(t, time.Hour)
	cohort := tb.addBatchUEs(2)

	before := acctCounts(tb.core.Acct)
	results := make(map[string]error)
	tb.core.AttachBatch(cohort, "core-sgw", "core-pgw", func(ue *UE, err error) {
		results[ue.IMSI] = err
	})
	tb.eng.RunFor(2 * time.Second)

	if len(results) != len(cohort) {
		t.Fatalf("outcomes = %d, want %d", len(results), len(cohort))
	}
	imsis := make([]string, 0, len(results))
	for imsi := range results {
		imsis = append(imsis, imsi)
	}
	sort.Strings(imsis)
	for _, imsi := range imsis {
		if err := results[imsi]; err != nil {
			t.Fatalf("attach %s: %v", imsi, err)
		}
	}
	for _, ue := range cohort {
		if !ue.attached {
			t.Errorf("UE %s not attached", ue.IMSI)
		}
		sess := tb.core.Session(ue.IMSI)
		if sess == nil || sess.State != StateConnected {
			t.Errorf("session %s = %+v", ue.IMSI, sess)
		}
	}
	// The shared chain is 6 GTPv2 messages regardless of cohort size:
	// Create Session req/resp on S11 and S5, Modify Bearer req/resp.
	d := acctDiff(tb.core.Acct, before)
	if d.Msgs[ProtoGTPv2] != 6 {
		t.Errorf("GTPv2 msgs = %d, want 6 for the whole cohort", d.Msgs[ProtoGTPv2])
	}
	// Radio-side signaling stays per-UE: InitialUEMessage, ICS req/resp and
	// attach complete for each member.
	if want := uint64(4 * len(cohort)); d.Msgs[ProtoS1AP] != want {
		t.Errorf("S1AP msgs = %d, want %d", d.Msgs[ProtoS1AP], want)
	}
	// Per-UE flow state landed: 2 rules per UE on each core gateway.
	if got, want := tb.coreSGW.FlowCount(), 2*len(cohort); got != want {
		t.Errorf("core SGW flows = %d, want %d", got, want)
	}
}

func TestAttachBatchReportsInvalidMembers(t *testing.T) {
	tb := buildTestbed(t, time.Hour)
	cohort := tb.addBatchUEs(1)
	// An unprovisioned UE in the cohort fails alone.
	strayN := tb.nw.AddNode("stray", pkt.AddrFrom(172, 16, 0, 99))
	stray := tb.core.NewUE(strayN, "999990000000001")
	tb.enb.ConnectUE(stray, radio100M, radio100M)
	cohort = append(cohort, stray)

	results := make(map[string]error)
	tb.core.AttachBatch(cohort, "core-sgw", "core-pgw", func(ue *UE, err error) {
		results[ue.IMSI] = err
	})
	tb.eng.RunFor(2 * time.Second)

	if err := results[stray.IMSI]; err == nil {
		t.Error("unprovisioned cohort member attached")
	}
	for _, ue := range cohort[:2] {
		if results[ue.IMSI] != nil || !ue.attached {
			t.Errorf("valid member %s: err=%v attached=%v", ue.IMSI, results[ue.IMSI], ue.attached)
		}
	}
}

func TestDetachBatch(t *testing.T) {
	tb := buildTestbed(t, time.Hour)
	cohort := tb.addBatchUEs(2)
	tb.core.AttachBatch(cohort, "core-sgw", "core-pgw", nil)
	tb.eng.RunFor(2 * time.Second)

	before := acctCounts(tb.core.Acct)
	results := make(map[string]error)
	tb.core.DetachBatch(cohort, func(ue *UE, err error) { results[ue.IMSI] = err })
	tb.eng.RunFor(2 * time.Second)

	for _, ue := range cohort {
		if err, ok := results[ue.IMSI]; !ok || err != nil {
			t.Errorf("detach %s: ok=%v err=%v", ue.IMSI, ok, err)
		}
		if ue.attached || tb.core.Session(ue.IMSI) != nil {
			t.Errorf("UE %s still attached", ue.IMSI)
		}
	}
	if d := acctDiff(tb.core.Acct, before); d.Msgs[ProtoGTPv2] != 4 {
		t.Errorf("GTPv2 msgs = %d, want 4 for the whole cohort", d.Msgs[ProtoGTPv2])
	}
	if got := tb.coreSGW.FlowCount(); got != 0 {
		t.Errorf("core SGW flows after detach = %d", got)
	}
}

// TestBatchFailureUnwinds kills S11 during AttachBatch and again during
// DetachBatch. Every member must hear the error exactly once, and sessions,
// UE-IP bindings, eNB downlink mappings, GW-U flows and procedure records
// out must be back at their values from before the cohort attached: the
// attach unwind and the detach teardown leave nothing behind.
func TestBatchFailureUnwinds(t *testing.T) {
	tb := buildTestbed(t, time.Hour)
	cohort := tb.addBatchUEs(2)
	type state struct {
		sessions, byIP, mappings, flows, records int
	}
	snapshot := func() state {
		flows := 0
		for _, sw := range []*sdn.Switch{tb.coreSGW, tb.corePGW, tb.edgeSGW, tb.edgePGW} {
			flows += sw.FlowCount()
		}
		c := tb.core
		records := c.legs.Outstanding() + c.deds.Outstanding() + c.cohorts.Outstanding()
		return state{len(c.sessions), len(c.byIP), len(tb.enb.byDLTEID), flows, records}
	}
	before := snapshot()
	withDeadS11 := func(procedure string, start func(done func(*UE, error))) {
		t.Helper()
		errs := make(map[string]int)
		tb.core.S11Link().SetDown(true)
		start(func(ue *UE, err error) {
			if err == nil {
				t.Errorf("%s: %s succeeded over a dead S11", procedure, ue.IMSI)
			}
			errs[ue.IMSI]++
		})
		tb.eng.RunFor(5 * time.Second) // bounded retries conclude the procedure
		tb.core.S11Link().SetDown(false)
		for _, ue := range cohort {
			if errs[ue.IMSI] != 1 {
				t.Errorf("%s: %s heard %d errors, want exactly 1", procedure, ue.IMSI, errs[ue.IMSI])
			}
			if ue.attached {
				t.Errorf("%s: %s still attached", procedure, ue.IMSI)
			}
		}
		if got := snapshot(); got != before {
			t.Errorf("%s: left %+v, want %+v as before the cohort attached", procedure, got, before)
		}
	}

	withDeadS11("AttachBatch", func(done func(*UE, error)) {
		tb.core.AttachBatch(cohort, "core-sgw", "core-pgw", done)
	})

	// Healed, the cohort attaches and one member adds a dedicated bearer at
	// the edge, so the failed detach must also remove its flows.
	var attachErr error
	tb.core.AttachBatch(cohort, "core-sgw", "core-pgw", func(_ *UE, err error) {
		if err != nil {
			attachErr = err
		}
	})
	tb.eng.RunFor(2 * time.Second)
	if attachErr != nil {
		t.Fatalf("healed AttachBatch: %v", attachErr)
	}
	var bearerErr error
	activated := false
	tb.core.PCRF.RequestDedicatedBearer("retail-ar", cohort[1].Addr(), tb.ciHost.Node.Addr(), "edge-sgw", "edge-pgw",
		func(_ any, _ uint8, err error) { bearerErr, activated = err, true }, nil)
	tb.eng.RunFor(time.Second)
	if n := len(tb.core.Session(cohort[1].IMSI).DedicatedBearers()); !activated || bearerErr != nil || n != 1 {
		t.Fatalf("dedicated bearer: done=%v err=%v, %d dedicated bearers", activated, bearerErr, n)
	}

	withDeadS11("DetachBatch", func(done func(*UE, error)) {
		tb.core.DetachBatch(cohort, done)
	})
}

func TestGTPv2BatchIMSIRoundTrip(t *testing.T) {
	m := &pkt.GTPv2Msg{
		Type:  pkt.GTPv2CreateSessionRequest,
		IMSI:  "001010000000001",
		IMSIs: []string{"001010000000002", "001010000000003"},
	}
	solo := &pkt.GTPv2Msg{Type: pkt.GTPv2CreateSessionRequest, IMSI: "001010000000001"}
	enc := m.Encode(nil)
	var got pkt.GTPv2Msg
	if _, err := got.Decode(enc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.IMSI != m.IMSI || len(got.IMSIs) != 2 || got.IMSIs[0] != m.IMSIs[0] || got.IMSIs[1] != m.IMSIs[1] {
		t.Errorf("round trip = %q + %v", got.IMSI, got.IMSIs)
	}
	// Single-UE wire bytes are unchanged by the batch extension.
	if soloEnc := solo.Encode(nil); len(soloEnc) >= len(enc) {
		t.Errorf("solo encoding (%d bytes) not smaller than batch (%d)", len(soloEnc), len(enc))
	}
}
