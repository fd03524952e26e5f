package epc

import (
	"testing"
	"time"

	"acacia/internal/netsim"
	"acacia/internal/pkt"
)

// dropMarker is the size the eNB drop-path tests give their packets.
// Release zeroes a packet, so one that still carries it at the end of a
// test was dropped without going back to the pool.
const dropMarker = 1111

// uplink sends a marked packet from the testbed's UE to the internet
// server's port 8888 and returns it.
func uplink(tb *testbed) *netsim.Packet {
	p := tb.nw.NewPacket()
	p.Flow = pkt.FiveTuple{Src: tb.ue.Addr(), Dst: tb.inetHost.Node.Addr(), SrcPort: 9999, DstPort: 8888, Proto: pkt.ProtoUDP}
	p.Size = dropMarker
	tb.ue.Host.Node.Inject(p)
	return p
}

// TestFullUplinkBufferReleases sends an idle UE's eNB one uplink packet
// more than its promotion buffer holds. The promotion replays the buffer,
// and the packet past its bound must go back to the pool.
func TestFullUplinkBufferReleases(t *testing.T) {
	tb := buildTestbed(t, 3*time.Second)
	tb.attach(t)
	tb.eng.RunFor(5 * time.Second)
	sess := tb.core.Session(tb.ue.IMSI)
	if sess.State != StateIdle {
		t.Fatalf("state = %v, want idle", sess.State)
	}
	got := 0
	tb.inetHost.Listen(8888, netsim.AppFunc(func(h *netsim.Host, p *netsim.Packet) {
		got++
		h.Node.Network().Release(p)
	}))
	var last *netsim.Packet
	for i := 0; i <= maxULBuffer; i++ {
		last = uplink(tb)
	}
	tb.eng.RunFor(time.Second)
	if sess.State != StateConnected || got != maxULBuffer {
		t.Fatalf("state %v, %d packets replayed; want connected, %d", sess.State, got, maxULBuffer)
	}
	if last.Size == dropMarker {
		t.Error("the packet past the uplink buffer's bound never returned to the pool")
	}
}

// TestBearerlessUplinkReleases sends uplink in a detach's window where the
// PGW-C has released the session's bearers but the eNB still holds the
// UE's radio context: the eNB finds no bearer for the packet and must
// return it to the pool.
func TestBearerlessUplinkReleases(t *testing.T) {
	tb := buildTestbed(t, time.Hour)
	tb.attach(t)
	tb.core.releaseSessionResources(tb.core.Session(tb.ue.IMSI))
	p := uplink(tb)
	tb.eng.RunFor(100 * time.Millisecond)
	if p.Size == dropMarker {
		t.Error("the uplink packet with no bearer never returned to the pool")
	}
}

// TestUnmappedDownlinkReleases tunnels a downlink packet to the eNB under
// a TEID it does not map, as a packet still in flight to a handover's
// source arrives after the source released the UE: the eNB must return it
// to the pool.
func TestUnmappedDownlinkReleases(t *testing.T) {
	tb := buildTestbed(t, time.Hour)
	tb.attach(t)
	p := tb.nw.NewPacket()
	p.Flow = pkt.FiveTuple{Src: tb.inetHost.Node.Addr(), Dst: tb.ue.Addr(), SrcPort: 9999, DstPort: 8888, Proto: pkt.ProtoUDP}
	p.Size = dropMarker
	p.Encapsulate(tb.coreSGW.Node().Addr(), tb.enb.Addr(), 0xdead)
	tb.rtr.Node.Inject(p)
	tb.eng.RunFor(100 * time.Millisecond)
	if p.Size == dropMarker {
		t.Error("the downlink packet under an unmapped TEID never returned to the pool")
	}
}

// wantMappings checks the eNB's downlink map against the (one) UE context's
// reverse index: exactly n entries, one per listed bearer under its S1DL.
func wantMappings(t *testing.T, step string, e *ENB, ue *UE, n int, bearers ...*Bearer) {
	t.Helper()
	if len(e.byDLTEID) != n {
		t.Fatalf("%s: %s holds %d downlink mappings, want %d", step, e.Name(), len(e.byDLTEID), n)
	}
	indexed := 0
	ctx := e.byUEIP[ue.Addr()]
	for i, teid := range ctx.dlTEID {
		if teid == 0 {
			continue
		}
		indexed++
		if key := e.byDLTEID[teid]; key.ctx != ctx || key.ebi != uint8(i)+EBIDefault {
			t.Fatalf("%s: reverse index (ebi %d -> teid %d) disagrees with byDLTEID %+v", step, i+EBIDefault, teid, key)
		}
	}
	if indexed != n {
		t.Fatalf("%s: reverse index holds %d TEIDs, map %d", step, indexed, n)
	}
	for _, b := range bearers {
		if key, ok := e.byDLTEID[b.S1DL]; !ok || key.ebi != b.EBI {
			t.Fatalf("%s: bearer %d (S1DL %d) not mapped at %s", step, b.EBI, b.S1DL, e.Name())
		}
	}
}

// TestENBMappingsTrackLiveBearers walks one UE through every procedure that
// rewrites the eNB's downlink map — bearer setup, a repeated setup for the
// same bearer, idle release and promotion, handover, the handover
// compensation's restore, dedicated-bearer deletion, detach and re-attach —
// and after each checks len(byDLTEID) is the number of live bearers: the
// per-context reverse index must drop exactly what the whole-map range did.
func TestENBMappingsTrackLiveBearers(t *testing.T) {
	tb := buildTestbed(t, 3*time.Second)
	enb2 := withSecondENB(t, tb)
	tb.attach(t)
	sess := tb.core.Session(tb.ue.IMSI)
	def := sess.Bearers[EBIDefault]
	wantMappings(t, "attach", tb.enb, tb.ue, 1, def)
	ded := sess.Bearers[tb.dedicate(t)]
	wantMappings(t, "dedicated bearer", tb.enb, tb.ue, 2, def, ded)

	// A second setup of the same bearer replaces its mapping.
	old := ded.S1DL
	ded.S1DL = tb.enb.attachBearer(sess, ded)
	if _, stale := tb.enb.byDLTEID[old]; stale || ded.S1DL == old {
		t.Fatalf("repeated setup kept the stale TEID %d (new %d)", old, ded.S1DL)
	}
	wantMappings(t, "repeated setup", tb.enb, tb.ue, 2, def, ded)

	// Idle release drops the context's mappings; promotion re-creates them.
	tb.eng.RunFor(5 * time.Second)
	if sess.State != StateIdle {
		t.Fatalf("state = %v, want idle", sess.State)
	}
	wantMappings(t, "idle release", tb.enb, tb.ue, 0)
	pg := netsim.NewPinger(&tb.ue.Host, tb.inetHost.Node.Addr(), 64, 5003)
	pg.SendOne()
	tb.eng.RunFor(2 * time.Second)
	if sess.State != StateConnected {
		t.Fatalf("state = %v, want connected", sess.State)
	}
	wantMappings(t, "promotion", tb.enb, tb.ue, 2, def, ded)
	tb.core.cfg.IdleTimeout = time.Hour // no further idling below

	// Handover moves both bearers; restoring them at the source (what the
	// compensation does after a late leg fails) reinstates the old TEIDs
	// once, however often it runs.
	type held struct {
		ebi  uint8
		teid uint32
	}
	oldTEIDs := []held{{def.EBI, def.S1DL}, {ded.EBI, ded.S1DL}}
	var hoErr error
	tb.core.MME.Handover(sess, enb2, func(err error) { hoErr = err })
	tb.eng.RunFor(time.Second)
	if hoErr != nil || sess.ENB != enb2 {
		t.Fatalf("handover: err=%v, serving %s", hoErr, sess.ENB.Name())
	}
	wantMappings(t, "handover (source)", tb.enb, tb.ue, 0)
	wantMappings(t, "handover (target)", enb2, tb.ue, 2, def, ded)
	for round := 0; round < 2; round++ {
		for _, h := range oldTEIDs {
			tb.enb.restoreBearerMapping(sess, h.ebi, h.teid)
		}
		wantMappings(t, "restore", tb.enb, tb.ue, 2)
	}
	for _, h := range oldTEIDs {
		if key := tb.enb.byDLTEID[h.teid]; key.ebi != h.ebi {
			t.Fatalf("restore: TEID %d maps to bearer %d, want %d", h.teid, key.ebi, h.ebi)
		}
	}
	tb.enb.releaseContext(sess)
	wantMappings(t, "release after restore", tb.enb, tb.ue, 0)

	// Deleting the dedicated bearer leaves the default one.
	done := false
	tb.core.PCRF.RequestBearerTermination(tb.ue.Addr(), tb.ciHost.Node.Addr(), func(_ any, err error) { done = err == nil }, nil)
	tb.eng.RunFor(time.Second)
	if !done {
		t.Fatal("bearer termination failed")
	}
	wantMappings(t, "bearer deletion", enb2, tb.ue, 1, def)

	// Detach empties the map; a re-attach starts from one mapping again.
	if err := tb.ue.Detach(func() {}); err != nil {
		t.Fatal(err)
	}
	tb.eng.RunFor(time.Second)
	wantMappings(t, "detach", enb2, tb.ue, 0)
	tb.attach(t)
	sess = tb.core.Session(tb.ue.IMSI)
	wantMappings(t, "re-attach", sess.ENB, tb.ue, 1, sess.Bearers[EBIDefault])
	tb.dedicate(t)
	wantMappings(t, "re-attach + dedicated", sess.ENB, tb.ue, 2)
}
