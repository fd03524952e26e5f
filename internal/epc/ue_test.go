package epc

import (
	"testing"

	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sim"
)

// activation encodes the NAS message that installs one uplink filter on a
// dedicated bearer, so the tests below reach the modem the way the network
// does: through installTFTFromNAS.
func activation(ebi uint8, qci pkt.QCI, f pkt.PacketFilter) []byte {
	f.Direction = pkt.DirUplink
	m := &pkt.NASMsg{
		Type: pkt.NASActivateDedicatedBearerRequest,
		EBI:  ebi, LinkedEBI: EBIDefault,
		QoS: &pkt.BearerQoS{QCI: qci, ARP: 2},
		TFT: &pkt.TFT{Op: pkt.TFTOpCreateNew, Filters: []pkt.PacketFilter{f}},
	}
	return m.Encode(nil)
}

// TestModemClassification checks the UL TFT rule: classify (what packets
// get), match (what bearerFor reports) and the eNB's
// classifyUplink over a session holding the same TFTs agree on every flow,
// the lowest precedence value wins, an equal-precedence tie goes to the
// lowest EBI every time (classification used to range a map there), and an EBI
// can be installed, removed and installed again.
func TestModemClassification(t *testing.T) {
	nw := netsim.New(sim.NewEngine(1))
	core := &Core{}
	ue := core.NewUE(nw.AddNode("ue", pkt.AddrFrom(10, 0, 0, 9)), "001010000000009")
	to := func(host byte) pkt.FiveTuple {
		return pkt.FiveTuple{Src: ue.Addr(), Dst: pkt.AddrFrom(10, 9, 0, host), SrcPort: 40000, DstPort: 7000, Proto: pkt.ProtoUDP}
	}
	// host filters one address, subnet all of 10.9.0.0/16.
	host := func(h, prec uint8) pkt.PacketFilter {
		return pkt.PacketFilter{ID: 1, Precedence: prec, RemoteAddr: pkt.AddrFrom(10, 9, 0, h), RemoteMask: pkt.Addr{255, 255, 255, 255}}
	}
	subnet := func(prec uint8) pkt.PacketFilter {
		return pkt.PacketFilter{ID: 1, Precedence: prec, RemoteAddr: pkt.AddrFrom(10, 9, 0, 0), RemoteMask: pkt.Addr{255, 255, 0, 0}}
	}
	// sess mirrors the modem's TFTs as the bearers the eNB classifies over;
	// enb's core holds the modem store the UE decodes into.
	enb := ENB{core: core}
	ue.enb = &enb
	def := &Bearer{EBI: EBIDefault}
	sess := &Session{}
	sess.Bearers[EBIDefault] = def
	install := func(ebi uint8, qci pkt.QCI, f pkt.PacketFilter) {
		t.Helper()
		if err := ue.installTFTFromNAS(activation(ebi, qci, f)); err != nil {
			t.Fatalf("install EBI %d: %v", ebi, err)
		}
		sess.Bearers[ebi] = &Bearer{EBI: ebi, TFT: ue.tfts[ebi-EBIDefault].tft}
	}
	remove := func(ebi uint8) {
		ue.removeTFT(ebi)
		sess.Bearers[ebi] = nil
	}
	check := func(step string, flow pkt.FiveTuple, wantEBI uint8, wantQCI pkt.QCI) {
		t.Helper()
		p := &netsim.Packet{Flow: flow}
		ue.ClassifyEgress(p)
		for i := 0; i < 20; i++ { // a map-ranged tie would flip within a few tries
			if got := bearerFor(ue, flow); got != wantEBI {
				t.Fatalf("%s: bearerFor(%v) = %d, want %d", step, flow.Dst, got, wantEBI)
			}
		}
		if int(p.Priority) != wantQCI.Priority() {
			t.Fatalf("%s: classify(%v) set priority %d, want QCI %d's %d", step, flow.Dst, p.Priority, wantQCI, wantQCI.Priority())
		}
		if b := enb.classifyUplink(sess, p); b.EBI != wantEBI {
			t.Fatalf("%s: eNB classified %v onto EBI %d, modem onto %d", step, flow.Dst, b.EBI, wantEBI)
		}
	}

	check("empty modem", to(1), EBIDefault, pkt.QCIDefault)

	// 9 and 7 tie at precedence 10 on 10.9.0.1; 8 matches all of
	// 10.9.0.0/16 at a worse precedence; 12 beats them all on 10.9.0.2
	// only.
	install(9, 3, host(1, 10))
	install(7, 7, host(1, 10))
	install(8, 6, subnet(20))
	install(12, 1, host(2, 5))
	check("tie", to(1), 7, 7)
	check("best precedence", to(2), 12, 1)
	check("catch-all", to(9), 8, 6)
	outside := to(1)
	outside.Dst = pkt.AddrFrom(10, 8, 0, 1)
	check("no match", outside, EBIDefault, pkt.QCIDefault)

	remove(7)
	check("tie winner removed", to(1), 9, 3)
	install(7, 5, host(1, 10))
	check("reinstalled", to(1), 7, 5)

	ue.completeDetach()
	sess.Bearers = [16]*Bearer{EBIDefault: def}
	check("after detach", to(1), EBIDefault, pkt.QCIDefault)

	for _, ebi := range []uint8{0, 4} {
		if err := ue.installTFTFromNAS(activation(ebi, 3, pkt.PacketFilter{ID: 1, Precedence: 1})); err == nil {
			t.Errorf("activation for reserved EBI %d accepted", ebi)
		}
	}
	install(15, 2, subnet(1))
	check("highest EBI", to(1), 15, 2)
}
