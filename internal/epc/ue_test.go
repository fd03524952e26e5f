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
	ue := NewUE(nw.AddNode("ue", pkt.AddrFrom(10, 0, 0, 9)), "001010000000009")
	udp := func(port uint16) pkt.FiveTuple {
		return pkt.FiveTuple{Src: ue.Addr(), Dst: pkt.AddrFrom(10, 9, 0, 1), SrcPort: 40000, DstPort: port, Proto: pkt.ProtoUDP}
	}
	// sess mirrors the modem's TFTs as the bearers the eNB classifies over;
	// enb's core holds the modem store the UE decodes into.
	enb := ENB{core: &Core{}}
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
		ue.classify(p)
		for i := 0; i < 20; i++ { // a map-ranged tie would flip within a few tries
			if got := bearerFor(ue, flow, 0); got != wantEBI {
				t.Fatalf("%s: bearerFor(port %d) = %d, want %d", step, flow.DstPort, got, wantEBI)
			}
		}
		if int(p.Priority) != wantQCI.Priority() {
			t.Fatalf("%s: classify(port %d) set priority %d, want QCI %d's %d", step, flow.DstPort, p.Priority, wantQCI, wantQCI.Priority())
		}
		if b := enb.classifyUplink(sess, p); b.EBI != wantEBI {
			t.Fatalf("%s: eNB classified port %d onto EBI %d, modem onto %d", step, flow.DstPort, b.EBI, wantEBI)
		}
	}

	check("empty modem", udp(7000), EBIDefault, pkt.QCIDefault)

	// 9 and 7 tie at precedence 10 on port 7000; 8 matches every UDP port
	// at a worse precedence; 12 beats them all on port 7001 only.
	install(9, 3, pkt.PacketFilter{ID: 1, Precedence: 10, Proto: pkt.ProtoUDP, RemotePortLo: 7000, RemotePortHi: 7000})
	install(7, 7, pkt.PacketFilter{ID: 1, Precedence: 10, Proto: pkt.ProtoUDP, RemotePortLo: 7000, RemotePortHi: 7000})
	install(8, 6, pkt.PacketFilter{ID: 1, Precedence: 20, Proto: pkt.ProtoUDP})
	install(12, 1, pkt.PacketFilter{ID: 1, Precedence: 5, Proto: pkt.ProtoUDP, RemotePortLo: 7001, RemotePortHi: 7001})
	check("tie", udp(7000), 7, 7)
	check("best precedence", udp(7001), 12, 1)
	check("catch-all", udp(9), 8, 6)
	tcp := udp(7000)
	tcp.Proto = pkt.ProtoTCP
	check("no match", tcp, EBIDefault, pkt.QCIDefault)

	remove(7)
	check("tie winner removed", udp(7000), 9, 3)
	install(7, 5, pkt.PacketFilter{ID: 1, Precedence: 10, Proto: pkt.ProtoUDP, RemotePortLo: 7000, RemotePortHi: 7000})
	check("reinstalled", udp(7000), 7, 5)

	ue.completeDetach()
	sess.Bearers = [16]*Bearer{EBIDefault: def}
	check("after detach", udp(7000), EBIDefault, pkt.QCIDefault)

	for _, ebi := range []uint8{0, 4} {
		if err := ue.installTFTFromNAS(activation(ebi, 3, pkt.PacketFilter{ID: 1, Precedence: 1})); err == nil {
			t.Errorf("activation for reserved EBI %d accepted", ebi)
		}
	}
	install(15, 2, pkt.PacketFilter{ID: 1, Precedence: 1, Proto: pkt.ProtoUDP})
	check("highest EBI", udp(7000), 15, 2)
}
