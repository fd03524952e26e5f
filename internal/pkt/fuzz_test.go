package pkt

import (
	"bytes"
	"testing"
	"testing/quick"
)

// Decoders must never panic, whatever bytes arrive: they parse input from
// the (simulated) wire. Every test here feeds every decoder the same input.
// The two quick properties feed random buffers and random corruptions of
// valid messages. FuzzDecoders is the native fuzz target; plain `go test`
// runs its seed corpus: decoderSeeds plus the committed files under
// testdata/fuzz/FuzzDecoders, which pin inputs that once crashed a decoder
// (a FlowMod whose SetField action declares a length too short for its OXM
// value).

func decodeAll(b []byte) {
	var ip IPv4
	_, _ = ip.Decode(b)
	var u UDP
	_, _ = u.Decode(b)
	var g GTPU
	_, _ = g.Decode(b)
	_, _, _ = DecapsulateGPDU(b)
	var m GTPv2Msg
	_, _ = m.Decode(b)
	var s S1APMsg
	_, _ = s.Decode(b)
	var of OFMsg
	_, _ = of.Decode(b)
	var t TFT
	_, _ = t.Decode(b)
	var nas NASMsg
	_, _ = nas.Decode(b)
}

// decoderSeeds returns one valid encoding of each message family.
func decoderSeeds() [][]byte {
	tft := DedicatedBearerTFT(AddrFrom(10, 3, 0, 10))
	return [][]byte{
		(&GTPv2Msg{
			Type: GTPv2CreateBearerRequest, Seq: 7,
			IMSI: "001010123456789",
			Bearers: []BearerContext{{
				EBI: 6, TFT: &tft, QoS: &BearerQoS{QCI: 5, ARP: 2},
				FTEIDs: []FTEID{{IfaceType: FTEIDIfaceS1USGW, TEID: 1, Addr: AddrFrom(10, 3, 0, 1)}},
			}},
		}).Encode(nil),
		(&S1APMsg{
			Procedure: S1APERABSetupRequest, ENBUEID: 1, MMEUEID: 2, NAS: make([]byte, 64),
			ERABs: []ERABItem{{
				ERABID: 6, QoS: &BearerQoS{QCI: 5, ARP: 2},
				Transport: FTEID{IfaceType: FTEIDIfaceS1USGW, TEID: 9, Addr: AddrFrom(10, 3, 0, 1)},
				TFT:       &tft,
			}},
		}).Encode(nil),
		(&OFMsg{
			Type: OFFlowMod, Command: FlowModAdd, Priority: 10,
			Match: Match{TunnelID: U64(7), IPv4Dst: AddrPtr(AddrFrom(1, 2, 3, 4))},
			Actions: []Action{
				{Type: ActionSetTunnel, TunnelID: 8, TunnelDst: AddrFrom(5, 6, 7, 8)},
				{Type: ActionOutput, Port: 1},
			},
		}).Encode(nil),
		AppendGPDU(nil, AddrFrom(1, 0, 0, 1), AddrFrom(1, 0, 0, 2), 42, 0),
		(&NASMsg{
			Type: NASAttachRequest, IMSI: "001010123456789",
			ESM: &NASMsg{Type: NASActivateDefaultBearerRequest, APN: "acacia.mec"},
		}).Encode(nil),
		(&NASMsg{
			Type: NASAttachAccept,
			ESM: &NASMsg{
				Type: NASActivateDefaultBearerRequest, EBI: 5, APN: "internet",
				UEIP: AddrFrom(172, 16, 0, 2), QoS: &BearerQoS{QCI: QCIDefault, ARP: 9},
			},
		}).Encode(nil),
		(&NASMsg{
			Type: NASActivateDedicatedBearerRequest, EBI: 6, LinkedEBI: 5,
			QoS: &BearerQoS{QCI: QCIMEC, ARP: 2}, TFT: &tft,
		}).Encode(nil),
	}
}

func TestDecodersNeverPanicOnRandomBytes(t *testing.T) {
	f := func(b []byte) bool {
		decodeAll(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodersNeverPanicOnCorruptedValidMessages(t *testing.T) {
	seeds := decoderSeeds()
	f := func(seedIdx uint8, flipPos uint16, flipBits byte, truncate uint16) bool {
		seed := seeds[int(seedIdx)%len(seeds)]
		b := append([]byte{}, seed...)
		if len(b) > 0 {
			b[int(flipPos)%len(b)] ^= flipBits
			b = b[:int(truncate)%(len(b)+1)]
		}
		decodeAll(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func FuzzDecoders(f *testing.F) {
	for _, seed := range decoderSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) { decodeAll(b) })
}

// TestDecodersRejectUnsentFields: a field the testbed never sets is encoded
// as a constant, so a decoder meets any other value only in bytes no
// encoder here writes, and rejects them: a TFT component other than the
// remote address, a Bearer QoS bit rate, a set-field action, an OXM field
// outside the TEID, port and address matches, a FlowMod table id or
// timeout, and an OpenFlow message type nothing sends.
func TestDecodersRejectUnsentFields(t *testing.T) {
	tftWith := func(comp ...byte) []byte {
		// Op create-new with one filter: id 1 bidirectional, precedence 0.
		return append([]byte{byte(TFTOpCreateNew)<<5 | 1, 0x31, 0, byte(len(comp))}, comp...)
	}
	for _, tc := range []struct {
		name string
		wire []byte
	}{
		{"tft-local-port-range", tftWith(0x41, 0x04, 0x00, 0xff, 0xff)},
		{"tft-remote-port-range", tftWith(0x51, 0x13, 0x88, 0x13, 0x92)},
		{"tft-protocol", tftWith(0x30, ProtoUDP)},
		{"tft-tos", tftWith(0x70, 0xb8, 0xfc)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got TFT
			if _, err := got.Decode(tc.wire); err == nil {
				t.Errorf("decoded %+v", got)
			}
		})
	}

	t.Run("qos-bit-rate", func(t *testing.T) {
		qos := BearerQoS{QCI: QCIMEC, ARP: 2}
		ie := qos.encode(nil)
		tft := DedicatedBearerTFT(AddrFrom(10, 3, 0, 10))
		msg := NASMsg{Type: NASActivateDedicatedBearerRequest, EBI: 6, LinkedEBI: 5, QoS: &qos, TFT: &tft}
		wire := msg.Encode(nil)
		at := bytes.Index(wire, ie)
		if at < 0 {
			t.Fatal("the QoS IE is not in the encoding")
		}
		var ok NASMsg
		if _, err := ok.Decode(wire); err != nil {
			t.Fatal(err)
		}
		wire[at+2+4] = 1 // MBR uplink 1 kbps
		var got NASMsg
		if _, err := got.Decode(wire); err == nil {
			t.Errorf("a GBR QoS decoded: %+v", got.QoS)
		}
	})

	flowMod := func() (wire []byte, out int) {
		m := OFMsg{Type: OFFlowMod, Command: FlowModAdd, Priority: 10,
			Match: Match{TunnelID: U64(7)}, Actions: []Action{{Type: ActionOutput, Port: 2}}}
		wire = m.Encode(nil)
		return wire, len(wire) - 16 // the output action closes the message
	}
	for _, tc := range []struct {
		name  string
		patch func(b []byte, out int)
	}{
		{"of-set-field-action", func(b []byte, out int) {
			// OFPAT_SET_FIELD carrying a 1-byte IP DSCP OXM, padded to 16.
			copy(b[out:], []byte{0, 25, 0, 16, 0x80, 0, 8 << 1, 1, 0xb8, 0, 0, 0, 0, 0, 0, 0})
		}},
		{"of-table-id", func(b []byte, _ int) { b[8+16] = 1 }},
		{"of-idle-timeout", func(b []byte, _ int) { b[8+18+1] = 30 }},
		{"of-hard-timeout", func(b []byte, _ int) { b[8+20+1] = 60 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire, out := flowMod()
			var ok OFMsg
			if _, err := ok.Decode(wire); err != nil {
				t.Fatal(err)
			}
			tc.patch(wire, out)
			var got OFMsg
			if _, err := got.Decode(wire); err == nil {
				t.Errorf("decoded %+v", got)
			}
		})
	}

	t.Run("of-udp-dst-match", func(t *testing.T) {
		// A PortStatus whose match holds one OXM, UDP destination port
		// 7000, padded to 8.
		wire := []byte{0x04, byte(OFPortStatus), 0, 32, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}
		wire = append(wire, 0, 1, 0, 10, 0x80, 0, 16<<1, 2, 0x1b, 0x58, 0, 0, 0, 0, 0, 0)
		var got OFMsg
		if _, err := got.Decode(wire); err == nil {
			t.Errorf("decoded %+v", got)
		}
	})

	t.Run("of-flow-removed", func(t *testing.T) {
		// Header, cookie, priority, reason, table, 24 bytes of durations,
		// timeouts and counters, then an empty OXM match padded to 8.
		wire := []byte{0x04, 11, 0, 52, 0, 0, 0, 1}
		wire = append(wire, make([]byte, 8+2+2+24)...)
		wire = append(wire, 0, 1, 0, 4, 0, 0, 0, 0)
		var got OFMsg
		if _, err := got.Decode(wire); err == nil {
			t.Errorf("decoded %+v", got)
		}
	})
}
