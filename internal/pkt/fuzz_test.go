package pkt

import (
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
