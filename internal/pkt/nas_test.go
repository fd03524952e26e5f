package pkt

import (
	"reflect"
	"testing"
)

func TestNASAttachRequestRoundTrip(t *testing.T) {
	orig := NASMsg{
		Type: NASAttachRequest,
		IMSI: "001010123456789",
		ESM: &NASMsg{
			Type: NASActivateDefaultBearerRequest,
			EBI:  0, APN: "acacia.mec",
		},
	}
	b := orig.Encode(nil)
	var got NASMsg
	n, err := got.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Errorf("consumed %d of %d", n, len(b))
	}
	if got.IMSI != orig.IMSI {
		t.Errorf("IMSI = %q", got.IMSI)
	}
	if got.ESM == nil || got.ESM.APN != "acacia.mec" {
		t.Errorf("ESM = %+v", got.ESM)
	}
}

func TestNASAttachAcceptCarriesAddress(t *testing.T) {
	orig := NASMsg{
		Type: NASAttachAccept,
		ESM: &NASMsg{
			Type: NASActivateDefaultBearerRequest,
			EBI:  5, APN: "internet",
			UEIP: AddrFrom(172, 16, 0, 2),
			QoS:  &BearerQoS{QCI: QCIDefault, ARP: 9},
		},
	}
	var got NASMsg
	if _, err := got.Decode(orig.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if got.ESM == nil {
		t.Fatal("no ESM container")
	}
	if got.ESM.UEIP != AddrFrom(172, 16, 0, 2) {
		t.Errorf("UE IP = %v", got.ESM.UEIP)
	}
	if got.ESM.EBI != 5 || got.ESM.QoS == nil || got.ESM.QoS.QCI != QCIDefault {
		t.Errorf("ESM = %+v", got.ESM)
	}
}

func TestNASDedicatedBearerCarriesTFT(t *testing.T) {
	tft := DedicatedBearerTFT(AddrFrom(10, 3, 0, 10))
	orig := NASMsg{
		Type:      NASActivateDedicatedBearerRequest,
		EBI:       6,
		LinkedEBI: 5,
		QoS:       &BearerQoS{QCI: QCIMEC, ARP: 2},
		TFT:       &tft,
	}
	b := orig.Encode(nil)
	var got NASMsg
	if _, err := got.Decode(b); err != nil {
		t.Fatal(err)
	}
	if got.EBI != 6 || got.LinkedEBI != 5 {
		t.Errorf("EBIs = %d/%d", got.EBI, got.LinkedEBI)
	}
	if got.QoS == nil || got.QoS.QCI != QCIMEC {
		t.Errorf("QoS = %+v", got.QoS)
	}
	if got.TFT == nil || !reflect.DeepEqual(*got.TFT, tft) {
		t.Errorf("TFT = %+v", got.TFT)
	}
	// The modem can classify straight off the decoded TFT.
	flow := FiveTuple{Src: AddrFrom(172, 16, 0, 2), Dst: AddrFrom(10, 3, 0, 10), Proto: ProtoTCP}
	if !got.TFT.MatchUplink(flow, 0) {
		t.Error("decoded TFT does not classify CI traffic")
	}
}

func TestNASSimpleMessages(t *testing.T) {
	for _, typ := range []uint8{NASAttachComplete, NASServiceRequest} {
		orig := NASMsg{Type: typ}
		var got NASMsg
		if _, err := got.Decode(orig.Encode(nil)); err != nil {
			t.Fatalf("type 0x%02x: %v", typ, err)
		}
		if got.Type != typ {
			t.Errorf("type = 0x%02x", got.Type)
		}
	}
	det := NASMsg{Type: NASDetachRequest, IMSI: "00101987654321"}
	var got NASMsg
	if _, err := got.Decode(det.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if got.IMSI != det.IMSI {
		t.Errorf("IMSI = %q", got.IMSI)
	}
}

func TestNASServiceRequestIsTiny(t *testing.T) {
	// Service requests are the most frequent NAS message; the real one is
	// 4 octets and ours must stay in that class.
	b := (&NASMsg{Type: NASServiceRequest}).Encode(nil)
	if len(b) != 4 {
		t.Errorf("service request = %d bytes, want 4", len(b))
	}
}

func TestNASDecodeTruncated(t *testing.T) {
	tft := DedicatedBearerTFT(AddrFrom(1, 2, 3, 4))
	msgs := []NASMsg{
		{Type: NASAttachRequest, IMSI: "001017", ESM: &NASMsg{Type: NASActivateDefaultBearerRequest, APN: "x"}},
		{Type: NASActivateDedicatedBearerRequest, EBI: 6, LinkedEBI: 5, QoS: &BearerQoS{QCI: 5}, TFT: &tft},
	}
	for _, m := range msgs {
		b := m.Encode(nil)
		for n := 1; n < len(b); n++ {
			var got NASMsg
			if _, err := got.Decode(b[:n]); err == nil {
				t.Errorf("type 0x%02x: %d-byte prefix decoded", m.Type, n)
			}
		}
	}
}

func TestNASUnknownTypeRejected(t *testing.T) {
	var got NASMsg
	if _, err := got.Decode([]byte{nasPDEMM, 0x99, 0, 0}); err == nil {
		t.Error("unknown NAS type accepted")
	}
}

func TestNASServiceAcceptRoundTrip(t *testing.T) {
	b := (&NASMsg{Type: NASServiceAccept}).Encode(nil)
	if len(b) != 2 {
		t.Errorf("service accept = %d bytes, want 2", len(b))
	}
	var got NASMsg
	if _, err := got.Decode(b); err != nil {
		t.Fatal(err)
	}
	if got.Type != NASServiceAccept {
		t.Errorf("type = 0x%02x", got.Type)
	}
}

// TestDecodeIntoReusedStorage decodes a TFT of three filters and then one
// of one filter into the same TFT, and likewise a sequence of NAS messages
// into one NASMsg: every result must equal a fresh decode of its bytes,
// with no filter, QoS or ESM container left over from the one before.
func TestDecodeIntoReusedStorage(t *testing.T) {
	three := sampleTFT()
	three.Filters = append(three.Filters, PacketFilter{ID: 3, Direction: DirDownlink, Precedence: 1, RemoteAddr: AddrFrom(10, 0, 0, 0), RemoteMask: Addr{255}})
	one := TFT{Op: TFTOpCreateNew, Filters: []PacketFilter{{ID: 1, Direction: DirUplink, Precedence: 9}}}
	if len(three.Filters) != 3 {
		t.Fatalf("the three-filter TFT has %d filters", len(three.Filters))
	}
	var tft TFT
	for _, src := range []TFT{three, one} {
		b := src.Encode(nil)
		var fresh TFT
		if _, err := fresh.Decode(b); err != nil {
			t.Fatal(err)
		}
		if _, err := tft.Decode(b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tft, fresh) {
			t.Errorf("decode into reused TFT = %+v, fresh = %+v", tft, fresh)
		}
	}

	def := &BearerQoS{QCI: QCIDefault, ARP: 9}
	msgs := []NASMsg{
		{Type: NASActivateDedicatedBearerRequest, EBI: 6, LinkedEBI: 5, QoS: def, TFT: &three},
		{Type: NASActivateDedicatedBearerRequest, EBI: 7, LinkedEBI: 5, QoS: &BearerQoS{QCI: QCIMEC, ARP: 2}, TFT: &one},
		{Type: NASAttachAccept, ESM: &NASMsg{Type: NASActivateDefaultBearerRequest, EBI: 5, APN: "internet", UEIP: AddrFrom(172, 16, 0, 2), QoS: def}},
		{Type: NASAttachRequest, IMSI: "001010123456789", ESM: &NASMsg{Type: NASActivateDefaultBearerRequest, APN: "acacia.mec"}},
		{Type: NASServiceRequest},
		{Type: NASActivateDedicatedBearerRequest, EBI: 6, LinkedEBI: 5, QoS: def, TFT: &three},
	}
	var m NASMsg
	for i, src := range msgs {
		b := src.Encode(nil)
		var fresh NASMsg
		if _, err := fresh.Decode(b); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Decode(b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, fresh) {
			t.Errorf("message %d: decode into reused NASMsg = %+v, fresh = %+v", i, m, fresh)
		}
	}
}
