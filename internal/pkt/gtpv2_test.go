package pkt

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestGTPv2CreateSessionRoundTrip(t *testing.T) {
	qos := &BearerQoS{QCI: QCIDefault, ARP: 9}
	orig := GTPv2Msg{
		Type:        GTPv2CreateSessionRequest,
		TEID:        0,
		Seq:         0x000102,
		IMSI:        "001010123456789",
		SenderFTEID: &FTEID{IfaceType: FTEIDIfaceS5SGW, TEID: 0x1000, Addr: AddrFrom(10, 0, 1, 1)},
		Bearers: []BearerContext{{
			EBI:    5,
			QoS:    qos,
			FTEIDs: []FTEID{{IfaceType: FTEIDIfaceS1USGW, TEID: 0x2000, Addr: AddrFrom(10, 0, 1, 2)}},
		}},
	}
	b := orig.Encode(nil)
	var got GTPv2Msg
	n, err := got.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Errorf("decode consumed %d of %d", n, len(b))
	}
	if !reflect.DeepEqual(got, orig) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, orig)
	}
}

func TestGTPv2CreateBearerWithTFTRoundTrip(t *testing.T) {
	tft := DedicatedBearerTFT(AddrFrom(10, 20, 0, 9))
	orig := GTPv2Msg{
		Type: GTPv2CreateBearerRequest,
		TEID: 0xabc,
		Seq:  7,
		Bearers: []BearerContext{{
			EBI: 6,
			TFT: &tft,
			QoS: &BearerQoS{QCI: QCIMEC, ARP: 2},
			FTEIDs: []FTEID{
				{IfaceType: FTEIDIfaceS1USGW, TEID: 0x111, Addr: AddrFrom(10, 20, 0, 1)},
				{IfaceType: FTEIDIfaceS5PGW, TEID: 0x222, Addr: AddrFrom(10, 20, 0, 2)},
			},
		}},
	}
	b := orig.Encode(nil)
	var got GTPv2Msg
	if _, err := got.Decode(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, orig)
	}
	if got.Bearers[0].QoS.QCI != QCIMEC {
		t.Errorf("QCI = %d, want %d", got.Bearers[0].QoS.QCI, QCIMEC)
	}
}

func TestGTPv2ResponseWithCause(t *testing.T) {
	orig := GTPv2Msg{
		Type:    GTPv2CreateBearerResponse,
		TEID:    1,
		Seq:     7,
		Cause:   GTPv2CauseAccepted,
		Bearers: []BearerContext{{EBI: 6, Cause: GTPv2CauseAccepted}},
	}
	b := orig.Encode(nil)
	var got GTPv2Msg
	if _, err := got.Decode(b); err != nil {
		t.Fatal(err)
	}
	if got.Cause != GTPv2CauseAccepted || got.Bearers[0].Cause != GTPv2CauseAccepted {
		t.Errorf("causes: msg=%d bearer=%d", got.Cause, got.Bearers[0].Cause)
	}
}

func TestGTPv2PAARoundTrip(t *testing.T) {
	orig := GTPv2Msg{
		Type: GTPv2CreateSessionResponse,
		TEID: 5, Seq: 9,
		Cause: GTPv2CauseAccepted,
		PAA:   AddrFrom(172, 16, 0, 42),
	}
	b := orig.Encode(nil)
	var got GTPv2Msg
	if _, err := got.Decode(b); err != nil {
		t.Fatal(err)
	}
	if got.PAA != orig.PAA {
		t.Errorf("PAA = %v, want %v", got.PAA, orig.PAA)
	}
}

func TestGTPv2SeqIs24Bit(t *testing.T) {
	orig := GTPv2Msg{Type: GTPv2DeleteBearerRequest, Seq: 0x01ffffff}
	b := orig.Encode(nil)
	var got GTPv2Msg
	if _, err := got.Decode(b); err != nil {
		t.Fatal(err)
	}
	if got.Seq != 0x00ffffff {
		t.Errorf("Seq = %#x, want 24-bit truncation 0x00ffffff", got.Seq)
	}
}

func TestGTPv2RejectsWrongVersion(t *testing.T) {
	b := (&GTPv2Msg{Type: GTPv2DeleteBearerRequest}).Encode(nil)
	b[0] = 0x30 // version 1
	var got GTPv2Msg
	if _, err := got.Decode(b); err == nil {
		t.Error("accepted GTPv1 flags in GTPv2 decoder")
	}
}

func TestGTPv2DecodeTruncated(t *testing.T) {
	tft := DedicatedBearerTFT(AddrFrom(1, 2, 3, 4))
	msg := GTPv2Msg{
		Type: GTPv2CreateBearerRequest, Seq: 1,
		Bearers: []BearerContext{{EBI: 6, TFT: &tft, QoS: &BearerQoS{QCI: 5, ARP: 1}}},
	}
	b := msg.Encode(nil)
	for n := 1; n < len(b); n++ {
		var got GTPv2Msg
		if _, err := got.Decode(b[:n]); err == nil {
			t.Errorf("decode of %d-byte prefix succeeded (len %d)", n, len(b))
		}
	}
}

func TestTBCDRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		// Build a digit string from the fuzz input.
		digits := make([]byte, 0, len(raw)%16)
		for _, r := range raw {
			digits = append(digits, '0'+r%10)
			if len(digits) == 15 {
				break
			}
		}
		s := string(digits)
		return decodeTBCD(appendTBCD(nil, s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFTEIDRoundTrip(t *testing.T) {
	f := func(iface uint8, teid uint32, addr [4]byte) bool {
		orig := FTEID{IfaceType: iface & 0x3f, TEID: teid, Addr: Addr(addr)}
		var got FTEID
		if err := got.decode(orig.encode(nil)); err != nil {
			return false
		}
		return got == orig
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBearerQoSRoundTrip(t *testing.T) {
	orig := BearerQoS{QCI: QCIMEC, ARP: 3}
	b := orig.encode(nil)
	if len(b) != 22 {
		t.Errorf("Bearer QoS IE payload %d bytes, want 22", len(b))
	}
	for i, c := range b[2:] {
		if c != 0 {
			t.Errorf("bit-rate byte %d = %#x, want 0 (non-GBR)", i, c)
		}
	}
	var got BearerQoS
	if err := got.decode(b); err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Errorf("round trip: got %+v, want %+v", got, orig)
	}
}

func TestGTPv2MsgTypeString(t *testing.T) {
	if GTPv2CreateBearerRequest.String() != "CreateBearerRequest" {
		t.Errorf("String() = %q", GTPv2CreateBearerRequest.String())
	}
	if GTPv2MsgType(250).String() == "" {
		t.Error("unknown type produced empty string")
	}
}
