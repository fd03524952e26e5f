package pkt

import (
	"reflect"
	"testing"
	"testing/quick"
)

func sampleS1AP() S1APMsg {
	tft := DedicatedBearerTFT(AddrFrom(10, 20, 0, 9))
	return S1APMsg{
		Procedure: S1APERABSetupRequest,
		ENBUEID:   17,
		MMEUEID:   170001,
		NAS:       []byte("nas-pdu-content-for-roundtrip-test-x42"),
		ERABs: []ERABItem{{
			ERABID:    6,
			QoS:       &BearerQoS{QCI: QCIMEC, ARP: 2},
			Transport: FTEID{IfaceType: FTEIDIfaceS1USGW, TEID: 0x5001, Addr: AddrFrom(10, 20, 0, 1)},
			TFT:       &tft,
		}},
	}
}

func TestS1APRoundTrip(t *testing.T) {
	orig := sampleS1AP()
	b := orig.Encode(nil)
	var got S1APMsg
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

func TestS1APReleaseMessages(t *testing.T) {
	for _, proc := range []S1APProcedure{
		S1APUEContextReleaseRequest, S1APUEContextReleaseCommand, S1APUEContextReleaseComplete,
	} {
		orig := S1APMsg{Procedure: proc, ENBUEID: 3, MMEUEID: 9, Cause: 20}
		b := orig.Encode(nil)
		var got S1APMsg
		if _, err := got.Decode(b); err != nil {
			t.Fatalf("%v: %v", proc, err)
		}
		if got.Procedure != proc || got.Cause != 20 {
			t.Errorf("%v: got %+v", proc, got)
		}
	}
}

func TestS1APChecksumDetectsCorruption(t *testing.T) {
	msg := sampleS1AP()
	b := msg.Encode(nil)
	b[len(b)-1] ^= 0xff
	var got S1APMsg
	if _, err := got.Decode(b); err == nil {
		t.Error("decode accepted corrupted S1AP payload")
	}
}

// crc32cBitwise is the bit-at-a-time CRC-32C the codec used before it moved
// to hash/crc32, kept as the reference the table-driven form must equal.
func crc32cBitwise(b []byte) uint32 {
	crc := ^uint32(0)
	for _, x := range b {
		crc ^= uint32(x)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0x82f63b78
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

// TestCRC32CMatchesReference pins the SCTP checksum: the standard CRC-32C
// check value, and bit-for-bit agreement with the reference loop on
// arbitrary inputs (the §4 byte tables and every S1AP frame depend on it).
func TestCRC32CMatchesReference(t *testing.T) {
	if got := crc32c([]byte("123456789")); got != 0xE3069283 {
		t.Errorf("crc32c(\"123456789\") = %#x, want 0xE3069283", got)
	}
	if got := crc32c(nil); got != crc32cBitwise(nil) {
		t.Errorf("crc32c(nil) = %#x, want %#x", got, crc32cBitwise(nil))
	}
	same := func(b []byte) bool { return crc32c(b) == crc32cBitwise(b) }
	if err := quick.Check(same, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestS1APSCTPFraming(t *testing.T) {
	const commonHeaderLen = 12
	msg := S1APMsg{Procedure: S1APInitialUEMessage, ENBUEID: 1, NAS: make([]byte, 80)}
	b := msg.Encode(nil)
	if framing := commonHeaderLen + SCTPDataChunkLen; len(b) <= framing {
		t.Fatalf("message %d bytes, need more than framing %d", len(b), framing)
	}
	// Chunk length field covers chunk header + payload.
	chunkLen := int(be.Uint16(b[commonHeaderLen+2:]))
	if chunkLen != len(b)-commonHeaderLen {
		t.Errorf("chunk length %d, want %d", chunkLen, len(b)-commonHeaderLen)
	}
}

func TestS1APNASPayloadPreserved(t *testing.T) {
	f := func(nas []byte) bool {
		if len(nas) > 1024 {
			nas = nas[:1024]
		}
		orig := S1APMsg{Procedure: S1APDownlinkNASTransport, ENBUEID: 2, MMEUEID: 4, NAS: nas}
		var got S1APMsg
		if _, err := got.Decode(orig.Encode(nil)); err != nil {
			return false
		}
		if len(nas) == 0 {
			return len(got.NAS) == 0
		}
		return string(got.NAS) == string(nas)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestS1APProcedureString(t *testing.T) {
	if S1APERABSetupRequest.String() != "E-RABSetupRequest" {
		t.Errorf("String() = %q", S1APERABSetupRequest.String())
	}
	if S1APProcedure(99).String() == "" {
		t.Error("unknown procedure produced empty string")
	}
}

func sampleFlowMod() OFMsg {
	return OFMsg{
		Type:     OFFlowMod,
		XID:      77,
		Command:  FlowModAdd,
		Priority: 100,
		Cookie:   0xacac1a,
		Match: Match{
			InPort:   U32(1),
			IPv4Src:  AddrPtr(AddrFrom(172, 16, 0, 9)),
			IPv4Dst:  AddrPtr(AddrFrom(10, 20, 0, 9)),
			TunnelID: U64(0x5001),
		},
		Actions: []Action{
			{Type: ActionSetTunnel, TunnelID: 0x6001, TunnelDst: AddrFrom(10, 20, 0, 2)},
			{Type: ActionOutput, Port: 2},
		},
	}
}

func TestOpenFlowFlowModRoundTrip(t *testing.T) {
	orig := sampleFlowMod()
	b := orig.Encode(nil)
	var got OFMsg
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

func TestOpenFlowPacketInRoundTrip(t *testing.T) {
	orig := OFMsg{
		Type: OFPacketIn, XID: 3, BufferID: 0xffffffff, DataLen: 128,
		Reason: 0, Cookie: 5,
		Match: Match{InPort: U32(4), TunnelID: U64(9)},
	}
	b := orig.Encode(nil)
	var got OFMsg
	if _, err := got.Decode(b); err != nil {
		t.Fatal(err)
	}
	if got.DataLen != 128 || got.Match != orig.Match {
		t.Errorf("got %+v", got)
	}
}

func TestOpenFlowHeaderOnlyMessages(t *testing.T) {
	orig := OFMsg{Type: OFHello, XID: 9}
	b := orig.Encode(nil)
	if len(b) != 8 { // the OpenFlow header alone
		t.Errorf("Hello: encoded %d bytes, want 8", len(b))
	}
	var got OFMsg
	if _, err := got.Decode(b); err != nil {
		t.Errorf("Hello: %v", err)
	}
}

func TestOpenFlowMatchSemantics(t *testing.T) {
	m := Match{
		IPv4Dst:  AddrPtr(AddrFrom(10, 0, 0, 1)),
		TunnelID: U64(42),
	}
	ft := FiveTuple{Src: AddrFrom(1, 1, 1, 1), Dst: AddrFrom(10, 0, 0, 1), Proto: ProtoUDP}
	if !m.Matches(3, ft, 42) {
		t.Error("match failed on conforming packet")
	}
	if m.Matches(3, ft, 43) {
		t.Error("match succeeded with wrong tunnel id")
	}
	ft2 := ft
	ft2.Dst = AddrFrom(10, 0, 0, 2)
	if m.Matches(3, ft2, 42) {
		t.Error("match succeeded with wrong destination")
	}
	var wild Match
	if !wild.Matches(1, ft, 0) {
		t.Error("empty match (wildcard) did not match")
	}
}

func TestOpenFlowSpecificity(t *testing.T) {
	if (&Match{}).SpecificityScore() != 0 {
		t.Error("empty match specificity not 0")
	}
	m := sampleFlowMod().Match
	if m.SpecificityScore() != 4 {
		t.Errorf("specificity = %d, want 4", m.SpecificityScore())
	}
}

func TestOpenFlowEncodingIs8ByteAligned(t *testing.T) {
	fm := sampleFlowMod()
	b := fm.Encode(nil)
	if len(b)%8 != 0 {
		t.Errorf("FlowMod length %d not 8-byte aligned", len(b))
	}
}

func TestOpenFlowDecodeTruncated(t *testing.T) {
	fm := sampleFlowMod()
	b := fm.Encode(nil)
	for n := 1; n < len(b); n++ {
		var got OFMsg
		if _, err := got.Decode(b[:n]); err == nil {
			t.Errorf("decode of %d-byte prefix succeeded", n)
		}
	}
}

// TestOpenFlowMatchIsComparableValue pins what the switch's index relies on:
// equal field sets compare equal with ==, any differing field or presence
// does not, a decoded match equals the one encoded, and
// building or decoding a match allocates nothing.
func TestOpenFlowMatchIsComparableValue(t *testing.T) {
	a := Match{TunnelID: U64(7), IPv4Dst: AddrPtr(AddrFrom(1, 2, 3, 4))}
	b := Match{IPv4Dst: AddrPtr(AddrFrom(1, 2, 3, 4)), TunnelID: U64(7)}
	if a != b {
		t.Error("equal matches compare unequal")
	}
	for _, other := range []Match{
		{TunnelID: U64(8), IPv4Dst: AddrPtr(AddrFrom(1, 2, 3, 4))}, // value
		{TunnelID: U64(7)}, // presence
		{TunnelID: U64(7), IPv4Dst: AddrPtr(AddrFrom(1, 2, 3, 4)), InPort: U32(0)}, // set to zero
		{TunnelID: U64(7), IPv4Src: AddrPtr(AddrFrom(1, 2, 3, 4))},                 // field
	} {
		if a == other {
			t.Errorf("differing matches compare equal: %+v", other)
		}
	}
	if v, ok := a.TunnelID.Get(); !ok || v != 7 {
		t.Errorf("TunnelID.Get() = %d, %v", v, ok)
	}
	if v, ok := a.InPort.Get(); ok || v != 0 {
		t.Errorf("unset InPort.Get() = %d, %v", v, ok)
	}
	msg := OFMsg{Type: OFPortStatus, Match: a}
	wire := msg.Encode(nil)
	var got OFMsg
	allocs := testing.AllocsPerRun(100, func() {
		got = OFMsg{}
		if _, err := got.Decode(wire); err != nil {
			t.Fatal(err)
		}
	})
	if got.Match != a {
		t.Errorf("decoded %+v, want %+v", got.Match, a)
	}
	if allocs > 1 { // the reader
		t.Errorf("decoding a match allocates %.0f objects", allocs)
	}
}

// TestOpenFlowMatchRejectsWrongWidth: an OXM TLV whose length octet
// disagrees with its field's width is an error, never a short read.
func TestOpenFlowMatchRejectsWrongWidth(t *testing.T) {
	msg := OFMsg{Type: OFPortStatus, Match: Match{TunnelID: U64(7)}}
	wire := msg.Encode(nil)
	// header(8) reason+pad(8) match type/len(4) oxm class(2) field(1) -> length octet
	const lenOff = 8 + 8 + 4 + 2 + 1
	if wire[lenOff] != 8 {
		t.Fatalf("length octet = %d, layout assumption broken", wire[lenOff])
	}
	for _, vlen := range []byte{0, 1, 4, 7} {
		bad := append([]byte{}, wire...)
		bad[lenOff] = vlen
		var got OFMsg
		if _, err := got.Decode(bad); err == nil {
			t.Errorf("TunnelID with a %d-byte value decoded", vlen)
		}
	}
}

func TestQCITable(t *testing.T) {
	for q := QCI(1); q <= 9; q++ {
		if p := q.Priority(); p < 1 || p > 9 {
			t.Errorf("QCI %d has priority %d, want a table entry in 1..9", q, p)
		}
	}
	if QCI(42).Priority() != 10 {
		t.Error("QCI 42 is not unknown at the lowest priority")
	}
	if QCIMEC.Priority() >= QCIDefault.Priority() {
		t.Error("MEC QCI must have stricter priority than default")
	}
	// Priorities are unique per the standard table.
	seen := map[int]QCI{}
	for q := QCI(1); q <= 9; q++ {
		p := q.Priority()
		if other, dup := seen[p]; dup {
			t.Errorf("QCIs %d and %d share priority %d", q, other, p)
		}
		seen[p] = q
	}
}
