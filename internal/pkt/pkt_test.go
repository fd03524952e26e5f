package pkt

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAddrString(t *testing.T) {
	a := AddrFrom(10, 0, 3, 7)
	if got := a.String(); got != "10.0.3.7" {
		t.Errorf("String() = %q, want 10.0.3.7", got)
	}
	if a.IsZero() {
		t.Error("non-zero address reported zero")
	}
	if (Addr{}).IsZero() == false {
		t.Error("zero address not reported zero")
	}
}

func TestAddrUint32RoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		return AddrFromUint32(v).Uint32() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFiveTupleReverse(t *testing.T) {
	ft := FiveTuple{
		Src: AddrFrom(1, 2, 3, 4), Dst: AddrFrom(5, 6, 7, 8),
		SrcPort: 1111, DstPort: 2222, Proto: ProtoTCP,
	}
	rev := ft.Reverse()
	if rev.Src != ft.Dst || rev.Dst != ft.Src || rev.SrcPort != ft.DstPort || rev.DstPort != ft.SrcPort {
		t.Errorf("Reverse() = %v", rev)
	}
	if rev.Reverse() != ft {
		t.Error("double reverse is not the identity")
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	h := IPv4{
		TotalLen: 1500,
		Proto:    ProtoUDP,
		Src:      AddrFrom(192, 168, 1, 10),
		Dst:      AddrFrom(10, 9, 8, 7),
	}
	b := h.Encode(nil)
	if len(b) != IPv4Len {
		t.Fatalf("encoded length %d, want %d", len(b), IPv4Len)
	}
	var got IPv4
	n, err := got.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != IPv4Len {
		t.Errorf("decode consumed %d, want %d", n, IPv4Len)
	}
	if got != h {
		t.Errorf("round trip: got %+v, want %+v", got, h)
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	h := IPv4{TotalLen: 100, Proto: ProtoTCP, Src: AddrFrom(1, 1, 1, 1), Dst: AddrFrom(2, 2, 2, 2)}
	b := h.Encode(nil)
	b[16] ^= 0x40 // corrupt destination address
	var got IPv4
	if _, err := got.Decode(b); err == nil {
		t.Error("decode accepted corrupted header")
	}
}

func TestIPv4DefaultTTL(t *testing.T) {
	h := IPv4{TotalLen: 40, Proto: ProtoTCP, Src: AddrFrom(1, 0, 0, 1), Dst: AddrFrom(1, 0, 0, 2)}
	b := h.Encode(nil)
	if b[1] != 0 || b[4] != 0 || b[5] != 0 || b[8] != 64 {
		t.Errorf("TOS, ID, TTL = %d, %d, %d; want 0, 0, 64", b[1], uint16(b[4])<<8|uint16(b[5]), b[8])
	}
	var got IPv4
	if _, err := got.Decode(b); err != nil {
		t.Fatal(err)
	}
}

func TestIPv4TruncatedInput(t *testing.T) {
	h := IPv4{TotalLen: 40, Src: AddrFrom(1, 0, 0, 1), Dst: AddrFrom(1, 0, 0, 2)}
	b := h.Encode(nil)
	for n := 0; n < IPv4Len; n++ {
		var got IPv4
		if _, err := got.Decode(b[:n]); err == nil {
			t.Errorf("decode of %d-byte prefix succeeded", n)
		}
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := UDP{SrcPort: 2152, DstPort: 2152, Length: 508}
	b := u.Encode(nil)
	if len(b) != UDPLen {
		t.Fatalf("encoded length %d, want %d", len(b), UDPLen)
	}
	var got UDP
	if _, err := got.Decode(b); err != nil {
		t.Fatal(err)
	}
	if got != u {
		t.Errorf("round trip: got %+v, want %+v", got, u)
	}
}

func TestUDPRejectsShortLength(t *testing.T) {
	u := UDP{SrcPort: 1, DstPort: 2, Length: 4} // shorter than the header itself
	b := u.Encode(nil)
	var got UDP
	if _, err := got.Decode(b); err == nil {
		t.Error("decode accepted UDP length shorter than header")
	}
}

func TestGTPURoundTrip(t *testing.T) {
	f := func(msgType uint8, length uint16, teid uint32) bool {
		g := GTPU{MsgType: msgType, Length: length, TEID: teid}
		b := g.Encode(nil)
		if len(b) != GTPULen {
			return false
		}
		var got GTPU
		n, err := got.Decode(b)
		return err == nil && n == GTPULen && got == g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncapsulateDecapsulateGPDU(t *testing.T) {
	src, dst := AddrFrom(10, 0, 0, 1), AddrFrom(10, 0, 0, 2)
	const teid = 0xdeadbeef
	inner := []byte("user packet payload, 28 bytes!!!")
	outer := AppendGPDU(nil, src, dst, teid, len(inner))
	if len(outer) != GTPUOverhead {
		t.Fatalf("outer headers %d bytes, want %d", len(outer), GTPUOverhead)
	}
	full := append(append([]byte{}, outer...), inner...)
	gotTEID, gotInner, err := DecapsulateGPDU(full)
	if err != nil {
		t.Fatal(err)
	}
	if gotTEID != teid {
		t.Errorf("TEID = %#x, want %#x", gotTEID, teid)
	}
	if !bytes.Equal(gotInner, inner) {
		t.Errorf("inner = %q, want %q", gotInner, inner)
	}
}

func TestDecapsulateRejectsNonGTP(t *testing.T) {
	// A plain UDP packet to another port must not decapsulate.
	ip := IPv4{TotalLen: IPv4Len + UDPLen, Proto: ProtoUDP, Src: AddrFrom(1, 1, 1, 1), Dst: AddrFrom(2, 2, 2, 2)}
	u := UDP{SrcPort: 53, DstPort: 53, Length: UDPLen}
	b := u.Encode(ip.Encode(nil))
	if _, _, err := DecapsulateGPDU(b); err == nil {
		t.Error("decapsulated a non-GTP packet")
	}
}

func TestDecapsulateTruncatedPayload(t *testing.T) {
	outer := AppendGPDU(nil, AddrFrom(1, 0, 0, 1), AddrFrom(1, 0, 0, 2), 7, 100)
	// Claimed 100 payload bytes but none present.
	if _, _, err := DecapsulateGPDU(outer); err == nil {
		t.Error("accepted truncated G-PDU")
	}
}

func TestGTPURejectsWrongVersion(t *testing.T) {
	g := GTPU{MsgType: GTPUMsgGPDU, TEID: 1}
	b := g.Encode(nil)
	b[0] = 0x50 // version 2
	var got GTPU
	if _, err := got.Decode(b); err == nil {
		t.Error("accepted GTP version 2 header in GTP-U decoder")
	}
}
