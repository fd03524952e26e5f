package pkt

import "fmt"

// GTPUPort is the standard UDP port for GTP-U (user plane).
const GTPUPort = 2152

// GTPULen is the mandatory GTP-U header length (no optional fields).
const GTPULen = 8

// GTPU is the GTPv1-U tunneling header that carries user traffic on the
// S1 (eNB<->SGW-U) and S5 (SGW-U<->PGW-U) bearers. Each bearer direction is
// identified by its Tunnel Endpoint Identifier (TEID), allocated by the
// receiving endpoint.
type GTPU struct {
	MsgType uint8  // GTPUMsgGPDU for user data
	Length  uint16 // payload length after the 8-byte header
	TEID    uint32
}

// GTPUMsgGPDU is the GTP-U message type of user data, the only one the
// testbed sends.
const GTPUMsgGPDU = 255

// Encode appends the header to b.
func (g *GTPU) Encode(b []byte) []byte {
	// Version 1, protocol type GTP (1), no extension/sequence/N-PDU flags.
	b = append(b, 0x30, g.MsgType)
	b = putU16(b, g.Length)
	return putU32(b, g.TEID)
}

// Decode parses the header from the front of b.
func (g *GTPU) Decode(b []byte) (int, error) {
	r := &reader{b: b}
	flags, err := r.u8()
	if err != nil {
		return 0, err
	}
	if flags>>5 != 1 {
		return 0, fmt.Errorf("pkt: GTP-U version %d unsupported", flags>>5)
	}
	if flags&0x10 == 0 {
		return 0, fmt.Errorf("pkt: GTP-U protocol type GTP' unsupported")
	}
	if flags&0x07 != 0 {
		return 0, fmt.Errorf("pkt: GTP-U optional fields unsupported (flags 0x%02x)", flags)
	}
	if g.MsgType, err = r.u8(); err != nil {
		return 0, err
	}
	if g.Length, err = r.u16(); err != nil {
		return 0, err
	}
	if g.TEID, err = r.u32(); err != nil {
		return 0, err
	}
	return r.off, nil
}

// AppendGPDU appends the outer G-PDU encapsulation headers (IPv4 + UDP +
// GTP-U, GTPUOverhead bytes) for a user packet of innerLen bytes tunneled
// between two gateway addresses to b and returns the extended slice; the
// caller accounts for innerLen separately. With a caller-owned scratch buffer of
// sufficient capacity (b[:0] reuse), the encap path performs zero
// allocations.
//
//acacia:hotpath
func AppendGPDU(b []byte, src, dst Addr, teid uint32, innerLen int) []byte {
	g := GTPU{MsgType: GTPUMsgGPDU, Length: uint16(innerLen), TEID: teid}
	u := UDP{SrcPort: GTPUPort, DstPort: GTPUPort, Length: uint16(UDPLen + GTPULen + innerLen)}
	ip := IPv4{
		TotalLen: uint16(IPv4Len + UDPLen + GTPULen + innerLen),
		Proto:    ProtoUDP,
		Src:      src, Dst: dst,
	}
	b = ip.Encode(b)
	b = u.Encode(b)
	return g.Encode(b)
}

// GTPUOverhead is the per-packet byte overhead of GTP-U encapsulation
// (outer IPv4 + UDP + GTP-U), the quantity that middlebox-based MEC
// approaches must strip and ACACIA's gateways add/remove in the fast path.
const GTPUOverhead = IPv4Len + UDPLen + GTPULen

// DecapsulateGPDU parses the outer headers from b and returns the tunnel
// TEID and the inner packet bytes.
func DecapsulateGPDU(b []byte) (teid uint32, inner []byte, err error) {
	var ip IPv4
	n, err := ip.Decode(b)
	if err != nil {
		return 0, nil, err
	}
	if ip.Proto != ProtoUDP {
		return 0, nil, fmt.Errorf("pkt: GTP-U outer protocol %d, want UDP", ip.Proto)
	}
	var u UDP
	m, err := u.Decode(b[n:])
	if err != nil {
		return 0, nil, err
	}
	if u.DstPort != GTPUPort {
		return 0, nil, fmt.Errorf("pkt: GTP-U outer dst port %d, want %d", u.DstPort, GTPUPort)
	}
	var g GTPU
	k, err := g.Decode(b[n+m:])
	if err != nil {
		return 0, nil, err
	}
	if g.MsgType != GTPUMsgGPDU {
		return 0, nil, fmt.Errorf("pkt: GTP-U message type %d, want G-PDU", g.MsgType)
	}
	off := n + m + k
	if len(b)-off < int(g.Length) {
		return 0, nil, fmt.Errorf("%w: G-PDU declares %d payload bytes, %d present", ErrTruncated, g.Length, len(b)-off)
	}
	return g.TEID, b[off : off+int(g.Length)], nil
}
