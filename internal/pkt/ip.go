package pkt

import "fmt"

// IPv4Len and UDPLen are the fixed header lengths used by the simulated
// data plane (no IPv4 options).
const (
	IPv4Len = 20
	UDPLen  = 8
)

// IPv4 is a 20-byte option-less IPv4 header. Only the fields the testbed
// sets are modeled: encode writes TOS 0, ID 0 and TTL 64 and decode reads
// past them; checksum is computed on encode and verified on decode.
type IPv4 struct {
	TotalLen uint16
	Proto    uint8
	Src, Dst Addr
}

// ipv4TTL is the TTL every encoded header carries.
const ipv4TTL = 64

// Encode appends the header to b.
func (h *IPv4) Encode(b []byte) []byte {
	start := len(b)
	b = append(b, 0x45, 0) // version 4, IHL 5; TOS
	b = putU16(b, h.TotalLen)
	b = putU16(b, 0) // ID
	b = putU16(b, 0) // flags/fragment offset: unfragmented
	b = append(b, ipv4TTL, h.Proto)
	b = putU16(b, 0) // checksum placeholder
	b = append(b, h.Src[:]...)
	b = append(b, h.Dst[:]...)
	cs := ipChecksum(b[start : start+IPv4Len])
	b[start+10] = byte(cs >> 8)
	b[start+11] = byte(cs)
	return b
}

// Decode parses the header from the front of b.
func (h *IPv4) Decode(b []byte) (int, error) {
	r := &reader{b: b}
	vihl, err := r.u8()
	if err != nil {
		return 0, err
	}
	if vihl != 0x45 {
		return 0, fmt.Errorf("pkt: unsupported IPv4 version/IHL 0x%02x", vihl)
	}
	if _, err = r.u8(); err != nil { // TOS
		return 0, err
	}
	if h.TotalLen, err = r.u16(); err != nil {
		return 0, err
	}
	if _, err = r.bytes(5); err != nil { // ID, flags/frag, TTL
		return 0, err
	}
	if h.Proto, err = r.u8(); err != nil {
		return 0, err
	}
	if _, err = r.u16(); err != nil { // checksum
		return 0, err
	}
	var src, dst []byte
	if src, err = r.bytes(4); err != nil {
		return 0, err
	}
	if dst, err = r.bytes(4); err != nil {
		return 0, err
	}
	copy(h.Src[:], src)
	copy(h.Dst[:], dst)
	if ipChecksum(b[:IPv4Len]) != 0 {
		return 0, fmt.Errorf("pkt: bad IPv4 checksum")
	}
	return r.off, nil
}

// ipChecksum computes the RFC 1071 ones-complement checksum over hdr.
// Over a header with a correct checksum field the result is 0.
func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(hdr[i])<<8 | uint32(hdr[i+1])
	}
	if len(hdr)%2 == 1 {
		sum += uint32(hdr[len(hdr)-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// UDP is an 8-byte UDP header. The checksum is left zero (legal for IPv4 and
// what GTP-U deployments commonly do).
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16 // header + payload
}

// Encode appends the header to b.
func (u *UDP) Encode(b []byte) []byte {
	b = putU16(b, u.SrcPort)
	b = putU16(b, u.DstPort)
	b = putU16(b, u.Length)
	return putU16(b, 0)
}

// Decode parses the header from the front of b.
func (u *UDP) Decode(b []byte) (int, error) {
	r := &reader{b: b}
	var err error
	if u.SrcPort, err = r.u16(); err != nil {
		return 0, err
	}
	if u.DstPort, err = r.u16(); err != nil {
		return 0, err
	}
	if u.Length, err = r.u16(); err != nil {
		return 0, err
	}
	if _, err = r.u16(); err != nil {
		return 0, err
	}
	if u.Length < UDPLen {
		return 0, fmt.Errorf("pkt: UDP length %d shorter than header", u.Length)
	}
	return r.off, nil
}
