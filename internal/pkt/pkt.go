// Package pkt implements the wire encodings used by the ACACIA testbed:
// IPv4/UDP headers, the GTP-U user-plane tunneling header, GTPv2-C control
// messages, S1AP-style control messages carried over an SCTP-like transport,
// an OpenFlow-style switch-programming protocol, 3GPP traffic flow templates
// (TFTs), and the QCI QoS class table.
//
// The design follows the layered encode/decode style of gopacket: each layer
// type knows how to serialize itself to bytes and decode itself from bytes,
// and decoding never panics on malformed input — it returns an error with the
// offending offset. Byte counts produced here feed the paper's §4 control
// overhead accounting, so encodings use realistic header and IE framing.
package pkt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated reports input shorter than a header or declared length field.
var ErrTruncated = errors.New("pkt: truncated input")

// be is the byte order used by every encoding in this package (network
// order, as on the wire).
var be = binary.BigEndian

// reader is a bounds-checked cursor over a byte slice used by decoders.
type reader struct {
	b   []byte
	off int
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) u8() (byte, error) {
	if r.remaining() < 1 {
		return 0, fmt.Errorf("%w at offset %d", ErrTruncated, r.off)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if r.remaining() < 2 {
		return 0, fmt.Errorf("%w at offset %d", ErrTruncated, r.off)
	}
	v := be.Uint16(r.b[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("%w at offset %d", ErrTruncated, r.off)
	}
	v := be.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("%w: need %d bytes at offset %d", ErrTruncated, n, r.off)
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v, nil
}

// zero consumes n bytes that the codec writes as zero (a field the testbed
// never sets) and rejects any other value.
func (r *reader) zero(n int) error {
	v, err := r.bytes(n)
	if err != nil {
		return err
	}
	for _, c := range v {
		if c != 0 {
			return fmt.Errorf("pkt: non-zero byte 0x%02x at offset %d, where the testbed writes zero", c, r.off-n)
		}
	}
	return nil
}

func putU16(b []byte, v uint16) []byte {
	return append(b, byte(v>>8), byte(v))
}

func putU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Addr is a 4-byte network address (IPv4-style). Addresses identify nodes in
// the simulated network and appear inside F-TEID and TFT encodings.
type Addr [4]byte

// AddrFrom builds an address from four octets.
func AddrFrom(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

// AddrFromUint32 builds an address from its 32-bit big-endian value.
func AddrFromUint32(v uint32) Addr {
	return Addr{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// Uint32 reports the address as a 32-bit big-endian value.
func (a Addr) Uint32() uint32 { return be.Uint32(a[:]) }

// IsZero reports whether a is the zero address.
func (a Addr) IsZero() bool { return a == Addr{} }

// String formats the address in dotted-quad notation.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// FiveTuple identifies a flow: the classification key for TFT packet filters
// and SDN flow-table matches.
type FiveTuple struct {
	Src, Dst         Addr
	SrcPort, DstPort uint16
	Proto            uint8
}

// Protocol numbers used by the testbed.
const (
	ProtoTCP  = 6
	ProtoUDP  = 17
	ProtoICMP = 1
)

// Reverse returns the tuple with endpoints swapped (the downlink view of an
// uplink flow).
func (f FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		Src: f.Dst, Dst: f.Src,
		SrcPort: f.DstPort, DstPort: f.SrcPort,
		Proto: f.Proto,
	}
}

// String formats the tuple as src:port->dst:port/proto.
func (f FiveTuple) String() string {
	return fmt.Sprintf("%v:%d->%v:%d/%d", f.Src, f.SrcPort, f.Dst, f.DstPort, f.Proto)
}
