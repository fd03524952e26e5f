package pkt

import "fmt"

// TFT is a 3GPP TS 24.008 Traffic Flow Template: an ordered set of packet
// filters that binds traffic to a bearer. The UE's modem evaluates uplink
// TFTs to pick the radio bearer for each outgoing packet; the PGW evaluates
// downlink TFTs. This is the mechanism ACACIA uses to classify MEC traffic
// at the source without any in-network inspection.
type TFT struct {
	// Op is the TFT operation code.
	Op TFTOp
	// Filters are held in evaluation order: increasing precedence value
	// (lower value = higher precedence). Decode establishes it once; a TFT
	// built in code lists its filters that way. Matching never reorders
	// them, so one TFT can be shared by many sessions.
	Filters []PacketFilter
}

// TFTOp is the TS 24.008 TFT operation code.
type TFTOp uint8

// TFTOpCreateNew is the TS 24.008 §10.5.6.12 operation code of a new TFT,
// the only operation the testbed signals.
const TFTOpCreateNew TFTOp = 1

// FilterDirection says which traffic direction a packet filter applies to.
type FilterDirection uint8

// Packet filter directions (TS 24.008 pre-release-7 combined with direction
// bits used since).
const (
	DirDownlink      FilterDirection = 1
	DirUplink        FilterDirection = 2
	DirBidirectional FilterDirection = 3
)

// PacketFilter is one TFT packet filter: the remote address/mask component
// ACACIA's uplink filter toward the CI server carries. A zero address and
// mask means the component is absent (a wildcard), as on the wire.
type PacketFilter struct {
	ID         uint8 // 0..15
	Direction  FilterDirection
	Precedence uint8 // lower = evaluated first

	RemoteAddr Addr
	RemoteMask Addr
}

// pfcIPv4RemoteAddr is the IPv4 remote address component type (TS 24.008
// table 10.5.162), the one component the testbed signals.
const pfcIPv4RemoteAddr = 0x10

// MatchUplink reports whether an uplink packet with the given five-tuple
// matches the filter. For uplink traffic the "remote" end is the
// destination.
func (p *PacketFilter) MatchUplink(ft FiveTuple) bool {
	if p.Direction == DirDownlink {
		return false
	}
	for i := 0; i < 4; i++ {
		if ft.Dst[i]&p.RemoteMask[i] != p.RemoteAddr[i]&p.RemoteMask[i] {
			return false
		}
	}
	return true
}

// MatchUplink evaluates the TFT's filters in order against an uplink packet
// and reports whether any filter matched. No filter matches on the TOS
// byte.
func (t *TFT) MatchUplink(ft FiveTuple, tos uint8) bool {
	for i := range t.Filters {
		if t.Filters[i].MatchUplink(ft) {
			return true
		}
	}
	return false
}

// Encode appends the TS 24.008-style TFT encoding to b: one octet of
// opcode + filter count, then each filter as id, direction+precedence, a
// length octet and its component list.
//
//acacia:hotpath
func (t *TFT) Encode(b []byte) []byte {
	if len(t.Filters) > 15 {
		panicTFTOverflow()
	}
	b = append(b, byte(t.Op)<<5|byte(len(t.Filters)))
	for i := range t.Filters {
		f := &t.Filters[i]
		b = append(b, f.Direction.encodeWithID(f.ID), f.Precedence)
		// Component list appended in place behind a 1-octet length backfill.
		b = append(b, 0)
		pos := len(b)
		b = f.encodeComponents(b)
		b[pos-1] = byte(len(b) - pos)
	}
	return b
}

// panicTFTOverflow is noinline so the boxed panic message stays out of
// Encode's escape profile.
//
//go:noinline
func panicTFTOverflow() {
	panic("pkt: TFT holds at most 15 packet filters")
}

func (d FilterDirection) encodeWithID(id uint8) byte {
	return byte(d)<<4 | id&0x0f
}

func (p *PacketFilter) encodeComponents(b []byte) []byte {
	if !p.RemoteAddr.IsZero() || !p.RemoteMask.IsZero() {
		b = append(b, pfcIPv4RemoteAddr)
		b = append(b, p.RemoteAddr[:]...)
		b = append(b, p.RemoteMask[:]...)
	}
	return b
}

// Decode parses a TFT from the front of b. It reuses t's filter backing
// when that holds the filter count, so decoding into the same TFT again
// allocates nothing.
func (t *TFT) Decode(b []byte) (int, error) {
	r := &reader{b: b}
	head, err := r.u8()
	if err != nil {
		return 0, err
	}
	t.Op = TFTOp(head >> 5)
	n := int(head & 0x0f)
	if cap(t.Filters) < n {
		t.Filters = make([]PacketFilter, 0, n)
	}
	t.Filters = t.Filters[:0]
	for i := 0; i < n; i++ {
		var f PacketFilter
		idDir, err := r.u8()
		if err != nil {
			return 0, err
		}
		f.ID = idDir & 0x0f
		f.Direction = FilterDirection(idDir >> 4)
		if f.Precedence, err = r.u8(); err != nil {
			return 0, err
		}
		clen, err := r.u8()
		if err != nil {
			return 0, err
		}
		comps, err := r.bytes(int(clen))
		if err != nil {
			return 0, err
		}
		if err := f.decodeComponents(comps); err != nil {
			return 0, fmt.Errorf("pkt: TFT filter %d: %w", i, err)
		}
		// Stable insertion by precedence: the wire lists filters in any
		// order, the decoded TFT holds them in evaluation order.
		j := len(t.Filters)
		t.Filters = append(t.Filters, f)
		for ; j > 0 && t.Filters[j-1].Precedence > f.Precedence; j-- {
			t.Filters[j] = t.Filters[j-1]
		}
		t.Filters[j] = f
	}
	return r.off, nil
}

func (p *PacketFilter) decodeComponents(b []byte) error {
	r := &reader{b: b}
	for r.remaining() > 0 {
		typ, err := r.u8()
		if err != nil {
			return err
		}
		if typ != pfcIPv4RemoteAddr {
			return fmt.Errorf("unknown packet filter component 0x%02x", typ)
		}
		raw, err := r.bytes(8)
		if err != nil {
			return err
		}
		copy(p.RemoteAddr[:], raw[:4])
		copy(p.RemoteMask[:], raw[4:])
	}
	return nil
}

// DedicatedBearerTFT builds the uplink TFT ACACIA installs for a CI
// application: all traffic to the CI server's address (any port, any
// protocol) rides the dedicated bearer.
func DedicatedBearerTFT(ciServer Addr) TFT {
	return TFT{
		Op: TFTOpCreateNew,
		Filters: []PacketFilter{{
			ID:         1,
			Direction:  DirBidirectional,
			Precedence: 0,
			RemoteAddr: ciServer,
			RemoteMask: Addr{255, 255, 255, 255},
		}},
	}
}
