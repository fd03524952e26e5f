package pkt

import "fmt"

// OpenFlow-style messages between the SDN controller (the testbed's Ryu
// analog) and the GW-U switches (the OVS analogs). The encoding follows
// OpenFlow 1.3 framing: an 8-byte header, a 40-byte flow-mod body, an OXM
// TLV match padded to 8 bytes, and instruction/action lists padded to 8
// bytes. The GTP encap/decap capability is expressed the way the testbed's
// extended OVS does it — a tunnel-metadata set-field plus output to a GTP
// logical port.

// OFMsgType is the OpenFlow message type.
type OFMsgType uint8

// Message types used by the testbed (OpenFlow 1.3 numbering).
const (
	OFHello      OFMsgType = 0
	OFPacketIn   OFMsgType = 10
	OFPortStatus OFMsgType = 12
	OFFlowMod    OFMsgType = 14
)

var ofMsgTypeNames = [...]string{OFHello: "Hello", OFPacketIn: "PacketIn", OFPortStatus: "PortStatus", OFFlowMod: "FlowMod"}

// String names the message type.
func (t OFMsgType) String() string {
	if uint(t) < uint(len(ofMsgTypeNames)) && ofMsgTypeNames[t] != "" {
		return ofMsgTypeNames[t]
	}
	return fmt.Sprintf("OFMsgType(%d)", uint8(t))
}

// FlowMod commands.
const (
	FlowModAdd    = 0
	FlowModDelete = 3
)

// OXM match field identifiers (OpenFlow 1.3 OFB numbering; TunnelID is the
// field the GTP extension uses for the TEID).
const (
	OXMInPort   = 0
	OXMIPv4Src  = 11
	OXMIPv4Dst  = 12
	OXMTunnelID = 38
)

// oxmWidth is each known OXM field's value length in bytes; zero marks an
// identifier the testbed does not use.
var oxmWidth = [...]uint8{OXMInPort: 4, OXMIPv4Src: 4, OXMIPv4Dst: 4, OXMTunnelID: 8}

// Opt is one optional match field: a value and whether it is set. The zero
// Opt is the wildcard, and only the constructors below build a set one, so
// an unset field always holds the zero value and two fields are equal
// exactly when == says so.
type Opt[T comparable] struct {
	v   T
	set bool
}

// Get returns the field's value and whether it is set.
func (o Opt[T]) Get() (T, bool) { return o.v, o.set }

// Match is the set of OXM fields a flow entry matches on; unset fields are
// wildcards. It is a comparable value (no pointers): == is field-for-field
// equality and a Match can key a map. It holds the TEID and address
// matches an LTE gateway's flow rules use, 40 bytes.
type Match struct {
	TunnelID Opt[uint64] // GTP TEID carried in tunnel metadata
	InPort   Opt[uint32]
	IPv4Src  Opt[Addr]
	IPv4Dst  Opt[Addr]
}

// U32 returns a set 32-bit match field, a convenience for building matches.
func U32(v uint32) Opt[uint32] { return Opt[uint32]{v, true} }

// U64 returns a set 64-bit match field.
func U64(v uint64) Opt[uint64] { return Opt[uint64]{v, true} }

// AddrPtr returns a set address match field.
func AddrPtr(a Addr) Opt[Addr] { return Opt[Addr]{a, true} }

// Matches reports whether a packet view satisfies every set field.
func (m *Match) Matches(inPort uint32, ft FiveTuple, tunnelID uint64) bool {
	return (!m.InPort.set || m.InPort.v == inPort) &&
		(!m.IPv4Src.set || m.IPv4Src.v == ft.Src) &&
		(!m.IPv4Dst.set || m.IPv4Dst.v == ft.Dst) &&
		(!m.TunnelID.set || m.TunnelID.v == tunnelID)
}

// SpecificityScore counts set fields; used to order overlapping entries of
// equal priority deterministically.
func (m *Match) SpecificityScore() int {
	n := 0
	for _, set := range [...]bool{m.InPort.set, m.IPv4Src.set, m.IPv4Dst.set, m.TunnelID.set} {
		if set {
			n++
		}
	}
	return n
}

func (m *Match) encode(b []byte) []byte {
	start := len(b)
	b = putU16(b, 1) // OFPMT_OXM
	b = putU16(b, 0) // length placeholder
	oxm := func(field uint8, v uint64, set bool) {
		if !set {
			return
		}
		b = putU16(b, 0x8000) // OFPXMC_OPENFLOW_BASIC
		b = append(b, field<<1, oxmWidth[field])
		for shift := 8 * int(oxmWidth[field]); shift > 0; shift -= 8 {
			b = append(b, byte(v>>(shift-8)))
		}
	}
	oxm(OXMInPort, uint64(m.InPort.v), m.InPort.set)
	oxm(OXMIPv4Src, uint64(m.IPv4Src.v.Uint32()), m.IPv4Src.set)
	oxm(OXMIPv4Dst, uint64(m.IPv4Dst.v.Uint32()), m.IPv4Dst.set)
	oxm(OXMTunnelID, m.TunnelID.v, m.TunnelID.set)
	mlen := len(b) - start
	b[start+2] = byte(mlen >> 8)
	b[start+3] = byte(mlen)
	// Pad to 8-byte boundary as OpenFlow requires.
	for (len(b)-start)%8 != 0 {
		b = append(b, 0)
	}
	return b
}

func (m *Match) decode(r *reader) error {
	start := r.off
	typ, err := r.u16()
	if err != nil {
		return err
	}
	if typ != 1 {
		return fmt.Errorf("pkt: OpenFlow match type %d, want OXM", typ)
	}
	mlen, err := r.u16()
	if err != nil {
		return err
	}
	end := start + int(mlen)
	for r.off < end {
		if _, err := r.u16(); err != nil { // OXM class
			return err
		}
		fieldHM, err := r.u8()
		if err != nil {
			return err
		}
		vlen, err := r.u8()
		if err != nil {
			return err
		}
		field := fieldHM >> 1
		if int(field) >= len(oxmWidth) || oxmWidth[field] == 0 {
			return fmt.Errorf("pkt: unknown OXM field %d", field)
		}
		if vlen != oxmWidth[field] {
			return fmt.Errorf("pkt: OXM field %d carries %d bytes, want %d", field, vlen, oxmWidth[field])
		}
		val, err := r.bytes(int(vlen))
		if err != nil {
			return err
		}
		var v uint64
		for _, c := range val {
			v = v<<8 | uint64(c)
		}
		switch field {
		case OXMInPort:
			m.InPort = U32(uint32(v))
		case OXMIPv4Src:
			m.IPv4Src = AddrPtr(AddrFromUint32(uint32(v)))
		case OXMIPv4Dst:
			m.IPv4Dst = AddrPtr(AddrFromUint32(uint32(v)))
		case OXMTunnelID:
			m.TunnelID = U64(v)
		}
	}
	// Consume padding to the 8-byte boundary.
	for (r.off-start)%8 != 0 {
		if _, err := r.u8(); err != nil {
			return err
		}
	}
	return nil
}

// ActionType identifies a flow action.
type ActionType uint8

// Actions supported by the testbed's extended OVS.
const (
	// ActionOutput forwards to a switch port; GTP logical ports perform
	// encapsulation on output and decapsulation on input.
	ActionOutput ActionType = iota + 1
	// ActionSetTunnel sets the tunnel metadata (TEID + remote endpoint)
	// consumed by a subsequent output to a GTP logical port.
	ActionSetTunnel
	// ActionDrop discards the packet (encoded as an empty action list in
	// real OpenFlow; explicit here for clarity).
	ActionDrop
)

// Action is one flow-entry action.
type Action struct {
	Type      ActionType
	Port      uint32 // ActionOutput
	TunnelID  uint64 // ActionSetTunnel: GTP TEID
	TunnelDst Addr   // ActionSetTunnel: remote GTP endpoint
}

func (a *Action) encode(b []byte) []byte {
	switch a.Type {
	case ActionOutput:
		// OFPAT_OUTPUT: type(2) len(2) port(4) max_len(2) pad(6) = 16.
		b = putU16(b, 0)
		b = putU16(b, 16)
		b = putU32(b, a.Port)
		b = putU16(b, 0xffff)
		return append(b, 0, 0, 0, 0, 0, 0)
	case ActionSetTunnel:
		// Experimenter action: type(2)=0xffff len(2) exp_id(4) subtype(2)
		// pad(2) tunnel_id(8) dst(4) pad(4) = 24.
		b = putU16(b, 0xffff)
		b = putU16(b, 24)
		b = putU32(b, 0x00002320) // Nicira experimenter id, as OVS uses
		b = putU16(b, 1)          // subtype: set GTP tunnel
		b = append(b, 0, 0)
		v := a.TunnelID
		b = append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
		return append(b, a.TunnelDst[:]...)
	case ActionDrop:
		// Encoded as an experimenter no-op so the list length reflects it.
		b = putU16(b, 0xffff)
		b = putU16(b, 8)
		return putU32(b, 0)
	default:
		panic(fmt.Sprintf("pkt: unknown action type %d", a.Type))
	}
}

func decodeAction(r *reader) (Action, error) {
	var a Action
	typ, err := r.u16()
	if err != nil {
		return a, err
	}
	alen, err := r.u16()
	if err != nil {
		return a, err
	}
	body, err := r.bytes(int(alen) - 4)
	if err != nil {
		return a, err
	}
	// The declared length must cover what the type's fields are read from;
	// alen is wire data and may be shorter than the encoder ever writes.
	need := 0
	switch {
	case typ == 0:
		need = 4 // port
	case typ == 0xffff && alen != 8:
		need = 20 // experimenter header + tunnel id + dst
	}
	if len(body) < need {
		return a, fmt.Errorf("%w: action type %d has %d body bytes, needs %d", ErrTruncated, typ, len(body), need)
	}
	switch typ {
	case 0:
		a.Type = ActionOutput
		a.Port = be.Uint32(body[:4])
	case 0xffff:
		if alen == 8 {
			a.Type = ActionDrop
			return a, nil
		}
		a.Type = ActionSetTunnel
		a.TunnelID = be.Uint64(body[8:16])
		copy(a.TunnelDst[:], body[16:20])
	default:
		return a, fmt.Errorf("pkt: unknown action type %d", typ)
	}
	return a, nil
}

// OFMsg is one controller<->switch message.
type OFMsg struct {
	Type OFMsgType
	XID  uint32

	// FlowMod fields. Every flow lives in table 0 and is permanent: the
	// table id and the idle and hard timeouts are encoded as zero.
	Command  uint8
	Priority uint16
	Cookie   uint64
	Match    Match
	Actions  []Action

	// PacketIn fields.
	BufferID uint32
	DataLen  uint16 // bytes of packet data carried
	Reason   uint8
}

// Encode appends the message to b.
func (m *OFMsg) Encode(b []byte) []byte {
	start := len(b)
	b = append(b, 0x04, byte(m.Type)) // OpenFlow 1.3
	b = putU16(b, 0)                  // length placeholder
	b = putU32(b, m.XID)
	switch m.Type {
	case OFFlowMod:
		// cookie(8) cookie_mask(8) table(1) cmd(1) idle(2) hard(2) prio(2)
		// buffer(4) out_port(4) out_group(4) flags(2) pad(2) = 40.
		b = be.AppendUint64(b, m.Cookie)
		b = putU32(b, 0xffffffff)
		b = putU32(b, 0xffffffff)
		b = append(b, 0, m.Command) // table 0
		b = putU32(b, 0)            // idle and hard timeouts: permanent
		b = putU16(b, m.Priority)
		b = putU32(b, 0xffffffff) // OFP_NO_BUFFER
		b = putU32(b, 0xffffffff) // out_port any
		b = putU32(b, 0xffffffff) // out_group any
		b = putU16(b, 1)          // OFPFF_SEND_FLOW_REM
		b = putU16(b, 0)          // pad
		b = m.Match.encode(b)
		// One OFPIT_APPLY_ACTIONS instruction wrapping the action list.
		istart := len(b)
		b = putU16(b, 4) // OFPIT_APPLY_ACTIONS
		b = putU16(b, 0) // length placeholder
		b = putU32(b, 0) // pad
		for i := range m.Actions {
			b = m.Actions[i].encode(b)
		}
		ilen := len(b) - istart
		b[istart+2] = byte(ilen >> 8)
		b[istart+3] = byte(ilen)
	case OFPacketIn:
		b = putU32(b, m.BufferID)
		b = putU16(b, m.DataLen)
		b = append(b, m.Reason, 0) // table 0
		b = be.AppendUint64(b, m.Cookie)
		b = m.Match.encode(b)
		b = putU16(b, 0) // pad
		b = append(b, make([]byte, m.DataLen)...)
	case OFHello:
		// Header only.
	case OFPortStatus:
		// reason(1) + pad(7), then the affected path carried in the match
		// (GTP path supervision identifies "ports" by peer address).
		b = append(b, m.Reason)
		b = append(b, make([]byte, 7)...)
		b = m.Match.encode(b)
	default:
		panic(fmt.Sprintf("pkt: cannot encode OpenFlow type %v", m.Type))
	}
	total := len(b) - start
	b[start+2] = byte(total >> 8)
	b[start+3] = byte(total)
	return b
}

// Decode parses a message from the front of b.
func (m *OFMsg) Decode(b []byte) (int, error) {
	r := &reader{b: b}
	ver, err := r.u8()
	if err != nil {
		return 0, err
	}
	if ver != 0x04 {
		return 0, fmt.Errorf("pkt: OpenFlow version 0x%02x unsupported", ver)
	}
	typ, err := r.u8()
	if err != nil {
		return 0, err
	}
	m.Type = OFMsgType(typ)
	total, err := r.u16()
	if err != nil {
		return 0, err
	}
	if len(b) < int(total) {
		return 0, fmt.Errorf("%w: OpenFlow declares %d bytes, %d present", ErrTruncated, total, len(b))
	}
	if m.XID, err = r.u32(); err != nil {
		return 0, err
	}
	switch m.Type {
	case OFFlowMod:
		cookie, err := r.bytes(8)
		if err != nil {
			return 0, err
		}
		m.Cookie = be.Uint64(cookie)
		if _, err := r.bytes(8); err != nil { // cookie mask
			return 0, err
		}
		if err := r.zero(1); err != nil { // table
			return 0, err
		}
		if m.Command, err = r.u8(); err != nil {
			return 0, err
		}
		if err := r.zero(4); err != nil { // idle and hard timeouts
			return 0, err
		}
		if m.Priority, err = r.u16(); err != nil {
			return 0, err
		}
		if _, err := r.bytes(16); err != nil { // buffer, out port/group, flags, pad
			return 0, err
		}
		m.Match = Match{}
		if err := m.Match.decode(r); err != nil {
			return 0, err
		}
		m.Actions = nil
		for r.off < int(total) {
			if _, err := r.u16(); err != nil { // instruction type
				return 0, err
			}
			ilen, err := r.u16()
			if err != nil {
				return 0, err
			}
			if _, err := r.u32(); err != nil { // pad
				return 0, err
			}
			iend := r.off + int(ilen) - 8
			for r.off < iend {
				a, err := decodeAction(r)
				if err != nil {
					return 0, err
				}
				m.Actions = append(m.Actions, a)
			}
		}
	case OFPacketIn:
		if m.BufferID, err = r.u32(); err != nil {
			return 0, err
		}
		if m.DataLen, err = r.u16(); err != nil {
			return 0, err
		}
		if m.Reason, err = r.u8(); err != nil {
			return 0, err
		}
		if err := r.zero(1); err != nil { // table
			return 0, err
		}
		cookie, err := r.bytes(8)
		if err != nil {
			return 0, err
		}
		m.Cookie = be.Uint64(cookie)
		m.Match = Match{}
		if err := m.Match.decode(r); err != nil {
			return 0, err
		}
		if _, err := r.u16(); err != nil {
			return 0, err
		}
		if _, err := r.bytes(int(m.DataLen)); err != nil {
			return 0, err
		}
	case OFHello:
		// Header only.
	case OFPortStatus:
		if m.Reason, err = r.u8(); err != nil {
			return 0, err
		}
		if _, err := r.bytes(7); err != nil {
			return 0, err
		}
		m.Match = Match{}
		if err := m.Match.decode(r); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("pkt: cannot decode OpenFlow type %d", typ)
	}
	return int(total), nil
}
