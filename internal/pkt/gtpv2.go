package pkt

import "fmt"

// GTPv2-C: the control-plane protocol on S11 (MME<->SGW-C) and S5/S8
// (SGW-C<->PGW-C). The testbed exchanges these messages to create the
// default bearer at attach, to activate the network-initiated dedicated MEC
// bearer, and to release/re-establish bearers around LTE idle transitions.
// Encodings use the real TS 29.274 framing (12-byte header with TEID, 4-byte
// TLIV IE headers) so the §4 control-overhead byte accounting is measured
// from actual serialized messages.

// GTPv2 message types (TS 29.274 §6.1).
type GTPv2MsgType uint8

// Message types used by the testbed.
const (
	GTPv2CreateSessionRequest         GTPv2MsgType = 32
	GTPv2CreateSessionResponse        GTPv2MsgType = 33
	GTPv2ModifyBearerRequest          GTPv2MsgType = 34
	GTPv2ModifyBearerResponse         GTPv2MsgType = 35
	GTPv2DeleteSessionRequest         GTPv2MsgType = 36
	GTPv2DeleteSessionResponse        GTPv2MsgType = 37
	GTPv2CreateBearerRequest          GTPv2MsgType = 95
	GTPv2CreateBearerResponse         GTPv2MsgType = 96
	GTPv2DeleteBearerRequest          GTPv2MsgType = 99
	GTPv2DeleteBearerResponse         GTPv2MsgType = 100
	GTPv2ReleaseAccessBearersRequest  GTPv2MsgType = 170
	GTPv2ReleaseAccessBearersResponse GTPv2MsgType = 171
)

var gtpv2Names = [256]string{ // by any uint8, so no bounds check
	GTPv2CreateSessionRequest: "CreateSessionRequest", GTPv2CreateSessionResponse: "CreateSessionResponse",
	GTPv2ModifyBearerRequest: "ModifyBearerRequest", GTPv2ModifyBearerResponse: "ModifyBearerResponse",
	GTPv2DeleteSessionRequest: "DeleteSessionRequest", GTPv2DeleteSessionResponse: "DeleteSessionResponse",
	GTPv2CreateBearerRequest: "CreateBearerRequest", GTPv2CreateBearerResponse: "CreateBearerResponse",
	GTPv2DeleteBearerRequest: "DeleteBearerRequest", GTPv2DeleteBearerResponse: "DeleteBearerResponse",
	GTPv2ReleaseAccessBearersRequest: "ReleaseAccessBearersRequest", GTPv2ReleaseAccessBearersResponse: "ReleaseAccessBearersResponse",
}

// String names the message type.
func (t GTPv2MsgType) String() string {
	if s := gtpv2Names[t]; s != "" {
		return s
	}
	return unknownName("GTPv2MsgType", uint8(t))
}

// GTPv2 IE type codes (TS 29.274 §8.1 subset).
const (
	ieIMSI          = 1
	ieCause         = 2
	ieEBI           = 73
	ieBearerTFT     = 84
	ieBearerQoS     = 80
	ieFTEID         = 87
	ieBearerContext = 93
	iePAA           = 79 // PDN address allocation (UE IP)
)

// FTEID is a fully qualified tunnel endpoint identifier: the (interface
// type, TEID, address) triple that tells a peer gateway where to send
// tunneled traffic. ACACIA's pivotal trick is that the SGW-C/PGW-C place
// *local* (edge) GW-U addresses here for dedicated bearers, steering MEC
// traffic to the edge without any eNB or protocol changes.
type FTEID struct {
	IfaceType uint8 // TS 29.274 interface type (e.g. 0=S1-U eNB, 1=S1-U SGW, 4=S5 SGW, 5=S5 PGW)
	TEID      uint32
	Addr      Addr
}

// F-TEID interface types used by the testbed.
const (
	FTEIDIfaceS1UeNodeB = 0
	FTEIDIfaceS1USGW    = 1
	FTEIDIfaceS5SGW     = 4
	FTEIDIfaceS5PGW     = 5
)

func (f *FTEID) encode(b []byte) []byte {
	b = append(b, 0x80|f.IfaceType&0x3f) // V4 flag + interface type
	b = putU32(b, f.TEID)
	return append(b, f.Addr[:]...)
}

func (f *FTEID) decode(b []byte) error {
	r := &reader{b: b}
	head, err := r.u8()
	if err != nil {
		return err
	}
	if head&0x80 == 0 {
		return fmt.Errorf("pkt: F-TEID without IPv4 address")
	}
	f.IfaceType = head & 0x3f
	if f.TEID, err = r.u32(); err != nil {
		return err
	}
	raw, err := r.bytes(4)
	if err != nil {
		return err
	}
	copy(f.Addr[:], raw)
	return nil
}

// BearerContext groups the per-bearer IEs inside bearer-related messages.
type BearerContext struct {
	EBI    uint8 // EPS bearer ID 5..15
	TFT    *TFT
	QoS    *BearerQoS
	FTEIDs []FTEID
	Cause  uint8 // present in responses
}

// GTPv2Cause values.
const (
	GTPv2CauseAccepted = 16
	GTPv2CauseDenied   = 65
)

// GTPv2Msg is one GTPv2-C message: header fields plus the IEs the testbed
// uses. Unset optional fields are omitted from the encoding.
type GTPv2Msg struct {
	Type GTPv2MsgType
	TEID uint32 // header TEID: the receiver's control TEID
	Seq  uint32 // 24-bit sequence number
	IMSI string // digits; identifies the UE in session-level messages
	// IMSIs carries the additional cohort members of a batched session
	// procedure (each encoded as its own IMSI IE after the primary). Empty
	// for single-UE messages, whose wire bytes are unchanged.
	IMSIs       []string
	Cause       uint8
	PAA         Addr // UE IP address assigned by the PGW
	SenderFTEID *FTEID
	Bearers     []BearerContext
}

// Encode appends the full message to b. Every IE — including nested encodes
// like the bearer context's TFT — is appended in place with a length
// backfill, so encoding into a reused scratch buffer allocates nothing.
//
//acacia:hotpath
func (m *GTPv2Msg) Encode(b []byte) []byte {
	start := len(b)
	b = append(b, 0x48, byte(m.Type)) // version 2, TEID flag set
	b = putU16(b, 0)                  // length placeholder
	b = putU32(b, m.TEID)
	b = append(b, byte(m.Seq>>16), byte(m.Seq>>8), byte(m.Seq), 0)

	if m.IMSI != "" {
		var ie int
		b, ie = beginIE(b, ieIMSI)
		b = appendTBCD(b, m.IMSI)
		b = endIE(b, ie)
	}
	for _, imsi := range m.IMSIs {
		var ie int
		b, ie = beginIE(b, ieIMSI)
		b = appendTBCD(b, imsi)
		b = endIE(b, ie)
	}
	if m.Cause != 0 {
		b = append(b, ieCause, 0, 2, 0, m.Cause, 0)
	}
	if !m.PAA.IsZero() {
		var ie int
		b, ie = beginIE(b, iePAA)
		b = append(b, 0x01) // PDN type IPv4
		b = append(b, m.PAA[:]...)
		b = endIE(b, ie)
	}
	if m.SenderFTEID != nil {
		var ie int
		b, ie = beginIE(b, ieFTEID)
		b = m.SenderFTEID.encode(b)
		b = endIE(b, ie)
	}
	for i := range m.Bearers {
		var ie int
		b, ie = beginIE(b, ieBearerContext)
		b = m.Bearers[i].encode(b)
		b = endIE(b, ie)
	}

	// Length counts everything after the first 4 header octets.
	msgLen := len(b) - start - 4
	b[start+2] = byte(msgLen >> 8)
	b[start+3] = byte(msgLen)
	return b
}

//acacia:hotpath
func (bc *BearerContext) encode(b []byte) []byte {
	b = append(b, ieEBI, 0, 1, 0, bc.EBI&0x0f)
	if bc.Cause != 0 {
		b = append(b, ieCause, 0, 2, 0, bc.Cause, 0)
	}
	if bc.TFT != nil {
		var ie int
		b, ie = beginIE(b, ieBearerTFT)
		b = bc.TFT.Encode(b)
		b = endIE(b, ie)
	}
	if bc.QoS != nil {
		var ie int
		b, ie = beginIE(b, ieBearerQoS)
		b = bc.QoS.encode(b)
		b = endIE(b, ie)
	}
	for i := range bc.FTEIDs {
		var ie int
		b, ie = beginIE(b, ieFTEID)
		b = bc.FTEIDs[i].encode(b)
		b = endIE(b, ie)
	}
	return b
}

// beginIE opens a TS 29.274 TLIV IE: type, 2-byte length placeholder,
// spare/instance octet. It returns the position endIE uses to backfill the
// length once the payload has been appended in place.
//
//acacia:hotpath
func beginIE(b []byte, typ uint8) ([]byte, int) {
	b = append(b, typ, 0, 0, 0)
	return b, len(b)
}

// endIE backfills the length of the IE opened at start.
//
//acacia:hotpath
func endIE(b []byte, start int) []byte {
	n := len(b) - start
	b[start-3] = byte(n >> 8)
	b[start-2] = byte(n)
	return b
}

// Decode parses a message from the front of b.
func (m *GTPv2Msg) Decode(b []byte) (int, error) {
	r := &reader{b: b}
	flags, err := r.u8()
	if err != nil {
		return 0, err
	}
	if flags>>5 != 2 {
		return 0, fmt.Errorf("pkt: GTPv2 version %d unsupported", flags>>5)
	}
	typ, err := r.u8()
	if err != nil {
		return 0, err
	}
	m.Type = GTPv2MsgType(typ)
	msgLen, err := r.u16()
	if err != nil {
		return 0, err
	}
	if r.remaining() < int(msgLen) {
		return 0, fmt.Errorf("%w: GTPv2 declares %d bytes, %d present", ErrTruncated, msgLen, r.remaining())
	}
	if m.TEID, err = r.u32(); err != nil {
		return 0, err
	}
	seq, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	m.Seq = uint32(seq[0])<<16 | uint32(seq[1])<<8 | uint32(seq[2])
	end := 4 + int(msgLen)
	m.IMSI, m.IMSIs, m.Cause, m.PAA, m.SenderFTEID, m.Bearers = "", nil, 0, Addr{}, nil, nil
	for r.off < end {
		typ, payload, err := readIE(r)
		if err != nil {
			return 0, err
		}
		switch typ {
		case ieIMSI:
			if m.IMSI == "" {
				m.IMSI = decodeTBCD(payload)
			} else {
				m.IMSIs = append(m.IMSIs, decodeTBCD(payload))
			}
		case ieCause:
			if len(payload) < 1 {
				return 0, fmt.Errorf("%w: empty cause IE", ErrTruncated)
			}
			m.Cause = payload[0]
		case iePAA:
			if len(payload) != 5 {
				return 0, fmt.Errorf("pkt: PAA IE length %d", len(payload))
			}
			copy(m.PAA[:], payload[1:])
		case ieFTEID:
			f := &FTEID{}
			if err := f.decode(payload); err != nil {
				return 0, err
			}
			m.SenderFTEID = f
		case ieBearerContext:
			var bc BearerContext
			if err := bc.decode(payload); err != nil {
				return 0, err
			}
			m.Bearers = append(m.Bearers, bc)
		default:
			return 0, fmt.Errorf("pkt: unknown GTPv2 IE %d", typ)
		}
	}
	return r.off, nil
}

func (bc *BearerContext) decode(b []byte) error {
	r := &reader{b: b}
	for r.remaining() > 0 {
		typ, payload, err := readIE(r)
		if err != nil {
			return err
		}
		switch typ {
		case ieEBI:
			if len(payload) < 1 {
				return fmt.Errorf("%w: empty EBI IE", ErrTruncated)
			}
			bc.EBI = payload[0] & 0x0f
		case ieCause:
			if len(payload) < 1 {
				return fmt.Errorf("%w: empty cause IE", ErrTruncated)
			}
			bc.Cause = payload[0]
		case ieBearerTFT:
			t := &TFT{}
			if _, err := t.Decode(payload); err != nil {
				return err
			}
			bc.TFT = t
		case ieBearerQoS:
			q := &BearerQoS{}
			if err := q.decode(payload); err != nil {
				return err
			}
			bc.QoS = q
		case ieFTEID:
			var f FTEID
			if err := f.decode(payload); err != nil {
				return err
			}
			bc.FTEIDs = append(bc.FTEIDs, f)
		default:
			return fmt.Errorf("pkt: unknown bearer context IE %d", typ)
		}
	}
	return nil
}

func readIE(r *reader) (typ uint8, payload []byte, err error) {
	if typ, err = r.u8(); err != nil {
		return 0, nil, err
	}
	length, err := r.u16()
	if err != nil {
		return 0, nil, err
	}
	if _, err = r.u8(); err != nil { // spare/instance
		return 0, nil, err
	}
	if payload, err = r.bytes(int(length)); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// appendTBCD packs a digit string into telephony BCD (two digits per octet,
// 0xf filler for odd lengths), the IMSI wire format, appending in place.
//
//acacia:hotpath
func appendTBCD(b []byte, digits string) []byte {
	for i := 0; i < len(digits); i += 2 {
		lo := digits[i] - '0'
		hi := byte(0xf)
		if i+1 < len(digits) {
			hi = digits[i+1] - '0'
		}
		b = append(b, hi<<4|lo)
	}
	return b
}

func decodeTBCD(b []byte) string {
	out := make([]byte, 0, len(b)*2)
	for _, oct := range b {
		out = append(out, '0'+oct&0x0f)
		if oct>>4 != 0xf {
			out = append(out, '0'+oct>>4)
		}
	}
	return string(out)
}
