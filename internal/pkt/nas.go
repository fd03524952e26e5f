package pkt

import "fmt"

// NAS EPS messages (TS 24.301): the actual payloads carried opaquely inside
// S1AP NAS transport IEs. Implementing the real encodings lets the control
// procedures serialize genuine attach/service-request/bearer-activation
// content — the TFT a dedicated bearer delivers to the UE modem rides
// inside an ESM Activate Dedicated EPS Bearer Context Request, exactly as
// on the air.

// NAS protocol discriminators.
const (
	nasPDESM = 0x02 // EPS session management
	nasPDEMM = 0x07 // EPS mobility management
)

// NAS message types used by the testbed.
const (
	NASAttachRequest  = 0x41
	NASAttachAccept   = 0x42
	NASAttachComplete = 0x43
	NASDetachRequest  = 0x45
	NASServiceRequest = 0x4D // simplified: full header form
	NASServiceAccept  = 0x4F

	NASActivateDefaultBearerRequest   = 0xC1
	NASActivateDedicatedBearerRequest = 0xC5
)

// NASMsg is the decoded form of the NAS messages the procedures exchange.
// Fields are populated according to Type.
type NASMsg struct {
	Type uint8

	// IMSI identifies the UE (attach/detach).
	IMSI string
	// UEIP is the PDN address in attach accept.
	UEIP Addr
	// APN is the access point name in bearer activation.
	APN string
	// EBI / LinkedEBI identify bearers in ESM messages.
	EBI, LinkedEBI uint8
	// QoS and TFT ride dedicated bearer activation.
	QoS *BearerQoS
	TFT *TFT
	// ESM, for EMM messages with a piggybacked ESM container (attach
	// request/accept), holds the nested session-management message.
	ESM *NASMsg
}

// nasZeroGUTI is the stylized all-zero GUTI appended to attach accepts.
var nasZeroGUTI [11]byte

// Encode appends the NAS message. Nested fields (the piggybacked ESM
// container, LV-framed identities, QoS and TFT) are appended in place with
// length backfills, so encoding into a reused scratch buffer allocates
// nothing.
//
//acacia:hotpath
func (m *NASMsg) Encode(b []byte) []byte {
	switch m.Type {
	case NASAttachRequest:
		// PD+security header, message type, attach type octet, identity,
		// UE network capability (4 octets), piggybacked ESM container.
		b = append(b, nasPDEMM, NASAttachRequest, 0x01)
		var lv int
		b, lv = beginNASLV(b)
		b = appendTBCD(b, m.IMSI)
		b = endNASLV(b, lv)
		b = append(b, 0x04, 0xe0, 0xe0, 0x00, 0x00) // capability TLV
		b = m.appendESMContainer(b)
	case NASAttachAccept:
		b = append(b, nasPDEMM, NASAttachAccept, 0x01) // EPS-only result
		// TAI list (stylized 6-octet entry) + GUTI (11 octets, stylized).
		b = append(b, 0x06, 0x00, 0x01, 0x00, 0x01, 0x00, 0x01)
		b = append(b, 0x0b)
		b = append(b, nasZeroGUTI[:]...)
		b = m.appendESMContainer(b)
	case NASAttachComplete:
		b = append(b, nasPDEMM, NASAttachComplete)
		b = putU16(b, 0) // empty ESM container (accept acknowledged)
	case NASDetachRequest:
		b = append(b, nasPDEMM, NASDetachRequest, 0x01) // EPS detach, switch-off 0
		var lv int
		b, lv = beginNASLV(b)
		b = appendTBCD(b, m.IMSI)
		b = endNASLV(b, lv)
	case NASServiceRequest:
		// Real service requests are 4 octets (short MAC); keep the shape.
		b = append(b, nasPDEMM, NASServiceRequest, 0x00, 0x00)
	case NASServiceAccept:
		b = append(b, nasPDEMM, NASServiceAccept)
	case NASActivateDefaultBearerRequest:
		b = append(b, nasPDESM|m.EBI<<4, NASActivateDefaultBearerRequest)
		var lv int
		b, lv = beginNASLV(b)
		b = append(b, m.APN...)
		b = endNASLV(b, lv)
		// PDN address: type IPv4 + address.
		b = append(b, 0x05, 0x01)
		b = append(b, m.UEIP[:]...)
		if m.QoS != nil {
			b, lv = beginNASLV(b)
			b = m.QoS.encode(b)
			b = endNASLV(b, lv)
		} else {
			b = append(b, 0)
		}
	case NASActivateDedicatedBearerRequest:
		b = append(b, nasPDESM|m.EBI<<4, NASActivateDedicatedBearerRequest, m.LinkedEBI)
		var lv int
		if m.QoS != nil {
			b, lv = beginNASLV(b)
			b = m.QoS.encode(b)
			b = endNASLV(b, lv)
		} else {
			b = append(b, 0)
		}
		if m.TFT != nil {
			b, lv = beginNASLV(b)
			b = m.TFT.Encode(b)
			b = endNASLV(b, lv)
		} else {
			b = append(b, 0)
		}
	default:
		badNASType(m.Type)
	}
	return b
}

//go:noinline
func badNASType(t uint8) {
	panic(fmt.Sprintf("pkt: cannot encode NAS type 0x%02x", t))
}

// appendESMContainer appends the 2-byte-length ESM container, encoding the
// nested message in place with a length backfill.
//
//acacia:hotpath
func (m *NASMsg) appendESMContainer(b []byte) []byte {
	b = putU16(b, 0)
	if m.ESM == nil {
		return b
	}
	pos := len(b)
	b = m.ESM.Encode(b)
	n := len(b) - pos
	b[pos-2] = byte(n >> 8)
	b[pos-1] = byte(n)
	return b
}

// Decode parses a NAS message from the front of b, returning bytes
// consumed. It overwrites every field of m, but decodes a QoS, TFT or ESM
// container into the record m already points to, if any, reusing the TFT's
// filter backing: a message decoded into again allocates nothing, and what
// an earlier decode returned through those pointers changes with it.
func (m *NASMsg) Decode(b []byte) (int, error) {
	qos, tft, esm := m.QoS, m.TFT, m.ESM
	*m = NASMsg{}
	r := &reader{b: b}
	pd, err := r.u8()
	if err != nil {
		return 0, err
	}
	typ, err := r.u8()
	if err != nil {
		return 0, err
	}
	m.Type = typ
	switch typ {
	case NASAttachRequest:
		if pd&0x0f != nasPDEMM {
			return 0, fmt.Errorf("pkt: attach request with PD 0x%02x", pd)
		}
		if _, err := r.u8(); err != nil { // attach type
			return 0, err
		}
		id, err := readNASLV(r)
		if err != nil {
			return 0, err
		}
		m.IMSI = decodeTBCD(id)
		if _, err := readNASLV(r); err != nil { // capability
			return 0, err
		}
		if err := m.decodeESMContainer(r, esm); err != nil {
			return 0, err
		}
	case NASAttachAccept:
		if _, err := r.u8(); err != nil { // result
			return 0, err
		}
		if _, err := readNASLV(r); err != nil { // TAI list
			return 0, err
		}
		if _, err := readNASLV(r); err != nil { // GUTI
			return 0, err
		}
		if err := m.decodeESMContainer(r, esm); err != nil {
			return 0, err
		}
	case NASAttachComplete:
		if _, err := r.u16(); err != nil {
			return 0, err
		}
	case NASDetachRequest:
		if _, err := r.u8(); err != nil {
			return 0, err
		}
		id, err := readNASLV(r)
		if err != nil {
			return 0, err
		}
		m.IMSI = decodeTBCD(id)
	case NASServiceRequest:
		if _, err := r.u16(); err != nil {
			return 0, err
		}
	case NASServiceAccept:
		// Header only.
	case NASActivateDefaultBearerRequest:
		m.EBI = pd >> 4
		apn, err := readNASLV(r)
		if err != nil {
			return 0, err
		}
		m.APN = string(apn)
		pdn, err := readNASLV(r)
		if err != nil {
			return 0, err
		}
		if len(pdn) != 5 || pdn[0] != 0x01 {
			return 0, fmt.Errorf("pkt: malformed PDN address")
		}
		copy(m.UEIP[:], pdn[1:])
		qosRaw, err := readNASLV(r)
		if err != nil {
			return 0, err
		}
		if len(qosRaw) > 0 {
			m.QoS = orNew(qos)
			if err := m.QoS.decode(qosRaw); err != nil {
				return 0, err
			}
		}
	case NASActivateDedicatedBearerRequest:
		m.EBI = pd >> 4
		if m.LinkedEBI, err = r.u8(); err != nil {
			return 0, err
		}
		qosRaw, err := readNASLV(r)
		if err != nil {
			return 0, err
		}
		if len(qosRaw) > 0 {
			m.QoS = orNew(qos)
			if err := m.QoS.decode(qosRaw); err != nil {
				return 0, err
			}
		}
		tftRaw, err := readNASLV(r)
		if err != nil {
			return 0, err
		}
		if len(tftRaw) > 0 {
			m.TFT = orNew(tft)
			if _, err := m.TFT.Decode(tftRaw); err != nil {
				return 0, err
			}
		}
	default:
		return 0, fmt.Errorf("pkt: unknown NAS type 0x%02x", typ)
	}
	return r.off, nil
}

// decodeESMContainer decodes the nested message into esm, or a fresh
// record when esm is nil.
func (m *NASMsg) decodeESMContainer(r *reader, esm *NASMsg) error {
	n, err := r.u16()
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	raw, err := r.bytes(int(n))
	if err != nil {
		return err
	}
	m.ESM = orNew(esm)
	_, err = m.ESM.Decode(raw)
	return err
}

// orNew returns p, or a fresh T when p is nil: the decoders overwrite
// every field of the record they decode into.
func orNew[T any](p *T) *T {
	if p == nil {
		return new(T)
	}
	return p
}

// beginNASLV opens a length-value field (1-octet length placeholder),
// returning the position endNASLV uses to backfill the length once the value
// has been appended in place.
//
//acacia:hotpath
func beginNASLV(b []byte) ([]byte, int) {
	b = append(b, 0)
	return b, len(b)
}

// endNASLV backfills the length of the LV field opened at start.
//
//acacia:hotpath
func endNASLV(b []byte, start int) []byte {
	n := len(b) - start
	if n > 255 {
		panicLVTooLong()
	}
	b[start-1] = byte(n)
	return b
}

// panicLVTooLong is noinline so the boxed panic message stays out of the
// escape profiles of the hotpath encoders endNASLV inlines into.
//
//go:noinline
func panicLVTooLong() {
	panic("pkt: NAS LV field too long")
}

func readNASLV(r *reader) ([]byte, error) {
	n, err := r.u8()
	if err != nil {
		return nil, err
	}
	return r.bytes(int(n))
}
