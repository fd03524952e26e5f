package pkt

import (
	"fmt"
	"hash/crc32"
)

// S1AP-style control messages between eNodeB and MME, carried over an
// SCTP-like transport. Real S1AP is ASN.1 PER-encoded; the testbed uses an
// equivalent TLV encoding with the same information content (UE identifiers,
// E-RAB lists with transport-layer addresses and GTP TEIDs, NAS payload
// carriage), framed in SCTP common-header + DATA-chunk framing so that the
// §4 byte accounting matches what a wire capture of the testbed would count.

// SCTPDataChunkLen is the DATA chunk header each message carries after the
// 12-byte SCTP common header.
const SCTPDataChunkLen = 16

// S1APProcedure identifies the S1AP (or NAS-carrying) procedure.
type S1APProcedure uint8

// Procedures used by the testbed.
const (
	S1APInitialUEMessage S1APProcedure = iota + 1
	S1APDownlinkNASTransport
	S1APUplinkNASTransport
	S1APInitialContextSetupRequest
	S1APInitialContextSetupResponse
	S1APERABSetupRequest // "Bearer Setup Request" in TS 36.413 terms
	S1APERABSetupResponse
	S1APERABReleaseCommand
	S1APERABReleaseResponse
	S1APUEContextReleaseRequest
	S1APUEContextReleaseCommand
	S1APUEContextReleaseComplete
	S1APPaging
	S1APHandoverRequired
	S1APHandoverRequest
	S1APHandoverRequestAck
	S1APHandoverCommand
	S1APHandoverNotify
)

var s1apNames = map[S1APProcedure]string{
	S1APInitialUEMessage:            "InitialUEMessage",
	S1APDownlinkNASTransport:        "DownlinkNASTransport",
	S1APUplinkNASTransport:          "UplinkNASTransport",
	S1APInitialContextSetupRequest:  "InitialContextSetupRequest",
	S1APInitialContextSetupResponse: "InitialContextSetupResponse",
	S1APERABSetupRequest:            "E-RABSetupRequest",
	S1APERABSetupResponse:           "E-RABSetupResponse",
	S1APERABReleaseCommand:          "E-RABReleaseCommand",
	S1APERABReleaseResponse:         "E-RABReleaseResponse",
	S1APUEContextReleaseRequest:     "UEContextReleaseRequest",
	S1APUEContextReleaseCommand:     "UEContextReleaseCommand",
	S1APUEContextReleaseComplete:    "UEContextReleaseComplete",
	S1APPaging:                      "Paging",
	S1APHandoverRequired:            "HandoverRequired",
	S1APHandoverRequest:             "HandoverRequest",
	S1APHandoverRequestAck:          "HandoverRequestAcknowledge",
	S1APHandoverCommand:             "HandoverCommand",
	S1APHandoverNotify:              "HandoverNotify",
}

// String names the procedure.
func (p S1APProcedure) String() string {
	if s, ok := s1apNames[p]; ok {
		return s
	}
	return unknownName("S1APProcedure", uint8(p))
}

// unknownName formats an out-of-range value's name. Noinline keeps its
// boxing out of the escape profiles of hotpath callers of String.
//
//go:noinline
func unknownName(typ string, v uint8) string {
	return fmt.Sprintf("%s(%d)", typ, v)
}

// ERABItem is one E-RAB (bearer) entry in a setup/release list: the bearer
// identity, its QoS, the transport address + GTP TEID of the peer gateway,
// and — in the UE direction — the TFT delivered inside the RRC Connection
// Reconfiguration NAS payload.
type ERABItem struct {
	ERABID    uint8 // equals the EPS bearer ID
	QoS       *BearerQoS
	Transport FTEID // SGW-U (downlink-from-eNB view) or eNB (uplink view)
	TFT       *TFT  // present when the message carries the NAS TFT for the UE
}

// S1APMsg is one eNB<->MME control message.
type S1APMsg struct {
	Procedure S1APProcedure
	// TSN is the SCTP DATA-chunk transmission sequence number stamped by
	// the control transport's per-peer allocator.
	TSN     uint32
	ENBUEID uint32 // eNB UE S1AP ID
	MMEUEID uint32 // MME UE S1AP ID
	// NAS is the carried NAS PDU (attach, service request, ESM bearer
	// activation — see the nas.go encodings), or an opaque transparent
	// container for handover messages.
	NAS   []byte
	Cause uint8
	ERABs []ERABItem
}

// S1AP-lite IE tags.
const (
	s1apIEENBUEID = 1
	s1apIEMMEUEID = 2
	s1apIENAS     = 3
	s1apIECause   = 4
	s1apIEERAB    = 5
)

// Encode appends the SCTP-framed message to b: SCTP common header, DATA
// chunk header, then the S1AP-lite payload. The payload is encoded in place
// and the chunk length and checksum backfilled, so encoding into a reused
// scratch buffer allocates nothing.
//
//acacia:hotpath
func (m *S1APMsg) Encode(b []byte) []byte {
	start := len(b)
	// SCTP common header: src port, dst port, vtag, checksum (backfilled).
	b = putU16(b, 36412) // S1AP SCTP port
	b = putU16(b, 36412)
	b = putU32(b, 0xACAC1A00)
	b = putU32(b, 0) // checksum placeholder, offsets start+8..11
	// DATA chunk: type, flags, length (backfilled), TSN, stream id, stream
	// seq, ppid.
	b = append(b, 0, 0x03) // DATA, unfragmented
	b = putU16(b, 0)       // chunk length placeholder, offsets start+14..15
	b = putU32(b, m.TSN)   // TSN, from the transport's per-peer allocator
	b = putU16(b, 0)       // stream id
	b = putU16(b, 0)       // stream seq
	b = putU32(b, 18)      // PPID 18 = S1AP
	pstart := len(b)
	b = m.encodePayload(b)
	plen := len(b) - pstart
	chunkLen := uint16(SCTPDataChunkLen + plen)
	b[start+14] = byte(chunkLen >> 8)
	b[start+15] = byte(chunkLen)
	sum := crc32c(b[pstart:])
	b[start+8] = byte(sum >> 24)
	b[start+9] = byte(sum >> 16)
	b[start+10] = byte(sum >> 8)
	b[start+11] = byte(sum)
	return b
}

//acacia:hotpath
func (m *S1APMsg) encodePayload(b []byte) []byte {
	start := len(b)
	b = append(b, byte(m.Procedure), 0) // procedure, criticality
	b = putU16(b, 0)                    // length placeholder
	b = appendTLV8U32(b, s1apIEENBUEID, m.ENBUEID)
	if m.MMEUEID != 0 {
		b = appendTLV8U32(b, s1apIEMMEUEID, m.MMEUEID)
	}
	if len(m.NAS) > 0 {
		b = appendTLV8(b, s1apIENAS, m.NAS)
	}
	if m.Cause != 0 {
		b = append(b, s1apIECause, 0, 1, m.Cause)
	}
	for i := range m.ERABs {
		var tlv int
		b, tlv = beginTLV8(b, s1apIEERAB)
		b = m.ERABs[i].encode(b)
		b = endTLV8(b, tlv)
	}
	plen := len(b) - start - 4
	b[start+2] = byte(plen >> 8)
	b[start+3] = byte(plen)
	return b
}

func (e *ERABItem) encode(b []byte) []byte {
	b = append(b, e.ERABID)
	var flags byte
	if e.QoS != nil {
		flags |= 1
	}
	if e.TFT != nil {
		flags |= 2
	}
	b = append(b, flags)
	if e.QoS != nil {
		b = e.QoS.encode(b)
	}
	b = e.Transport.encode(b)
	if e.TFT != nil {
		b = e.TFT.Encode(b)
	}
	return b
}

func (e *ERABItem) decode(b []byte) error {
	r := &reader{b: b}
	var err error
	if e.ERABID, err = r.u8(); err != nil {
		return err
	}
	flags, err := r.u8()
	if err != nil {
		return err
	}
	if flags&1 != 0 {
		qosRaw, err := r.bytes(22)
		if err != nil {
			return err
		}
		e.QoS = &BearerQoS{}
		if err := e.QoS.decode(qosRaw); err != nil {
			return err
		}
	}
	tRaw, err := r.bytes(9)
	if err != nil {
		return err
	}
	if err := e.Transport.decode(tRaw); err != nil {
		return err
	}
	if flags&2 != 0 {
		e.TFT = &TFT{}
		n, err := e.TFT.Decode(r.b[r.off:])
		if err != nil {
			return err
		}
		r.off += n
	}
	return nil
}

// Decode parses an SCTP-framed message from the front of b.
func (m *S1APMsg) Decode(b []byte) (int, error) {
	r := &reader{b: b}
	if _, err := r.bytes(8); err != nil { // ports + vtag
		return 0, err
	}
	wantSum, err := r.u32()
	if err != nil {
		return 0, err
	}
	chunkHead, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	if chunkHead[0] != 0 {
		return 0, fmt.Errorf("pkt: SCTP chunk type %d, want DATA", chunkHead[0])
	}
	chunkLen := int(be.Uint16(chunkHead[2:]))
	if chunkLen < SCTPDataChunkLen {
		return 0, fmt.Errorf("pkt: SCTP chunk length %d too short", chunkLen)
	}
	chunkRest, err := r.bytes(12) // TSN, stream, ppid
	if err != nil {
		return 0, err
	}
	m.TSN = be.Uint32(chunkRest)
	payload, err := r.bytes(chunkLen - SCTPDataChunkLen)
	if err != nil {
		return 0, err
	}
	if crc32c(payload) != wantSum {
		return 0, fmt.Errorf("pkt: SCTP checksum mismatch")
	}
	if err := m.decodePayload(payload); err != nil {
		return 0, err
	}
	return r.off, nil
}

func (m *S1APMsg) decodePayload(b []byte) error {
	r := &reader{b: b}
	proc, err := r.u8()
	if err != nil {
		return err
	}
	m.Procedure = S1APProcedure(proc)
	if _, err := r.u8(); err != nil { // criticality
		return err
	}
	plen, err := r.u16()
	if err != nil {
		return err
	}
	if r.remaining() < int(plen) {
		return fmt.Errorf("%w: S1AP declares %d bytes, %d present", ErrTruncated, plen, r.remaining())
	}
	end := r.off + int(plen)
	m.ENBUEID, m.MMEUEID, m.NAS, m.Cause, m.ERABs = 0, 0, nil, 0, nil
	for r.off < end {
		tag, val, err := readTLV8(r)
		if err != nil {
			return err
		}
		switch tag {
		case s1apIEENBUEID:
			m.ENBUEID = be.Uint32(val)
		case s1apIEMMEUEID:
			m.MMEUEID = be.Uint32(val)
		case s1apIENAS:
			m.NAS = append([]byte(nil), val...)
		case s1apIECause:
			m.Cause = val[0]
		case s1apIEERAB:
			var item ERABItem
			if err := item.decode(val); err != nil {
				return err
			}
			m.ERABs = append(m.ERABs, item)
		default:
			return fmt.Errorf("pkt: unknown S1AP IE %d", tag)
		}
	}
	return nil
}

// appendTLV8 writes tag(1) + length(2) + value framing used by S1AP-lite.
func appendTLV8(b []byte, tag uint8, val []byte) []byte {
	b = append(b, tag)
	b = putU16(b, uint16(len(val)))
	return append(b, val...)
}

// appendTLV8U32 writes a 4-byte big-endian value TLV without materializing a
// temporary slice.
//
//acacia:hotpath
func appendTLV8U32(b []byte, tag uint8, v uint32) []byte {
	b = append(b, tag, 0, 4)
	return putU32(b, v)
}

// beginTLV8 opens a TLV whose value is encoded in place; endTLV8 backfills
// the 2-byte length.
//
//acacia:hotpath
func beginTLV8(b []byte, tag uint8) ([]byte, int) {
	b = append(b, tag, 0, 0)
	return b, len(b)
}

//acacia:hotpath
func endTLV8(b []byte, start int) []byte {
	n := len(b) - start
	b[start-2] = byte(n >> 8)
	b[start-1] = byte(n)
	return b
}

func readTLV8(r *reader) (tag uint8, val []byte, err error) {
	if tag, err = r.u8(); err != nil {
		return 0, nil, err
	}
	length, err := r.u16()
	if err != nil {
		return 0, nil, err
	}
	if val, err = r.bytes(int(length)); err != nil {
		return 0, nil, err
	}
	return tag, val, nil
}

// castagnoliTable is built once at package init; crc32.MakeTable returns the
// shared hardware-accelerated table for this polynomial.
var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// crc32c computes the CRC-32C (Castagnoli) checksum SCTP uses.
func crc32c(b []byte) uint32 { return crc32.Checksum(b, castagnoliTable) }
