// Package epc implements the LTE/EPC control and user planes of the ACACIA
// testbed: UE and eNodeB with radio-bearer semantics, MME, HSS, PCRF/PCEF,
// and split gateways (SGW-C/PGW-C control planes programming SGW-U/PGW-U
// switches through the SDN controller).
//
// Control-plane exchanges (S1AP-over-SCTP between eNB and MME, GTPv2-C
// between MME and the gateway control planes) are serialized with the pkt
// encodings on every hop, so message and byte counts — the paper's §4
// control-overhead analysis — are measured from real encodings rather than
// assumed. Data-plane traffic flows through netsim links and sdn switches
// with GTP-U encapsulation.
//
// The package implements the full bearer lifecycle the paper exercises:
//
//   - initial attach with default-bearer establishment (always-on),
//   - network-initiated dedicated bearer activation toward local (edge)
//     gateways — ACACIA's traffic-redirection mechanism,
//   - S1 release after the LTE inactivity timeout (11.576 s) and
//     service-request promotion when traffic resumes, including paging for
//     downlink-triggered wakeups.
package epc

import (
	"fmt"
	"time"

	"acacia/internal/sim"
	"acacia/internal/telemetry"
)

// IdleTimeout is the LTE RRC inactivity timeout after which the network
// releases a UE's radio and S1 bearers (Huang et al. [35]: 11.576 s).
const IdleTimeout = 11576 * time.Millisecond

// Protocol identifies a control-plane protocol for accounting.
type Protocol uint8

// Accounted protocols.
const (
	ProtoS1AP     Protocol = iota // S1AP over SCTP (eNB <-> MME)
	ProtoGTPv2                    // GTPv2-C (MME <-> SGW-C <-> PGW-C)
	ProtoOpenFlow                 // controller <-> GW-U (accounted by sdn)
	protoCount
)

var protocolNames = [...]string{ProtoS1AP: "SCTP/S1AP", ProtoGTPv2: "GTPv2", ProtoOpenFlow: "OpenFlow"}

// String names the protocol.
func (p Protocol) String() string {
	if uint(p) < uint(len(protocolNames)) {
		return protocolNames[p]
	}
	return fmt.Sprintf("Protocol(%d)", uint8(p))
}

// MsgRecord is one logged control message. The transport fields are filled
// in two phases: Seq and Path at send time, and the wire observations
// (Link, QueueWait, Retrans) when the transport ack reports how the
// exchange actually fared.
type MsgRecord struct {
	At    sim.Time
	Proto Protocol
	Name  string
	Bytes int

	// Seq is the per-peer transport sequence number (GTPv2 Seq/SCTP TSN).
	Seq uint32
	// Path names the sending and receiving endpoints ("mme->sgw-c").
	Path string
	// Link names the link the delivered attempt traversed, set at ack
	// time: every control route is one direct link (ctl.Connect), so an
	// acked record's Link is its Path, and a never-acked one's is empty.
	Link string
	// QueueWait is the transmit-queue delay of the delivered attempt.
	QueueWait time.Duration
	// Retrans counts retransmissions the exchange needed.
	Retrans int
}

// Accounting tallies control-plane messages by protocol. The §4 experiment
// reads it around a release/re-establish cycle.
//
// The arrays are the one store (a zero-value Accounting works standalone);
// one built by NewAccounting is a telemetry source that reports them as
// epc/<proto>/msgs and epc/<proto>/bytes, so the engine-wide registry
// snapshot carries the same totals.
type Accounting struct {
	Msgs  [protoCount]uint64
	Bytes [protoCount]uint64
	// Log holds individual records when Trace is enabled.
	Trace bool
	Log   []MsgRecord
}

// NewAccounting returns an Accounting registered with reg as the source of
// epc/<proto>/msgs and epc/<proto>/bytes (proto in s1ap, gtpv2, openflow).
func NewAccounting(reg *telemetry.Registry) *Accounting {
	a := &Accounting{}
	reg.Register(a)
	return a
}

// acctNames[p] are protocol p's msgs and bytes metric names.
var acctNames = [protoCount][2]string{
	{"epc/s1ap/msgs", "epc/s1ap/bytes"},
	{"epc/gtpv2/msgs", "epc/gtpv2/bytes"},
	{"epc/openflow/msgs", "epc/openflow/bytes"},
}

// AppendMetrics reports the per-protocol totals (telemetry.Source).
func (a *Accounting) AppendMetrics(dst []telemetry.Metric) []telemetry.Metric {
	for p, names := range acctNames {
		dst = append(dst,
			telemetry.Metric{Name: names[0], Kind: telemetry.KindCounter, Count: a.Msgs[p]},
			telemetry.Metric{Name: names[1], Kind: telemetry.KindCounter, Count: a.Bytes[p]})
	}
	return dst
}

// RecordTx adds one message with its transport identity (sequence number
// and endpoint path). It returns the record's index in the trace log so the
// caller can attach wire observations later via NoteTransport, or -1 when
// tracing is off.
func (a *Accounting) RecordTx(at sim.Time, proto Protocol, name string, bytes int, seq uint32, path string) int {
	a.Msgs[proto]++
	a.Bytes[proto] += uint64(bytes)
	if a.Trace {
		a.Log = append(a.Log, MsgRecord{At: at, Proto: proto, Name: name, Bytes: bytes, Seq: seq, Path: path})
		return len(a.Log) - 1
	}
	return -1
}

// NoteTransport back-fills the wire observations of a traced message once
// its transport transaction is acked. idx is RecordTx's return value; -1
// is ignored.
func (a *Accounting) NoteTransport(idx int, queueWait time.Duration, retrans int) {
	if idx < 0 || idx >= len(a.Log) {
		return
	}
	r := &a.Log[idx]
	r.Link = r.Path
	r.QueueWait = queueWait
	r.Retrans = retrans
}

// teidAllocator hands out unique tunnel endpoint identifiers per gateway.
type teidAllocator struct{ next uint32 }

func (t *teidAllocator) alloc() uint32 {
	t.next++
	return t.next
}

// EBI values: the default bearer gets 5 (the first valid EPS bearer id),
// dedicated bearers count up from 6.
const (
	EBIDefault   = 5
	EBIDedicated = 6
)
