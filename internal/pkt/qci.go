package pkt

import "time"

// QCI is a 3GPP QoS Class Identifier. Each bearer carries exactly one QCI,
// which maps to a standardized priority, packet delay budget and packet
// error/loss rate (TS 23.203 table 6.1.7). ACACIA assigns the dedicated MEC
// bearer a low-latency QCI while default bearers typically use QCI 9.
type QCI uint8

// QCIClass describes the standardized characteristics of one QCI value.
type QCIClass struct {
	QCI         QCI
	GBR         bool // guaranteed bit rate resource type
	Priority    int  // lower = served first
	DelayBudget time.Duration
	LossRate    float64 // packet error loss rate target
	Example     string
}

// qciTable is the TS 23.203 subset relevant to the testbed (QCIs the paper
// evaluates in Fig. 10(a) plus the GBR classes used for comparison).
var qciTable = map[QCI]QCIClass{
	1: {QCI: 1, GBR: true, Priority: 2, DelayBudget: 100 * time.Millisecond, LossRate: 1e-2, Example: "conversational voice"},
	2: {QCI: 2, GBR: true, Priority: 4, DelayBudget: 150 * time.Millisecond, LossRate: 1e-3, Example: "conversational video"},
	3: {QCI: 3, GBR: true, Priority: 3, DelayBudget: 50 * time.Millisecond, LossRate: 1e-3, Example: "real time gaming"},
	4: {QCI: 4, GBR: true, Priority: 5, DelayBudget: 300 * time.Millisecond, LossRate: 1e-6, Example: "buffered video"},
	5: {QCI: 5, GBR: false, Priority: 1, DelayBudget: 100 * time.Millisecond, LossRate: 1e-6, Example: "IMS signalling"},
	6: {QCI: 6, GBR: false, Priority: 6, DelayBudget: 300 * time.Millisecond, LossRate: 1e-6, Example: "buffered video, TCP apps"},
	7: {QCI: 7, GBR: false, Priority: 7, DelayBudget: 100 * time.Millisecond, LossRate: 1e-3, Example: "voice, live video, gaming"},
	8: {QCI: 8, GBR: false, Priority: 8, DelayBudget: 300 * time.Millisecond, LossRate: 1e-6, Example: "premium best effort"},
	9: {QCI: 9, GBR: false, Priority: 9, DelayBudget: 300 * time.Millisecond, LossRate: 1e-6, Example: "default best effort"},
}

// qciPriority is qciTable's Priority column, read once per uplink packet.
var qciPriority = func() (t [256]uint8) {
	for q := range t {
		t[q] = 10
		if c, ok := qciTable[QCI(q)]; ok {
			t[q] = uint8(c.Priority)
		}
	}
	return t
}()

// Priority returns the scheduling priority for q (lower = more urgent).
// Unknown QCIs get the lowest priority.
func (q QCI) Priority() int { return int(qciPriority[q]) }

// QCIDefault is the QCI carried by default bearers in the testbed.
const QCIDefault QCI = 9

// QCIMEC is the QCI ACACIA assigns to the dedicated MEC bearer: the highest
// non-GBR priority class, giving CI traffic scheduling precedence over
// default-bearer background traffic at every queue.
const QCIMEC QCI = 5

// BearerQoS is the QoS description carried in dedicated bearer activation
// messages (a subset of the GTPv2 Bearer QoS IE).
type BearerQoS struct {
	QCI QCI
	ARP uint8 // allocation/retention priority 1..15
	// Bit rates in bits per second; zero for non-GBR bearers.
	MaxBitrateUL, MaxBitrateDL uint64
	GuaranteedUL, GuaranteedDL uint64
}

// encode appends the 22-byte Bearer QoS IE payload (TS 29.274 §8.15 layout:
// flags/ARP octet, QCI octet, then four 5-byte bit rates).
func (q *BearerQoS) encode(b []byte) []byte {
	b = append(b, q.ARP&0x7f, byte(q.QCI))
	for _, r := range []uint64{q.MaxBitrateUL, q.MaxBitrateDL, q.GuaranteedUL, q.GuaranteedDL} {
		kbps := r / 1000
		b = append(b, byte(kbps>>32), byte(kbps>>24), byte(kbps>>16), byte(kbps>>8), byte(kbps))
	}
	return b
}

func (q *BearerQoS) decode(b []byte) error {
	r := &reader{b: b}
	arp, err := r.u8()
	if err != nil {
		return err
	}
	q.ARP = arp & 0x7f
	qci, err := r.u8()
	if err != nil {
		return err
	}
	q.QCI = QCI(qci)
	rates := []*uint64{&q.MaxBitrateUL, &q.MaxBitrateDL, &q.GuaranteedUL, &q.GuaranteedDL}
	for _, p := range rates {
		raw, err := r.bytes(5)
		if err != nil {
			return err
		}
		kbps := uint64(raw[0])<<32 | uint64(raw[1])<<24 | uint64(raw[2])<<16 | uint64(raw[3])<<8 | uint64(raw[4])
		*p = kbps * 1000
	}
	return nil
}
