package pkt

// QCI is a 3GPP QoS Class Identifier. Each bearer carries exactly one QCI,
// which maps to a standardized priority, packet delay budget and packet
// error/loss rate (TS 23.203 table 6.1.7). ACACIA assigns the dedicated MEC
// bearer a low-latency QCI while default bearers typically use QCI 9.
type QCI uint8

// qciPriority is the priority column of TS 23.203 table 6.1.7 for the QCIs
// the testbed uses (those the paper evaluates in Fig. 10(a) plus the GBR
// classes 1-4 used for comparison), read once per uplink packet. Every
// other QCI gets the lowest priority, 10.
var qciPriority = func() (t [256]uint8) {
	for q := range t {
		t[q] = 10
	}
	for q, p := range [...]uint8{1: 2, 2: 4, 3: 3, 4: 5, 5: 1, 6: 6, 7: 7, 8: 8, 9: 9} {
		if p != 0 {
			t[q] = p
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
// messages (a subset of the GTPv2 Bearer QoS IE). Every bearer the testbed
// sets up is non-GBR, so the IE's bit rates are always zero.
type BearerQoS struct {
	QCI QCI
	ARP uint8 // allocation/retention priority 1..15
}

// qosRateBytes is the length of the IE's four 5-byte bit rates (maximum
// and guaranteed, uplink and downlink).
const qosRateBytes = 20

// encode appends the 22-byte Bearer QoS IE payload (TS 29.274 §8.15 layout:
// flags/ARP octet, QCI octet, then four 5-byte bit rates, all zero).
func (q *BearerQoS) encode(b []byte) []byte {
	b = append(b, q.ARP&0x7f, byte(q.QCI))
	return append(b, make([]byte, qosRateBytes)...)
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
	return r.zero(qosRateBytes) // bit rates: every bearer is non-GBR
}
