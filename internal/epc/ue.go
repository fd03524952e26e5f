package epc

import (
	"fmt"

	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sim"
)

// UE is a user device: a netsim host behind a radio link, with the modem's
// uplink TFT classifier. Applications use the embedded Host; every outgoing
// packet is classified against the installed uplink TFTs so it departs with
// the right bearer priority (the eNB performs the corresponding S1 mapping).
type UE struct {
	netsim.Host
	IMSI string
	enb  *ENB

	// servingPort is the radio port toward the serving eNB. A UE may have
	// radio links to several eNBs (neighbour cells); handover switches
	// this.
	servingPort int

	attached bool
	sess     *Session

	// Modem UL TFT state by EBI-EBIDefault (nil TFT: none), scanned per packet.
	tfts [16 - EBIDefault]modemTFT
}

type modemTFT struct {
	qci pkt.QCI
	tft *pkt.TFT
}

// modemStore is what every UE modem on a core decodes bearer activations
// into: the scratch message, whose QoS is reused, and the pool of the TFTs
// the modems hold. A TFT a modem drops goes back to the pool, and the next
// activation decodes into it, reusing its filter backing.
type modemStore struct {
	nas  pkt.NASMsg
	tfts sim.Pool[pkt.TFT]
}

// NewUE wraps node as a UE with the given IMSI, carved from the core's slab.
// The node's address is the UE's (statically bound) IP, confirmed at attach.
func (c *Core) NewUE(node *netsim.Node, imsi string) *UE {
	ue := c.ues.Take()
	ue.IMSI = imsi
	ue.Init(node)
	ue.Egress = ue
	return ue
}

// Addr returns the UE's IP address.
func (u *UE) Addr() pkt.Addr { return u.Node.Addr() }

// Attach runs the initial attach through the connected eNB, establishing
// the default bearer on the named user planes. done (may be nil) fires when
// the attach completes or fails.
func (u *UE) Attach(sgwPlane, pgwPlane string, done func(error)) {
	if u.enb == nil {
		if done != nil {
			done(fmt.Errorf("epc: UE %s has no radio connection", u.IMSI))
		}
		return
	}
	if u.attached {
		if done != nil {
			done(fmt.Errorf("epc: UE %s already attached", u.IMSI))
		}
		return
	}
	co := u.enb.core.takeCohort(false, false)
	co.attachDone, co.ue, co.sgwPlane, co.pgwPlane = done, u, sgwPlane, pgwPlane
	// The eNB has no session to number the UE by yet.
	co.sendAttachRequest(u, 1)
}

// completeAttach is called by the MME when the default bearer is live.
func (u *UE) completeAttach(sess *Session) {
	u.attached = true
	u.sess = sess
}

// Detach runs the UE-initiated detach: the NAS detach request rides an
// uplink NAS transport (the one message DetachBatch does not send), then
// the MME runs the detach legs for a cohort of one. done (may be nil) fires
// when the UE is fully detached.
func (u *UE) Detach(done func()) error {
	if !u.attached || u.sess == nil {
		return fmt.Errorf("epc: UE %s not attached", u.IMSI)
	}
	sess := u.sess
	core := u.enb.core
	nas := core.encodeNAS(&pkt.NASMsg{Type: pkt.NASDetachRequest, IMSI: u.IMSI})
	msg := sess.s1ap(pkt.S1APUplinkNASTransport, 0, nas)
	co := core.takeCohort(true, false)
	co.detachDone, co.members = done, append(co.members, member{sess: sess})
	core.sendS1AP(core.takeLeg(&co.proc, co.deleteF), u.enb.ep, core.mmeEP, msg)
	return nil
}

// completeDetach clears the UE-side session state.
func (u *UE) completeDetach() {
	u.attached = false
	u.sess = nil
	for i := range u.tfts {
		u.removeTFT(uint8(i) + EBIDefault)
	}
}

// removeTFT drops a dedicated bearer's classifier, returning its TFT to the
// core's modem store.
func (u *UE) removeTFT(ebi uint8) {
	mt := &u.tfts[ebi-EBIDefault]
	if mt.tft != nil {
		u.enb.core.modem.tfts.Put(mt.tft)
	}
	*mt = modemTFT{}
}

// installTFTFromNAS is the modem-side effect of the RRC Connection
// Reconfiguration carrying a dedicated bearer's TFT: it decodes an Activate
// Dedicated EPS Bearer Context Request from its wire form and installs the
// carried TFT and QoS — the modem consumes exactly the bytes the network
// sent. It decodes into the core's modem store (modemStore).
func (u *UE) installTFTFromNAS(nas []byte) error {
	ms := &u.enb.core.modem
	m, tft := &ms.nas, ms.tfts.Take()
	m.TFT = tft
	_, err := m.Decode(nas)
	switch {
	case err != nil:
	case m.Type != pkt.NASActivateDedicatedBearerRequest:
		err = fmt.Errorf("epc: NAS type 0x%02x is not a dedicated bearer activation", m.Type)
	case m.TFT == nil || m.QoS == nil:
		err = fmt.Errorf("epc: bearer activation without TFT/QoS")
	case m.EBI < EBIDefault: // a nibble on the wire: 15 at most
		err = fmt.Errorf("epc: bearer activation for reserved EBI %d", m.EBI)
	}
	if err != nil {
		ms.tfts.Put(tft)
		return err
	}
	u.removeTFT(m.EBI)
	u.tfts[m.EBI-EBIDefault] = modemTFT{qci: m.QoS.QCI, tft: tft}
	return nil
}

// match is the modem's UL TFT evaluation (uplinkPrecedence): the bearer
// whose TFT matches with the lowest precedence value (lowest EBI on a tie),
// else the default bearer.
//
//acacia:hotpath
func (u *UE) match(flow pkt.FiveTuple) (uint8, pkt.QCI) {
	ebi, qci := uint8(EBIDefault), pkt.QCIDefault
	bestPrec := noTFTMatch
	for i := range u.tfts {
		mt := &u.tfts[i]
		if prec := uplinkPrecedence(mt.tft, flow); prec < bestPrec {
			bestPrec = prec
			ebi, qci = uint8(i)+EBIDefault, mt.qci
		}
	}
	return ebi, qci
}

// ClassifyEgress is the Host egress hook: stamp the packet's priority from
// the matching bearer's QCI and send it out the radio port.
//
//acacia:hotpath
func (u *UE) ClassifyEgress(p *netsim.Packet) *netsim.Port {
	_, qci := u.match(p.Flow)
	p.Priority = uint8(qci.Priority())
	if u.servingPort >= len(u.Node.Ports()) {
		return nil
	}
	return u.Node.Port(u.servingPort)
}

// switchRadio retunes the UE to the target eNB's radio link (the RRC
// reconfiguration with mobility control of an S1 handover).
func (u *UE) switchRadio(target *ENB, portID int) {
	u.enb = target
	u.servingPort = portID
}
