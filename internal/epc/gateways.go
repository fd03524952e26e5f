package epc

import (
	"fmt"

	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sdn"
)

// Subscriber is an HSS record. Every subscriber's default bearer has the
// same QoS profile (defaultQoS).
type Subscriber struct {
	IMSI string
}

// HSS is the home subscriber server: the authorization database consulted
// at attach.
type HSS struct {
	subscribers map[string]Subscriber
}

// Provision registers a subscriber.
func (h *HSS) Provision(s Subscriber) { h.subscribers[s.IMSI] = s }

// Lookup returns the subscriber record and whether it exists.
func (h *HSS) Lookup(imsi string) (Subscriber, bool) {
	s, ok := h.subscribers[imsi]
	return s, ok
}

// PolicyRule is a PCRF rule mapping an application service to bearer QoS:
// its QCI, with ARP dedicatedARP.
type PolicyRule struct {
	ServiceID string
	QCI       pkt.QCI
	// Precedence orders the resulting TFT filter.
	Precedence uint8
}

// PCRF is the policy and charging rules function. ACACIA's MRS (an
// application function) signals it with service and flow information; it
// resolves the policy rule and invokes the PCEF in the PGW-C, triggering
// network-initiated dedicated bearer activation (TS 23.401 §5.4.1).
type PCRF struct {
	core  *Core
	rules map[string]PolicyRule
}

// AddRule provisions a policy rule for a service.
func (p *PCRF) AddRule(r PolicyRule) { p.rules[r.ServiceID] = r }

// RequestDedicatedBearer is the Rx-like entry point used by the MRS: it
// resolves policy for (service, UE, CI server) and asks the PCEF to
// activate a dedicated bearer on the given local user planes. done (may be
// nil) receives arg and the bearer EBI or an error: a record that asks
// passes a package-level done and itself, and binds no closure.
func (p *PCRF) RequestDedicatedBearer(serviceID string, ueIP, ciServer pkt.Addr, sgwPlane, pgwPlane string, done func(arg any, ebi uint8, err error), arg any) {
	rule, ok := p.rules[serviceID]
	if !ok {
		fail(done, arg, fmt.Errorf("epc: no policy rule for service %q", serviceID))
		return
	}
	sess := p.core.byIP[ueIP]
	if sess == nil {
		fail(done, arg, fmt.Errorf("epc: no session for UE %v", ueIP))
		return
	}
	p.core.PGWC.activateDedicatedBearer(sess, rule, ciServer, sgwPlane, pgwPlane, done, arg)
}

// RequestBearerTermination tears down the dedicated bearer toward ciServer;
// done (may be nil) receives arg and the outcome.
func (p *PCRF) RequestBearerTermination(ueIP, ciServer pkt.Addr, done func(arg any, err error), arg any) {
	sess := p.core.byIP[ueIP]
	if sess == nil {
		if done != nil {
			done(arg, fmt.Errorf("epc: no session for UE %v", ueIP))
		}
		return
	}
	p.core.PGWC.deactivateDedicatedBearer(sess, ciServer, done, arg)
}

func fail(done func(any, uint8, error), arg any, err error) {
	if done != nil {
		done(arg, 0, err)
	}
}

// UserPlane is one GW-U: a switch plus the port conventions the control
// plane programs against.
type UserPlane struct {
	SW *sdn.Switch
	// AccessPort faces the eNB side (SGW-U) or the SGW-U side (PGW-U).
	AccessPort int
	// CorePort faces the PGW-U side (SGW-U) or the SGi/server side (PGW-U).
	CorePort int
}

// Addr returns the user plane's GTP endpoint address.
func (u *UserPlane) Addr() pkt.Addr { return u.SW.Node().Addr() }

// Flow cookies: one per (UE, bearer, direction) so release/re-establish can
// delete exactly the downlink rules.
func cookieUL(ueIP pkt.Addr, ebi uint8) uint64 {
	return uint64(ueIP.Uint32())<<16 | uint64(ebi)<<8 | 0x01
}

func cookieDL(ueIP pkt.Addr, ebi uint8) uint64 {
	return uint64(ueIP.Uint32())<<16 | uint64(ebi)<<8 | 0x02
}

// SGWC is the serving gateway control plane.
type SGWC struct {
	core   *Core
	planes map[string]*UserPlane
	teids  teidAllocator
	// paged holds, by IMSI, the paging buffer of each idle session whose
	// downlink missed: an idle record (stageBuffer) awaiting promotion.
	paged map[string]*idle
}

type bufferedDL struct {
	sw *sdn.Switch
	p  *netsim.Packet
	// teid is the S5 tunnel the packet arrived on; replay re-encapsulates
	// with it so the reinstalled downlink rule matches.
	teid uint64
}

// maxDLBuffer bounds per-session downlink buffering while paging, matching
// typical SGW paging buffers (a handful of packets; TCP retransmission
// recovers the rest).
const maxDLBuffer = 16

// AddUserPlane registers an SGW-U under a name ("core-sgw", "edge-sgw-1").
func (s *SGWC) AddUserPlane(name string, sw *sdn.Switch, accessPort, corePort int) *UserPlane {
	up := &UserPlane{SW: sw, AccessPort: accessPort, CorePort: corePort}
	s.planes[name] = up
	sw.MarkGTPPort(accessPort)
	sw.MarkGTPPort(corePort)
	return up
}

// Plane returns a registered user plane.
func (s *SGWC) Plane(name string) *UserPlane { return s.planes[name] }

// PGWC is the PDN gateway control plane; it hosts the PCEF.
type PGWC struct {
	core   *Core
	planes map[string]*UserPlane
	teids  teidAllocator
}

// AddUserPlane registers a PGW-U ("core-pgw", "edge-pgw-1"). corePort faces
// the SGW-U; sgiPort faces the packet data network (servers).
func (p *PGWC) AddUserPlane(name string, sw *sdn.Switch, corePort, sgiPort int) *UserPlane {
	up := &UserPlane{SW: sw, AccessPort: corePort, CorePort: sgiPort}
	p.planes[name] = up
	sw.MarkGTPPort(corePort)
	return up
}

// Plane returns a registered user plane.
func (p *PGWC) Plane(name string) *UserPlane { return p.planes[name] }

// installBearerFlows programs the four GTP flow rules of one bearer:
// uplink and downlink on both its SGW-U and PGW-U.
//
//acacia:hotpath
func (c *Core) installBearerFlows(sess *Session, b *Bearer) {
	sgw := b.Planes.SGW
	pgw := b.Planes.PGW
	// SGW-U uplink: S1 tunnel in -> S5 tunnel out toward PGW-U.
	c.Ctl.InstallFlow(sgw.SW, sdn.FlowEntry{
		Priority: 100, Cookie: cookieUL(sess.UEIP, b.EBI),
		Match: pkt.Match{TunnelID: pkt.U64(uint64(b.S1UL))},
		Actions: []pkt.Action{
			{Type: pkt.ActionSetTunnel, TunnelID: uint64(b.S5UL), TunnelDst: pgw.Addr()},
			{Type: pkt.ActionOutput, Port: uint32(sgw.CorePort)},
		},
	})
	// PGW-U uplink: S5 tunnel in -> plain out the SGi port.
	c.Ctl.InstallFlow(pgw.SW, sdn.FlowEntry{
		Priority: 100, Cookie: cookieUL(sess.UEIP, b.EBI),
		Match:   pkt.Match{TunnelID: pkt.U64(uint64(b.S5UL))},
		Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: uint32(pgw.CorePort)}},
	})
	c.installDownlinkFlows(sess, b)
}

// installDownlinkFlows programs the two downlink rules (PGW-U and SGW-U).
// They are installed separately because S1 release deletes the SGW-U
// downlink rule while keeping uplink state.
//
//acacia:hotpath
func (c *Core) installDownlinkFlows(sess *Session, b *Bearer) {
	sgw := b.Planes.SGW
	pgw := b.Planes.PGW
	// PGW-U downlink: classify by UE IP (and CI server for dedicated
	// bearers) -> S5 tunnel toward SGW-U.
	dlMatch := pkt.Match{IPv4Dst: pkt.AddrPtr(sess.UEIP)}
	if !b.CIServer.IsZero() {
		dlMatch.IPv4Src = pkt.AddrPtr(b.CIServer)
	}
	c.Ctl.InstallFlow(pgw.SW, sdn.FlowEntry{
		Priority: 100, Cookie: cookieDL(sess.UEIP, b.EBI),
		Match: dlMatch,
		Actions: []pkt.Action{
			{Type: pkt.ActionSetTunnel, TunnelID: uint64(b.S5DL), TunnelDst: sgw.Addr()},
			{Type: pkt.ActionOutput, Port: uint32(pgw.AccessPort)},
		},
	})
	c.installSGWDownlink(sess, b)
}

// installSGWDownlink programs only the SGW-U downlink rule. Promotion after
// an idle period reinstalls just this rule — the PGW-U side is unaffected
// by eNB TEID changes — matching the testbed's OpenFlow message budget of
// one delete + one add per bearer per release/re-establish cycle.
//
//acacia:hotpath
func (c *Core) installSGWDownlink(sess *Session, b *Bearer) {
	c.installSGWDownlinkTo(sess, b, b.S1DL, sess.ENB.Addr())
}

// installSGWDownlinkTo is installSGWDownlink with an explicit S1 downlink
// TEID and eNB address. The handover compensation path uses it to repoint
// the rule at the *source* eNB's captured endpoints after the session
// fields were already rewritten toward the target.
//
//acacia:hotpath
func (c *Core) installSGWDownlinkTo(sess *Session, b *Bearer, s1dl uint32, enbAddr pkt.Addr) {
	sgw := b.Planes.SGW
	// SGW-U downlink: S5 tunnel in -> S1 tunnel toward the eNB.
	c.Ctl.InstallFlow(sgw.SW, sdn.FlowEntry{
		Priority: 100, Cookie: cookieDL(sess.UEIP, b.EBI),
		Match: pkt.Match{TunnelID: pkt.U64(uint64(b.S5DL))},
		Actions: []pkt.Action{
			{Type: pkt.ActionSetTunnel, TunnelID: uint64(s1dl), TunnelDst: enbAddr},
			{Type: pkt.ActionOutput, Port: uint32(sgw.AccessPort)},
		},
	})
}

// removeBearerFlows deletes all four rules of a bearer.
func (c *Core) removeBearerFlows(sess *Session, b *Bearer) {
	sgw := b.Planes.SGW
	pgw := b.Planes.PGW
	c.Ctl.RemoveFlows(sgw.SW, cookieUL(sess.UEIP, b.EBI))
	c.Ctl.RemoveFlows(pgw.SW, cookieUL(sess.UEIP, b.EBI))
	c.Ctl.RemoveFlows(pgw.SW, cookieDL(sess.UEIP, b.EBI))
	c.removeSGWDownlink(sess, b)
}

// removeSGWDownlink deletes only the SGW-U downlink rule — the S1 release
// action that makes later downlink traffic miss and trigger paging.
func (c *Core) removeSGWDownlink(sess *Session, b *Bearer) {
	sgw := b.Planes.SGW
	c.Ctl.RemoveFlows(sgw.SW, cookieDL(sess.UEIP, b.EBI))
}

// bufferAndPage handles a downlink table miss for an idle UE: buffer the
// packet (bounded, as real SGW paging buffers are) and start paging. The
// buffer lives in a pooled idle record (stageBuffer) that waits for the
// session to be connected again; then replay re-injects the packets through
// the SGW-U, whose freshly reinstalled downlink rules deliver them. A
// packet it does not buffer is dropped and released.
func (s *SGWC) bufferAndPage(sess *Session, sw *sdn.Switch, p *netsim.Packet, teid uint64) {
	if sess.State != StateIdle && sess.State != StatePromoting {
		// Race with an in-flight state change; nothing to do.
		sw.Node().Network().Release(p)
		return
	}
	id := s.paged[sess.IMSI]
	first := id == nil
	if first {
		id = s.core.takeIdle(sess, stageBuffer)
		s.paged[sess.IMSI] = id
	}
	if len(id.buffered) < maxDLBuffer {
		id.buffered = append(id.buffered, bufferedDL{sw: sw, p: p, teid: teid})
	} else {
		sw.Node().Network().Release(p)
	}
	if first {
		s.core.page(sess)
		s.core.whenConnected(sess, &id.proc, id.replayF)
	}
}

// dropPage releases sess's paging-buffered downlink packets and forgets its
// page, so the next downlink packet buffers afresh and pages again: the
// page or the promotion it started failed, or the session ended.
func (s *SGWC) dropPage(sess *Session) {
	id := s.paged[sess.IMSI]
	if id == nil {
		return
	}
	delete(s.paged, sess.IMSI)
	for _, item := range id.buffered {
		item.sw.Node().Network().Release(item.p)
	}
	sess.dropWaiter(&id.proc)
	id.finish(nil)
}

// replay re-injects the paging buffer into its SGW-U after promotion,
// restoring the S5 encapsulation the switch stripped before the table miss.
func (id *idle) replay() {
	delete(id.SGWC.paged, id.sess.IMSI)
	for _, item := range id.buffered {
		if item.teid != 0 && !item.p.Tunneled() {
			addr := item.sw.Node().Addr()
			item.p.Encapsulate(addr, addr, uint32(item.teid))
		}
		item.sw.Node().Inject(item.p)
	}
	id.finish(nil)
}

// dedicated is the pooled record of a dedicated bearer procedure on sess:
// the network-initiated activation of b (the Create Bearer chain; activation
// is set, whether or not a done callback was given) or its deactivation (the
// Delete Bearer chain). denied is the MME's refusal, answered down the chain
// to the PGW-C. nas is the activation's NAS request: the modem decodes it
// after the asynchronous S1AP delivery, so it cannot live in Core.nasBuf.
type dedicated struct {
	proc
	*Core
	sess        *Session
	b           *Bearer
	activation  bool
	activated   func(any, uint8, error)
	deactivated func(any, error)
	arg         any // the activated or deactivated callback's
	denied      error
	nas         []byte

	cbAtSGWF, cbAtMMEF, setupF, toModemF, erabDoneF, answeredF func()
	dbAtSGWF, dbAtMMEF, dbAtENBF, dbBackF, dbAtPGWF            func()
}

// takeDedicated takes a dedicated-bearer record for a new procedure on b.
func (c *Core) takeDedicated(sess *Session, b *Bearer) *dedicated {
	d := c.deds.Take()
	if d.Core == nil {
		c.bindDedicated(d)
	}
	d.restart()
	d.sess, d.b = sess, b
	return d
}

// bindDedicated readies a fresh dedicated-bearer record, binding its legs
// once.
//
//go:noinline
func (c *Core) bindDedicated(d *dedicated) {
	d.Core = c
	d.end, d.undo, d.cbAtSGWF, d.cbAtMMEF, d.setupF, d.toModemF = d.ended, d.unwind, d.cbAtSGW, d.cbAtMME, d.setup, d.toModem
	d.erabDoneF, d.answeredF, d.dbAtSGWF, d.dbAtMMEF, d.dbAtENBF, d.dbBackF, d.dbAtPGWF = d.erabDone, d.answered, d.dbAtSGW, d.dbAtMME, d.dbAtENB, d.dbBack, d.dbAtPGW
}

// unwind is an activation's one compensation (stage 1, set as it starts):
// on any failure — a protocol denial answered down the chain or a transport
// timeout on any leg — after the E-RAB Setup landed (b.S1DL is set), it
// takes back what that gave the radio side: the eNB's downlink mapping and
// the modem's TFT. The bearer's flows and its sess.Bearers slot are only
// installed on success (answered), so nothing else needs undoing.
func (d *dedicated) unwind() {
	if d.stage == 0 {
		return
	}
	b, sess := d.b, d.sess
	if b.S1DL != 0 {
		sess.ENB.detachBearer(sess, b.EBI)
		sess.UE.removeTFT(b.EBI)
	}
}

// ended reports the outcome and recycles the record. An activation gives
// back its EBI reservation: on success the bearer holds the slot itself.
func (d *dedicated) ended(err error) {
	ebi, activated, deactivated, arg := d.b.EBI, d.activated, d.deactivated, d.arg
	if d.activation {
		d.sess.pending &^= 1 << ebi
	}
	d.sess, d.b, d.activated, d.deactivated, d.arg, d.denied, d.activation = nil, nil, nil, nil, nil, nil, false
	d.deds.Put(d)
	switch {
	case activated != nil && err != nil:
		activated(arg, 0, err)
	case activated != nil:
		activated(arg, ebi, nil)
	case deactivated != nil:
		deactivated(arg, err)
	}
}

// activateDedicatedBearer runs the network-initiated dedicated bearer
// activation: the PCEF (here) builds the bearer, then the
// Create Bearer chain runs from the PGW-C through the SGW-C to the MME on
// S5 and S11, the E-RAB Setup at the eNB once the UE is connected (paging
// it first if idle), and the SGW-C's response to the PGW-C.
func (p *PGWC) activateDedicatedBearer(sess *Session, rule PolicyRule, ciServer pkt.Addr, sgwPlane, pgwPlane string, done func(any, uint8, error), arg any) {
	if sess.State == StateDetached {
		fail(done, arg, fmt.Errorf("epc: UE %s not attached", sess.IMSI))
		return
	}
	planes, perr := p.core.internPlanes(sgwPlane, pgwPlane)
	if perr != nil {
		fail(done, arg, perr)
		return
	}
	// Next free EBI: neither installed nor held by an activation still
	// under way, which takes its sess.Bearers slot only when answered.
	ebi := uint8(EBIDedicated)
	for sess.Bearers[ebi] != nil || sess.pending&(1<<ebi) != 0 {
		ebi++
		if ebi > 15 {
			fail(done, arg, fmt.Errorf("epc: UE %s has no free EBI", sess.IMSI))
			return
		}
	}
	sess.pending |= 1 << ebi
	c := p.core
	b := c.bearerRecs.Take()
	*b = Bearer{
		EBI:      ebi,
		QoS:      pkt.BearerQoS{QCI: rule.QCI, ARP: dedicatedARP},
		TFT:      c.internTFT(ciServer, rule.Precedence),
		Planes:   planes,
		CIServer: ciServer,
		S5UL:     p.teids.alloc(),
	}
	d := c.takeDedicated(sess, b)
	d.activation, d.activated, d.arg, d.stage = true, done, arg, 1
	req := &pkt.GTPv2Msg{
		Type: pkt.GTPv2CreateBearerRequest,
		TEID: 1,
		Bearers: []pkt.BearerContext{{
			EBI: b.EBI, TFT: b.TFT, QoS: &b.QoS,
			FTEIDs: []pkt.FTEID{{IfaceType: pkt.FTEIDIfaceS5PGW, TEID: b.S5UL, Addr: b.Planes.PGW.Addr()}},
		}},
	}
	c.sendGTPv2(c.takeLeg(&d.proc, d.cbAtSGWF), c.pgwEP, c.sgwEP, req)
}

func (d *dedicated) cbAtSGW() {
	b := d.b
	b.S1UL = d.SGWC.teids.alloc()
	b.S5DL = d.SGWC.teids.alloc()
	// The S1-U F-TEID carries the *local* SGW-U address — the step that
	// steers the radio-side tunnel to the edge.
	fwd := &pkt.GTPv2Msg{
		Type: pkt.GTPv2CreateBearerRequest,
		TEID: 2,
		Bearers: []pkt.BearerContext{{
			EBI: b.EBI, TFT: b.TFT, QoS: &b.QoS,
			FTEIDs: []pkt.FTEID{b.s1uSGW()},
		}},
	}
	d.sendGTPv2(d.takeLeg(&d.proc, d.cbAtMMEF), d.sgwEP, d.mmeEP, fwd)
}

func (d *dedicated) cbAtMME() {
	sess := d.sess
	if sess.State == StateDetached {
		d.answer(fmt.Errorf("epc: UE %s in state %v", sess.IMSI, sess.State))
		return
	}
	// A promotion waiter can outlive a failed procedure: it is dropped.
	d.whenConnected(sess, &d.proc, d.setupF)
	d.page(sess) // wakes an idle UE; the setup rides after promotion
}

// setup runs the dedicated bearer's E-RAB Setup. Its NAS Activate
// Dedicated EPS Bearer Context Request carries the QoS and TFT the eNB
// relays to the UE in the RRC reconfiguration, where the modem installs
// them (toModem).
func (d *dedicated) setup() {
	b, sess := d.b, d.sess
	d.nas = (&pkt.NASMsg{
		Type: pkt.NASActivateDedicatedBearerRequest,
		EBI:  b.EBI, LinkedEBI: EBIDefault, QoS: &b.QoS, TFT: b.TFT,
	}).Encode(d.nas[:0])
	d.setupERABs(&d.proc, sess, sess.ENB, pkt.S1APERABSetupRequest, d.nas, b, d.toModemF, d.erabDoneF)
}

func (d *dedicated) toModem() {
	if err := d.sess.UE.installTFTFromNAS(d.nas); err != nil {
		panic("epc: NAS bearer activation round trip failed: " + err.Error())
	}
}

func (d *dedicated) erabDone() { d.answer(nil) }

// answer sends the SGW-C's Create Bearer Response to the PGW-C: accepted
// once the E-RAB Setup is done, denied with err when the MME found the
// session gone. The MME's own Create Bearer Response to the SGW-C on S11
// is not modelled.
func (d *dedicated) answer(err error) {
	b := d.b
	d.denied = err
	cause := uint8(pkt.GTPv2CauseAccepted)
	if err != nil {
		cause = pkt.GTPv2CauseDenied
	}
	resp := &pkt.GTPv2Msg{
		Type: pkt.GTPv2CreateBearerResponse,
		TEID: 1, Cause: cause,
		Bearers: []pkt.BearerContext{{
			EBI: b.EBI, Cause: cause,
			FTEIDs: []pkt.FTEID{{IfaceType: pkt.FTEIDIfaceS5SGW, TEID: b.S5DL, Addr: b.Planes.SGW.Addr()}},
		}},
	}
	d.sendGTPv2(d.takeLeg(&d.proc, d.answeredF), d.sgwEP, d.pgwEP, resp)
}

// answered: on an accepted response the PGW-C installs the bearer, unless
// a detach released the session meanwhile (releaseSessionResources clears
// the default bearer), which fails the activation instead.
func (d *dedicated) answered() {
	sess, b := d.sess, d.b
	switch {
	case d.denied != nil:
		d.finish(d.denied)
	case sess.Bearers[EBIDefault] == nil:
		d.finish(fmt.Errorf("epc: UE %s detached during bearer activation", sess.IMSI))
	default:
		sess.Bearers[b.EBI] = b
		d.installBearerFlows(sess, b)
		d.finish(nil)
	}
}

// deactivateDedicatedBearer tears down the bearer whose CI server matches
// with its Delete Bearer chain: the request from the PGW-C through the
// SGW-C to the MME on S5 and S11, the E-RAB Release pair at the eNB (which
// drops the bearer's mapping, and the modem its TFT), and the SGW-C's
// response to the PGW-C, which removes the bearer's flows.
func (p *PGWC) deactivateDedicatedBearer(sess *Session, ciServer pkt.Addr, done func(any, error), arg any) {
	var b *Bearer
	for _, cand := range sess.Bearers[EBIDedicated:] {
		if cand != nil && cand.CIServer == ciServer {
			b = cand
			break
		}
	}
	if b == nil {
		if done != nil {
			done(arg, fmt.Errorf("epc: no dedicated bearer toward %v", ciServer))
		}
		return
	}
	c := p.core
	d := c.takeDedicated(sess, b)
	d.deactivated, d.arg = done, arg
	req := &pkt.GTPv2Msg{Type: pkt.GTPv2DeleteBearerRequest, TEID: 1, Bearers: []pkt.BearerContext{{EBI: b.EBI}}}
	c.sendGTPv2(c.takeLeg(&d.proc, d.dbAtSGWF), c.pgwEP, c.sgwEP, req)
}

func (d *dedicated) dbAtSGW() {
	fwd := &pkt.GTPv2Msg{Type: pkt.GTPv2DeleteBearerRequest, TEID: 2, Bearers: []pkt.BearerContext{{EBI: d.b.EBI}}}
	d.sendGTPv2(d.takeLeg(&d.proc, d.dbAtMMEF), d.sgwEP, d.mmeEP, fwd)
}

func (d *dedicated) dbAtMME() {
	sess := d.sess
	cmd := &pkt.S1APMsg{Procedure: pkt.S1APERABReleaseCommand, ENBUEID: sess.ENBUEID, MMEUEID: sess.MMEUEID,
		ERABs: []pkt.ERABItem{{ERABID: d.b.EBI}}}
	d.sendS1AP(d.takeLeg(&d.proc, d.dbAtENBF), d.mmeEP, sess.ENB.ep, cmd)
}

func (d *dedicated) dbAtENB() {
	sess := d.sess
	sess.ENB.detachBearer(sess, d.b.EBI)
	sess.UE.removeTFT(d.b.EBI)
	released := sess.s1ap(pkt.S1APERABReleaseResponse, 0, nil)
	d.sendS1AP(d.takeLeg(&d.proc, d.dbBackF), sess.ENB.ep, d.mmeEP, released)
}

func (d *dedicated) dbBack() {
	b := d.b
	resp := &pkt.GTPv2Msg{
		Type: pkt.GTPv2DeleteBearerResponse,
		TEID: 1, Cause: pkt.GTPv2CauseAccepted,
		Bearers: []pkt.BearerContext{{EBI: b.EBI, Cause: pkt.GTPv2CauseAccepted}},
	}
	d.sendGTPv2(d.takeLeg(&d.proc, d.dbAtPGWF), d.sgwEP, d.pgwEP, resp)
}

func (d *dedicated) dbAtPGW() {
	sess, b := d.sess, d.b
	d.removeBearerFlows(sess, b)
	sess.Bearers[b.EBI] = nil
	d.finish(nil)
}
