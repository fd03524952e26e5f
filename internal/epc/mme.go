package epc

import (
	"fmt"

	"acacia/internal/pkt"
	"acacia/internal/telemetry"
)

// MME is the mobility management entity: it terminates S1AP from the eNBs
// and drives session procedures over GTPv2 toward the SGW-C.
type MME struct {
	core *Core
	// Stats. Handovers is reported as epc/handover/completed.
	Attaches   uint64
	Releases   uint64
	Promotions uint64
	Pagings    uint64
	Handovers  uint64

	// OnHandoverComplete, when set, fires after a successful handover's
	// path switch with the session and the eNBs it moved between. The MRS
	// hooks it to learn the UE's new serving cell and rebind the MEC
	// session when the move crosses edge-site coverage.
	OnHandoverComplete func(sess *Session, source, target *ENB)

	// Handover telemetry (registered by NewCore).
	hoScope  telemetry.Scope
	hoFailed *telemetry.Counter
	hoGap    *telemetry.Histogram
}

// AppendMetrics reports Handovers as epc/handover/completed: the MME is the
// telemetry.Source NewCore registers.
func (m *MME) AppendMetrics(dst []telemetry.Metric) []telemetry.Metric {
	return append(dst, telemetry.Metric{Name: "epc/handover/completed", Kind: telemetry.KindCounter, Count: m.Handovers})
}

// --- Attach and detach ---
//
// Every exchange of attach, detach and idle release is built and sent in
// one function below. UE.Attach and UE.Detach run them over a cohort of
// one, AttachBatch and DetachBatch (batch.go) over many; a cohort of one
// encodes exactly as the single-UE messages. The single and batched
// procedures differ in three places, each explicit once: where the attach
// is validated (onInitialAttach, AttachBatch), the Modify Bearer Response
// (modifyBearers) and the Uplink NAS Transport that opens UE.Detach.

// member is one UE's slot in a cohort: its session and, while it attaches,
// the default bearer being built.
type member struct {
	sess *Session
	b    *Bearer
}

// cohort is an attach or detach procedure over one UE (UE.Attach,
// UE.Detach) or several (AttachBatch, DetachBatch): the proc its legs run
// under and the members they run over.
type cohort struct {
	proc
	members []member
	// batched marks AttachBatch and DetachBatch: report hears each member.
	batched bool
	report  func(*UE, error)
	pending int // per-UE legs of the current phase still outstanding
	// one backs members in the single procedures (no slice to allocate).
	one [1]member
}

// arrive marks one per-UE leg of the current phase done and reports whether
// it was the last. Phases run one after another, each setting pending to
// the cohort size, so one counter serves them all.
func (co *cohort) arrive() bool {
	co.pending--
	return co.pending == 0
}

// memberDone reports a member's success (batched cohorts) and concludes the
// procedure after the last member.
func (co *cohort) memberDone(ue *UE) {
	if co.batched {
		co.report(ue, nil)
	}
	if co.arrive() {
		co.finish(nil)
	}
}

// sendAttachRequest carries ue's NAS Attach Request from its eNB to the MME
// in an S1AP InitialUEMessage numbered enbUEID; then runs at the MME.
func (c *Core) sendAttachRequest(pr *proc, ue *UE, enbUEID uint32, then func()) {
	nas := c.encodeNAS(&pkt.NASMsg{
		Type: pkt.NASAttachRequest,
		IMSI: ue.IMSI,
		ESM:  &pkt.NASMsg{Type: pkt.NASActivateDefaultBearerRequest, APN: defaultAPN},
	})
	msg := &pkt.S1APMsg{Procedure: pkt.S1APInitialUEMessage, ENBUEID: enbUEID, NAS: nas}
	c.sendS1AP(pr, ue.enb.ep, c.mmeEP, msg, then)
}

// onInitialAttach handles an InitialUEMessage carrying an attach request:
// the MME validates the UE, opens its session and runs the attach legs for
// a cohort of one. co is the attach procedure opened at the eNB; it
// concludes when the attach completes or any leg fails terminally.
func (m *MME) onInitialAttach(co *cohort, ue *UE, sgwPlane, pgwPlane string) {
	c := m.core
	sub, ok := c.HSS.Lookup(ue.IMSI)
	if !ok {
		co.finish(fmt.Errorf("epc: IMSI %s unknown to HSS", ue.IMSI))
		return
	}
	if c.sessions[ue.IMSI] != nil {
		co.finish(fmt.Errorf("epc: IMSI %s already attached", ue.IMSI))
		return
	}
	planes, err := c.internPlanes(sgwPlane, pgwPlane)
	if err != nil {
		co.finish(fmt.Errorf("epc: unknown default planes %q/%q", sgwPlane, pgwPlane))
		return
	}
	co.members = append(co.one[:0], c.newSession(ue, c.internAPN(defaultAPN, planes), sub.DefaultQoS))
	co.onError(func() { c.unwindAttach(co.members) })
	c.attach(co)
}

// newSession opens ue's session at its serving eNB in StateConnecting,
// with the default bearer it attaches on apn's planes. The bearer joins
// the session's Bearers once the Modify Bearer exchange is done.
func (c *Core) newSession(ue *UE, apn *APNProfile, qos pkt.BearerQoS) member {
	c.MME.Attaches++
	c.nextUEID++
	sess := &Session{
		IMSI:       ue.IMSI,
		ENB:        ue.enb,
		UE:         ue,
		APN:        apn,
		MMEUEID:    c.nextUEID,
		ENBUEID:    c.nextUEID | 0x1000000,
		AttachedAt: c.Eng.Now(),
	}
	sess.setState(c.Eng, StateConnecting)
	c.sessions[ue.IMSI] = sess
	return member{sess: sess, b: &Bearer{EBI: EBIDefault, QoS: c.internQoS(qos), Planes: apn.Planes}}
}

// unwindAttach ends a failed attach's half-built sessions so each UE can
// retry from scratch; both attach procedures register it with onError. A
// failure after Initial Context Setup has mapped the default bearer at the
// eNB, so the radio context is released too (a no-op before that leg).
func (c *Core) unwindAttach(members []member) {
	for _, m := range members {
		m.sess.ENB.releaseContext(m.sess)
		c.endSession(m.sess)
	}
}

// attach runs the attach legs for a cohort whose sessions are open: the
// Create Session chain, each member's Initial Context Setup, one Modify
// Bearer exchange, then each member's flows and attach completion.
func (c *Core) attach(co *cohort) {
	c.createSessions(co, func() {
		setUp := func() {
			if !co.arrive() {
				return
			}
			c.modifyBearers(co, func() {
				co.pending = len(co.members)
				for _, m := range co.members {
					m.sess.Bearers[m.b.EBI] = m.b
					c.installBearerFlows(m.sess, m.b)
					c.sendAttachComplete(co, m.sess)
				}
			})
		}
		co.pending = len(co.members)
		for _, m := range co.members {
			c.setupDefaultBearer(&co.proc, m.sess, m.b, setUp)
		}
	})
}

// createSessions runs the Create Session chain for a cohort, MME -> SGW-C
// -> PGW-C and back on S11 and S5, one message per hop carrying every
// member's default bearer; the first member fills the message-level
// fields. then runs at the MME on the last response.
func (c *Core) createSessions(co *cohort, then func()) {
	imsi, imsis := cohortIMSIs(co.members)
	ctxs, _ := c.bearerContexts(len(co.members))
	for i, m := range co.members {
		ctxs[i] = pkt.BearerContext{EBI: m.b.EBI, QoS: m.b.QoS}
	}
	req := &pkt.GTPv2Msg{Type: pkt.GTPv2CreateSessionRequest, IMSI: imsi, IMSIs: imsis, Bearers: ctxs}
	c.sendGTPv2(&co.proc, c.mmeEP, c.sgwEP, req, func() {
		imsi, imsis := cohortIMSIs(co.members)
		ctxs, _ := c.bearerContexts(len(co.members))
		for i, m := range co.members {
			m.b.S1UL = c.SGWC.teids.alloc()
			m.b.S5DL = c.SGWC.teids.alloc()
			ctxs[i] = pkt.BearerContext{EBI: m.b.EBI, QoS: m.b.QoS}
		}
		first := co.members[0]
		fwd := &pkt.GTPv2Msg{
			Type: pkt.GTPv2CreateSessionRequest, IMSI: imsi, IMSIs: imsis,
			SenderFTEID: &pkt.FTEID{IfaceType: pkt.FTEIDIfaceS5SGW, TEID: first.b.S5DL, Addr: first.b.Planes.SGW.Addr()},
			Bearers:     ctxs,
		}
		c.sendGTPv2(&co.proc, c.sgwEP, c.pgwEP, fwd, func() {
			ctxs, _ := c.bearerContexts(len(co.members))
			for i, m := range co.members {
				m.sess.UEIP = m.sess.UE.Addr()
				c.byIP[m.sess.UEIP] = m.sess
				m.b.S5UL = c.PGWC.teids.alloc()
				ctxs[i] = pkt.BearerContext{EBI: m.b.EBI, Cause: pkt.GTPv2CauseAccepted}
			}
			first := co.members[0]
			resp := &pkt.GTPv2Msg{
				Type:  pkt.GTPv2CreateSessionResponse,
				Cause: pkt.GTPv2CauseAccepted, PAA: first.sess.UEIP,
				SenderFTEID: &pkt.FTEID{IfaceType: pkt.FTEIDIfaceS5PGW, TEID: first.b.S5UL, Addr: first.b.Planes.PGW.Addr()},
				Bearers:     ctxs,
			}
			c.sendGTPv2(&co.proc, c.pgwEP, c.sgwEP, resp, func() {
				ctxs, fteids := c.bearerContexts(len(co.members))
				for i, m := range co.members {
					fteids[i] = m.b.s1uSGW()
					ctxs[i] = pkt.BearerContext{EBI: m.b.EBI, Cause: pkt.GTPv2CauseAccepted, FTEIDs: fteids[i : i+1]}
				}
				resp2 := &pkt.GTPv2Msg{
					Type:  pkt.GTPv2CreateSessionResponse,
					Cause: pkt.GTPv2CauseAccepted, PAA: co.members[0].sess.UEIP,
					Bearers: ctxs,
				}
				c.sendGTPv2(&co.proc, c.sgwEP, c.mmeEP, resp2, then)
			})
		})
	})
}

// setupDefaultBearer runs one member's Initial Context Setup: the E-RAB
// setup of its default bearer, carrying the NAS Attach Accept. then runs at
// the MME on the response.
func (c *Core) setupDefaultBearer(pr *proc, sess *Session, b *Bearer, then func()) {
	acceptNAS := c.encodeNAS(&pkt.NASMsg{
		Type: pkt.NASAttachAccept,
		ESM: &pkt.NASMsg{
			Type: pkt.NASActivateDefaultBearerRequest,
			EBI:  b.EBI, APN: sess.APN.Name, UEIP: sess.UEIP, QoS: b.QoS,
		},
	})
	c.setupERABs(pr, sess, sess.ENB, pkt.S1APInitialContextSetupRequest, acceptNAS, b, nil, then)
}

// modifyBearers sends the cohort's eNB F-TEIDs to the SGW-C in one Modify
// Bearer exchange; then runs at the MME on the response. This is where the
// two attach procedures' wire formats differ: UE.Attach's response echoes
// the default bearer's context, AttachBatch's acknowledges the cohort with
// the cause alone.
func (c *Core) modifyBearers(co *cohort, then func()) {
	imsi, imsis := cohortIMSIs(co.members)
	ctxs, fteids := c.bearerContexts(len(co.members))
	for i, m := range co.members {
		fteids[i] = m.b.s1uENB(m.sess.ENB)
		ctxs[i] = pkt.BearerContext{EBI: m.b.EBI, FTEIDs: fteids[i : i+1]}
	}
	req := &pkt.GTPv2Msg{Type: pkt.GTPv2ModifyBearerRequest, IMSI: imsi, IMSIs: imsis, Bearers: ctxs}
	c.sendGTPv2(&co.proc, c.mmeEP, c.sgwEP, req, func() {
		var echo []pkt.BearerContext
		if !co.batched {
			echo = []pkt.BearerContext{{EBI: co.members[0].b.EBI, Cause: pkt.GTPv2CauseAccepted}}
		}
		resp := &pkt.GTPv2Msg{Type: pkt.GTPv2ModifyBearerResponse, Cause: pkt.GTPv2CauseAccepted, Bearers: echo}
		c.sendGTPv2(&co.proc, c.sgwEP, c.mmeEP, resp, then)
	})
}

// sendAttachComplete carries one member's NAS Attach Complete to the MME,
// which marks the UE attached and its session connected.
func (c *Core) sendAttachComplete(co *cohort, sess *Session) {
	msg := &pkt.S1APMsg{
		Procedure: pkt.S1APUplinkNASTransport,
		ENBUEID:   sess.ENBUEID, MMEUEID: sess.MMEUEID,
		NAS: c.encodeNAS(&pkt.NASMsg{Type: pkt.NASAttachComplete}),
	}
	c.sendS1AP(&co.proc, sess.ENB.ep, c.mmeEP, msg, func() {
		sess.UE.completeAttach(sess)
		sess.setState(c.Eng, StateConnected)
		co.memberDone(sess.UE)
	})
}

// detach runs the detach legs for a cohort: one Delete Session chain, then
// each member's UE Context Release, after which its session ends.
func (c *Core) detach(co *cohort) {
	c.deleteSessions(co, func() {
		co.pending = len(co.members)
		for _, m := range co.members {
			sess := m.sess
			c.releaseUEContext(&co.proc, sess, causeDetach, func() {
				c.endSession(sess)
				co.memberDone(sess.UE)
			})
		}
	})
}

// deleteSessions runs the Delete Session chain for a cohort on S11 and S5;
// the PGW-C drops every member's flows and returns its GBR reservations.
// then runs at the MME on the last response.
func (c *Core) deleteSessions(co *cohort, then func()) {
	imsi, imsis := cohortIMSIs(co.members)
	req := &pkt.GTPv2Msg{Type: pkt.GTPv2DeleteSessionRequest, IMSI: imsi, IMSIs: imsis}
	c.sendGTPv2(&co.proc, c.mmeEP, c.sgwEP, req, func() {
		imsi, imsis := cohortIMSIs(co.members)
		fwd := &pkt.GTPv2Msg{Type: pkt.GTPv2DeleteSessionRequest, IMSI: imsi, IMSIs: imsis}
		c.sendGTPv2(&co.proc, c.sgwEP, c.pgwEP, fwd, func() {
			for _, m := range co.members {
				c.releaseSessionResources(m.sess)
			}
			resp := &pkt.GTPv2Msg{Type: pkt.GTPv2DeleteSessionResponse, Cause: pkt.GTPv2CauseAccepted}
			c.sendGTPv2(&co.proc, c.pgwEP, c.sgwEP, resp, func() {
				resp2 := &pkt.GTPv2Msg{Type: pkt.GTPv2DeleteSessionResponse, Cause: pkt.GTPv2CauseAccepted}
				c.sendGTPv2(&co.proc, c.sgwEP, c.mmeEP, resp2, then)
			})
		})
	})
}

// UE Context Release causes.
const (
	causeDetach         = 3  // NAS detach
	causeUserInactivity = 20 // the eNB's inactivity timer fired
)

// releaseUEContext runs the UE Context Release pair: the MME commands the
// eNB to drop the UE's radio context and the eNB confirms. Only the cause
// tells a detach from an idle release. then runs at the MME on the
// confirmation.
func (c *Core) releaseUEContext(pr *proc, sess *Session, cause uint8, then func()) {
	cmd := &pkt.S1APMsg{
		Procedure: pkt.S1APUEContextReleaseCommand,
		ENBUEID:   sess.ENBUEID, MMEUEID: sess.MMEUEID, Cause: cause,
	}
	c.sendS1AP(pr, c.mmeEP, sess.ENB.ep, cmd, func() {
		sess.ENB.releaseContext(sess)
		complete := &pkt.S1APMsg{
			Procedure: pkt.S1APUEContextReleaseComplete,
			ENBUEID:   sess.ENBUEID, MMEUEID: sess.MMEUEID,
		}
		c.sendS1AP(pr, sess.ENB.ep, c.mmeEP, complete, then)
	})
}

// cohortIMSIs names a cohort in a session-level GTPv2 message: the first
// member's IMSI, and the others for the batch-IMSI IEs — none for a cohort
// of one, whose messages encode to the single-UE bytes.
func cohortIMSIs(members []member) (string, []string) {
	extra := make([]string, 0, len(members)-1)
	for _, m := range members[1:] {
		extra = append(extra, m.sess.IMSI)
	}
	return members[0].sess.IMSI, extra
}

// --- S1 release (idle transition) ---

// onReleaseRequest handles the eNB's UE Context Release Request after the
// inactivity timer fires.
func (m *MME) onReleaseRequest(pr *proc, sess *Session) {
	c := m.core
	if sess.State != StateConnected {
		pr.finish(nil)
		return
	}
	m.Releases++
	sess.setState(c.Eng, StateIdle)
	// MME -> SGW-C: Release Access Bearers (drops eNB-facing state).
	raReq := &pkt.GTPv2Msg{Type: pkt.GTPv2ReleaseAccessBearersRequest, IMSI: sess.IMSI}
	c.sendGTPv2(pr, c.mmeEP, c.sgwEP, raReq, func() {
		// SGW-C deletes the SGW-U downlink rules: later downlink traffic
		// misses and triggers paging.
		for _, b := range sess.OrderedBearers() {
			c.removeSGWDownlink(sess, b)
		}
		raResp := &pkt.GTPv2Msg{Type: pkt.GTPv2ReleaseAccessBearersResponse, Cause: pkt.GTPv2CauseAccepted}
		c.sendGTPv2(pr, c.sgwEP, c.mmeEP, raResp, func() {
			c.releaseUEContext(pr, sess, causeUserInactivity, func() { pr.finish(nil) })
		})
	})
}

// --- Service request (promotion) ---

// onServiceRequest handles the eNB's InitialUEMessage{Service Request} when
// an idle UE has data to send (or responds to paging): every bearer's E-RAB
// is set up afresh, the Modify Bearer exchange repoints the SGW-U downlink
// rules at the new eNB TEIDs, and the NAS Service Accept closes the
// promotion.
func (m *MME) onServiceRequest(pr *proc, sess *Session) {
	c := m.core
	if sess.State != StateIdle {
		pr.finish(nil)
		return
	}
	m.Promotions++
	sess.setState(c.Eng, StatePromoting)
	c.setupERABs(pr, sess, sess.ENB, pkt.S1APInitialContextSetupRequest, nil, nil, nil, func() {
		c.modifySessionBearers(pr, sess, nil, func() {
			accept := &pkt.S1APMsg{
				Procedure: pkt.S1APDownlinkNASTransport,
				ENBUEID:   sess.ENBUEID, MMEUEID: sess.MMEUEID,
				NAS: c.encodeNAS(&pkt.NASMsg{Type: pkt.NASServiceAccept}),
			}
			c.sendS1AP(pr, c.mmeEP, sess.ENB.ep, accept, func() {
				sess.setState(c.Eng, StateConnected)
				sess.ENB.flushUplink(sess)
				pr.finish(nil)
			})
		})
	})
}

// page sends an S1AP Paging message and delivers the page to the UE over
// the radio; the UE answers with a service request.
func (m *MME) page(sess *Session) {
	c := m.core
	if sess.State != StateIdle {
		return
	}
	m.Pagings++
	pr := newProc(nil)
	msg := &pkt.S1APMsg{Procedure: pkt.S1APPaging, MMEUEID: sess.MMEUEID}
	c.sendS1AP(pr, c.mmeEP, sess.ENB.ep, msg, func() {
		sess.ENB.pageUE(sess)
		pr.finish(nil)
	})
}

// --- Bearer legs ---
//
// Every bearer-level exchange is built and sent in one function below:
// setupERABs is the E-RAB setup of attach, promotion, handover and
// dedicated bearer activation; modifySessionBearers is the one-session
// Modify Bearer exchange of promotion and the handover path switch; and
// createBearer and deleteBearer (gateways.go) are the dedicated bearer's
// Create and Delete Bearer chains.

// setupERABs runs one E-RAB setup exchange. The MME sends req — an Initial
// Context Setup, Handover or E-RAB Setup Request — to enb, listing bearer b,
// or every bearer of sess when b is nil, with nas (may be nil); enb answers
// (ENB.admitERABs). atENB (may be nil) runs at the eNB before it maps the
// bearers; then runs at the MME on the response.
func (c *Core) setupERABs(pr *proc, sess *Session, enb *ENB, req pkt.S1APProcedure, nas []byte, b *Bearer, atENB, then func()) {
	// The one wire difference between the setups: a Handover Request's
	// E-RABs carry no TFT — the UE keeps its TFTs across the move.
	withTFT := req != pkt.S1APHandoverRequest
	items := c.erabBuf[:0]
	for _, sb := range c.erabBearers(sess, b) {
		item := pkt.ERABItem{ERABID: sb.EBI, QoS: sb.QoS, Transport: sb.s1uSGW()}
		if withTFT {
			item.TFT = sb.TFT
		}
		items = append(items, item)
	}
	c.erabBuf = items
	msg := &pkt.S1APMsg{Procedure: req, ENBUEID: sess.ENBUEID, MMEUEID: sess.MMEUEID, NAS: nas, ERABs: items}
	c.sendS1AP(pr, c.mmeEP, enb.ep, msg, func() { enb.admitERABs(pr, sess, b, req, atENB, then) })
}

// admitERABs is the eNB half of setupERABs: after atENB, it maps each
// bearer to a fresh downlink TEID and answers req with the bearers' S1-U
// F-TEIDs; then runs at the MME on the response.
func (e *ENB) admitERABs(pr *proc, sess *Session, b *Bearer, req pkt.S1APProcedure, atENB, then func()) {
	c := e.core
	if atENB != nil {
		atENB()
	}
	items := c.erabBuf[:0]
	for _, sb := range c.erabBearers(sess, b) {
		sb.S1DL = e.attachBearer(sess, sb)
		items = append(items, pkt.ERABItem{ERABID: sb.EBI, Transport: sb.s1uENB(e)})
	}
	c.erabBuf = items
	resp := &pkt.S1APMsg{Procedure: erabSetupResponse(req), ENBUEID: sess.ENBUEID, MMEUEID: sess.MMEUEID, ERABs: items}
	c.sendS1AP(pr, e.ep, c.mmeEP, resp, then)
}

// erabBearers lists the bearers an E-RAB setup covers: b alone, in core
// scratch valid until the next call, or every bearer of sess when b is nil.
func (c *Core) erabBearers(sess *Session, b *Bearer) []*Bearer {
	if b == nil {
		return sess.OrderedBearers()
	}
	c.oneBearer[0] = b
	return c.oneBearer[:]
}

// erabSetupResponse names the eNB's answer to an E-RAB setup request.
func erabSetupResponse(req pkt.S1APProcedure) pkt.S1APProcedure {
	switch req {
	case pkt.S1APHandoverRequest:
		return pkt.S1APHandoverRequestAck
	case pkt.S1APERABSetupRequest:
		return pkt.S1APERABSetupResponse
	}
	return pkt.S1APInitialContextSetupResponse
}

// modifySessionBearers runs one session's Modify Bearer exchange on S11
// after its E-RABs were set up afresh, by promotion or at a handover
// target: the MME sends every bearer's eNB F-TEID, and the SGW-C re-installs
// each bearer's SGW-U downlink rule toward it (the PGW-U side is unchanged).
// atSGW (may be nil) runs at the SGW-C after the re-install; then runs at
// the MME on the response.
func (c *Core) modifySessionBearers(pr *proc, sess *Session, atSGW, then func()) {
	bearers := sess.OrderedBearers()
	ctxs, fteids := c.bearerContexts(len(bearers))
	for i, b := range bearers {
		fteids[i] = b.s1uENB(sess.ENB)
		ctxs[i] = pkt.BearerContext{EBI: b.EBI, FTEIDs: fteids[i : i+1]}
	}
	req := &pkt.GTPv2Msg{Type: pkt.GTPv2ModifyBearerRequest, IMSI: sess.IMSI, Bearers: ctxs}
	c.sendGTPv2(pr, c.mmeEP, c.sgwEP, req, func() {
		for _, b := range sess.OrderedBearers() {
			c.installSGWDownlink(sess, b)
		}
		if atSGW != nil {
			atSGW()
		}
		resp := &pkt.GTPv2Msg{Type: pkt.GTPv2ModifyBearerResponse, Cause: pkt.GTPv2CauseAccepted}
		c.sendGTPv2(pr, c.sgwEP, c.mmeEP, resp, then)
	})
}
