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
	// Handovers is reported as epc/handover/completed.
	Handovers uint64

	// OnHandoverComplete, when set, fires after a successful handover's
	// path switch with the session and the eNBs it moved between. The MRS
	// hooks it to learn the UE's new serving cell and rebind the MEC
	// session when the move crosses edge-site coverage.
	OnHandoverComplete func(sess *Session, source, target *ENB)

	// Handover telemetry (registered by NewCore).
	hoScope   telemetry.Scope
	hoFailed  *telemetry.Counter
	hoGap     *telemetry.Histogram
	hoDetails map[hoRoute]string // see hoDetail
}

// AppendMetrics reports Handovers as epc/handover/completed: the MME is the
// telemetry.Source NewCore registers.
func (m *MME) AppendMetrics(dst []telemetry.Metric) []telemetry.Metric {
	return append(dst, telemetry.Metric{Name: "epc/handover/completed", Kind: telemetry.KindCounter, Count: m.Handovers})
}

// --- Attach and detach ---
//
// Every exchange of attach, detach and idle release is built and sent in
// one place below. UE.Attach and UE.Detach run them over a cohort of
// one, AttachBatch and DetachBatch (batch.go) over many; a cohort of one
// encodes exactly as the single-UE messages. The single and batched
// procedures differ in three places, each explicit once: where the attach
// is validated (onInitialAttach, AttachBatch), the Modify Bearer Response
// (mbAtSGW) and the Uplink NAS Transport that opens UE.Detach.

// member is one UE's slot in a cohort: its session and, while it attaches,
// the default bearer being built.
type member struct {
	sess *Session
	b    *Bearer
}

// cohort is the pooled record of an attach or detach procedure over one
// UE (UE.Attach, UE.Detach) or several (AttachBatch, DetachBatch): the
// members its legs run over, how it reports (batched cohorts report each
// member), and for UE.Attach the UE and planes the MME validates.
type cohort struct {
	proc
	*Core
	members            []member
	batched, detach    bool
	report             func(*UE, error)
	attachDone         func(error)
	detachDone         func()
	pending            int // per-UE legs of the current phase still outstanding
	ue                 *UE
	sgwPlane, pgwPlane string

	arrivedF, csAtSGWF, csAtPGWF, csBackF, createdF, setUpF, mbAtSGWF, modifiedF func()
	deleteF, dsAtSGWF, dsAtPGWF, dsBackF, deletedF                               func()
	attachedF, releasedF                                                         func(*Session)
}

// takeCohort takes a cohort record for a new procedure.
func (c *Core) takeCohort(detach, batched bool) *cohort {
	co := c.cohorts.Take()
	if co.Core == nil {
		c.bindCohort(co)
	}
	co.restart()
	co.detach, co.batched, co.members = detach, batched, co.members[:0]
	return co
}

// bindCohort readies a fresh cohort record, binding its legs once.
//
//go:noinline
func (c *Core) bindCohort(co *cohort) {
	co.Core = c
	co.end, co.undo, co.arrivedF, co.csAtSGWF, co.csAtPGWF, co.csBackF = co.ended, co.unwind, co.arrived, co.csAtSGW, co.csAtPGW, co.csBack
	co.createdF, co.setUpF, co.mbAtSGWF, co.modifiedF, co.attachedF = co.created, co.setUp, co.mbAtSGW, co.modified, co.attached
	co.deleteF, co.dsAtSGWF, co.dsAtPGWF, co.dsBackF, co.deletedF, co.releasedF = co.deleteSessions, co.dsAtSGW, co.dsAtPGW, co.dsBack, co.deleted, co.released
}

// ended reports the outcome and recycles the record. A failed batch
// reports to every member, and a detach whose signalling failed
// force-releases each session locally so no UE stays half-attached.
func (co *cohort) ended(err error) {
	for _, m := range co.members {
		if err != nil && co.detach {
			co.forceDetach(m.sess)
		}
		if err != nil && co.batched {
			co.report(m.sess.UE, err)
		}
	}
	attachDone, detachDone := co.attachDone, co.detachDone
	clear(co.members)
	co.report, co.attachDone, co.detachDone, co.ue = nil, nil, nil, nil
	co.cohorts.Put(co)
	switch {
	case co.batched:
	case co.detach && detachDone != nil:
		detachDone()
	case !co.detach && attachDone != nil:
		attachDone(err)
	}
}

// unwind ends a failed attach's half-built sessions so each UE can retry
// from scratch (stage 1: the sessions are open). A failure after Initial
// Context Setup has mapped the default bearer at the eNB, so the radio
// context is released too (a no-op before that leg).
func (co *cohort) unwind() {
	if co.stage == 0 {
		return
	}
	for _, m := range co.members {
		m.sess.ENB.releaseContext(m.sess)
		co.endSession(m.sess)
	}
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
// in an S1AP InitialUEMessage numbered enbUEID; the cohort's arrived leg
// runs at the MME.
func (co *cohort) sendAttachRequest(ue *UE, enbUEID uint32) {
	nas := co.encodeNAS(&pkt.NASMsg{
		Type: pkt.NASAttachRequest,
		IMSI: ue.IMSI,
		ESM:  &pkt.NASMsg{Type: pkt.NASActivateDefaultBearerRequest, APN: defaultAPN},
	})
	msg := &pkt.S1APMsg{Procedure: pkt.S1APInitialUEMessage, ENBUEID: enbUEID, NAS: nas}
	co.sendS1AP(co.takeLeg(&co.proc, co.arrivedF), ue.enb.ep, co.mmeEP, msg)
}

// arrived is an InitialUEMessage landing at the MME: UE.Attach's is
// validated there (onInitialAttach); a batch's shared legs start once the
// last member's lands.
func (co *cohort) arrived() {
	if !co.batched {
		co.MME.onInitialAttach(co)
	} else if co.arrive() {
		co.attach()
	}
}

// onInitialAttach handles UE.Attach's InitialUEMessage: the MME validates
// the UE, opens its session and runs the attach legs for a cohort of one,
// which concludes when the attach completes or any leg fails terminally.
func (m *MME) onInitialAttach(co *cohort) {
	c, ue := m.core, co.ue
	if _, ok := c.HSS.Lookup(ue.IMSI); !ok {
		co.finish(fmt.Errorf("epc: IMSI %s unknown to HSS", ue.IMSI))
		return
	}
	if c.sessions[ue.IMSI] != nil {
		co.finish(fmt.Errorf("epc: IMSI %s already attached", ue.IMSI))
		return
	}
	planes, err := c.internPlanes(co.sgwPlane, co.pgwPlane)
	if err != nil {
		co.finish(fmt.Errorf("epc: unknown default planes %q/%q", co.sgwPlane, co.pgwPlane))
		return
	}
	co.members, co.stage = append(co.members, c.newSession(ue, planes)), 1
	co.attach()
}

// newSession opens ue's session at its serving eNB in StateConnecting,
// with the default bearer it attaches on planes. The bearer joins the
// session's Bearers once the Modify Bearer exchange is done.
func (c *Core) newSession(ue *UE, planes *PlanePair) member {
	c.nextUEID++
	sess := c.sessRecs.Take()
	sess.IMSI, sess.ENB, sess.UE = ue.IMSI, ue.enb, ue
	sess.MMEUEID, sess.ENBUEID = c.nextUEID, c.nextUEID|0x1000000
	sess.setState(c.Eng, StateConnecting)
	c.sessions[ue.IMSI] = sess
	b := c.bearerRecs.Take()
	b.EBI, b.QoS, b.Planes = EBIDefault, defaultQoS, planes
	return member{sess: sess, b: b}
}

// attach runs the attach legs for a cohort whose sessions are open: the
// Create Session chain, each member's Initial Context Setup, one Modify
// Bearer exchange, then each member's flows and attach completion.
//
// The Create Session chain runs MME -> SGW-C -> PGW-C and back on S11 and
// S5, one message per hop carrying every member's default bearer; the
// first member fills the message-level fields.
func (co *cohort) attach() {
	imsi, imsis := co.cohortIMSIs(co.members)
	ctxs, _ := co.bearerContexts(len(co.members))
	for i, m := range co.members {
		ctxs[i] = pkt.BearerContext{EBI: m.b.EBI, QoS: &m.b.QoS}
	}
	req := &pkt.GTPv2Msg{Type: pkt.GTPv2CreateSessionRequest, IMSI: imsi, IMSIs: imsis, Bearers: ctxs}
	co.sendGTPv2(co.takeLeg(&co.proc, co.csAtSGWF), co.mmeEP, co.sgwEP, req)
}

func (co *cohort) csAtSGW() {
	imsi, imsis := co.cohortIMSIs(co.members)
	ctxs, _ := co.bearerContexts(len(co.members))
	for i, m := range co.members {
		m.b.S1UL = co.SGWC.teids.alloc()
		m.b.S5DL = co.SGWC.teids.alloc()
		ctxs[i] = pkt.BearerContext{EBI: m.b.EBI, QoS: &m.b.QoS}
	}
	first := co.members[0]
	fwd := &pkt.GTPv2Msg{
		Type: pkt.GTPv2CreateSessionRequest, IMSI: imsi, IMSIs: imsis,
		SenderFTEID: &pkt.FTEID{IfaceType: pkt.FTEIDIfaceS5SGW, TEID: first.b.S5DL, Addr: first.b.Planes.SGW.Addr()},
		Bearers:     ctxs,
	}
	co.sendGTPv2(co.takeLeg(&co.proc, co.csAtPGWF), co.sgwEP, co.pgwEP, fwd)
}

func (co *cohort) csAtPGW() {
	ctxs, _ := co.bearerContexts(len(co.members))
	for i, m := range co.members {
		m.sess.UEIP = m.sess.UE.Addr()
		co.byIP[m.sess.UEIP] = m.sess
		m.b.S5UL = co.PGWC.teids.alloc()
		ctxs[i] = pkt.BearerContext{EBI: m.b.EBI, Cause: pkt.GTPv2CauseAccepted}
	}
	first := co.members[0]
	resp := &pkt.GTPv2Msg{
		Type:  pkt.GTPv2CreateSessionResponse,
		Cause: pkt.GTPv2CauseAccepted, PAA: first.sess.UEIP,
		SenderFTEID: &pkt.FTEID{IfaceType: pkt.FTEIDIfaceS5PGW, TEID: first.b.S5UL, Addr: first.b.Planes.PGW.Addr()},
		Bearers:     ctxs,
	}
	co.sendGTPv2(co.takeLeg(&co.proc, co.csBackF), co.pgwEP, co.sgwEP, resp)
}

func (co *cohort) csBack() {
	ctxs, fteids := co.bearerContexts(len(co.members))
	for i, m := range co.members {
		fteids[i] = m.b.s1uSGW()
		ctxs[i] = pkt.BearerContext{EBI: m.b.EBI, Cause: pkt.GTPv2CauseAccepted, FTEIDs: fteids[i : i+1]}
	}
	resp := &pkt.GTPv2Msg{
		Type:  pkt.GTPv2CreateSessionResponse,
		Cause: pkt.GTPv2CauseAccepted, PAA: co.members[0].sess.UEIP,
		Bearers: ctxs,
	}
	co.sendGTPv2(co.takeLeg(&co.proc, co.createdF), co.sgwEP, co.mmeEP, resp)
}

// created runs each member's Initial Context Setup: the E-RAB setup of its
// default bearer, carrying the NAS Attach Accept.
func (co *cohort) created() {
	co.pending = len(co.members)
	for _, m := range co.members {
		acceptNAS := co.encodeNAS(&pkt.NASMsg{
			Type: pkt.NASAttachAccept,
			ESM: &pkt.NASMsg{
				Type: pkt.NASActivateDefaultBearerRequest,
				EBI:  m.b.EBI, APN: defaultAPN, UEIP: m.sess.UEIP, QoS: &m.b.QoS,
			},
		})
		co.setupERABs(&co.proc, m.sess, m.sess.ENB, pkt.S1APInitialContextSetupRequest, acceptNAS, m.b, nil, co.setUpF)
	}
}

// setUp is a member's Initial Context Setup Response; after the last, the
// cohort's eNB F-TEIDs go to the SGW-C in one Modify Bearer exchange.
func (co *cohort) setUp() {
	if !co.arrive() {
		return
	}
	imsi, imsis := co.cohortIMSIs(co.members)
	ctxs, fteids := co.bearerContexts(len(co.members))
	for i, m := range co.members {
		fteids[i] = m.b.s1uENB(m.sess.ENB)
		ctxs[i] = pkt.BearerContext{EBI: m.b.EBI, FTEIDs: fteids[i : i+1]}
	}
	req := &pkt.GTPv2Msg{Type: pkt.GTPv2ModifyBearerRequest, IMSI: imsi, IMSIs: imsis, Bearers: ctxs}
	co.sendGTPv2(co.takeLeg(&co.proc, co.mbAtSGWF), co.mmeEP, co.sgwEP, req)
}

// mbAtSGW answers the Modify Bearer Request. This is where the two attach
// procedures' wire formats differ: UE.Attach's response echoes the default
// bearer's context, AttachBatch's acknowledges the cohort with the cause
// alone.
func (co *cohort) mbAtSGW() {
	var echo []pkt.BearerContext
	if !co.batched {
		echo = []pkt.BearerContext{{EBI: co.members[0].b.EBI, Cause: pkt.GTPv2CauseAccepted}}
	}
	resp := &pkt.GTPv2Msg{Type: pkt.GTPv2ModifyBearerResponse, Cause: pkt.GTPv2CauseAccepted, Bearers: echo}
	co.sendGTPv2(co.takeLeg(&co.proc, co.modifiedF), co.sgwEP, co.mmeEP, resp)
}

// modified installs each member's flows and carries its NAS Attach
// Complete to the MME, which marks the UE attached and its session
// connected (attached).
func (co *cohort) modified() {
	co.pending = len(co.members)
	for _, m := range co.members {
		sess := m.sess
		sess.Bearers[m.b.EBI] = m.b
		co.installBearerFlows(sess, m.b)
		msg := sess.s1ap(pkt.S1APUplinkNASTransport, 0, co.encodeNAS(&pkt.NASMsg{Type: pkt.NASAttachComplete}))
		l := co.takeLeg(&co.proc, nil)
		l.each, l.sess = co.attachedF, sess
		co.sendS1AP(l, sess.ENB.ep, co.mmeEP, msg)
	}
}

func (co *cohort) attached(sess *Session) {
	sess.UE.completeAttach(sess)
	sess.setState(co.Eng, StateConnected)
	co.memberDone(sess.UE)
}

// deleteSessions runs the detach legs for a cohort: one Delete Session
// chain on S11 and S5, in which the PGW-C drops every member's flows and
// returns its GBR reservations, then each member's UE Context Release,
// after which its session ends.
func (co *cohort) deleteSessions() {
	imsi, imsis := co.cohortIMSIs(co.members)
	req := &pkt.GTPv2Msg{Type: pkt.GTPv2DeleteSessionRequest, IMSI: imsi, IMSIs: imsis}
	co.sendGTPv2(co.takeLeg(&co.proc, co.dsAtSGWF), co.mmeEP, co.sgwEP, req)
}

func (co *cohort) dsAtSGW() {
	imsi, imsis := co.cohortIMSIs(co.members)
	fwd := &pkt.GTPv2Msg{Type: pkt.GTPv2DeleteSessionRequest, IMSI: imsi, IMSIs: imsis}
	co.sendGTPv2(co.takeLeg(&co.proc, co.dsAtPGWF), co.sgwEP, co.pgwEP, fwd)
}

func (co *cohort) dsAtPGW() {
	for _, m := range co.members {
		co.releaseSessionResources(m.sess)
	}
	resp := &pkt.GTPv2Msg{Type: pkt.GTPv2DeleteSessionResponse, Cause: pkt.GTPv2CauseAccepted}
	co.sendGTPv2(co.takeLeg(&co.proc, co.dsBackF), co.pgwEP, co.sgwEP, resp)
}

func (co *cohort) dsBack() {
	resp := &pkt.GTPv2Msg{Type: pkt.GTPv2DeleteSessionResponse, Cause: pkt.GTPv2CauseAccepted}
	co.sendGTPv2(co.takeLeg(&co.proc, co.deletedF), co.sgwEP, co.mmeEP, resp)
}

func (co *cohort) deleted() {
	co.pending = len(co.members)
	for _, m := range co.members {
		co.releaseUEContext(&co.proc, m.sess, causeDetach, co.releasedF)
	}
}

func (co *cohort) released(sess *Session) {
	co.endSession(sess)
	co.memberDone(sess.UE)
}

// UE Context Release causes.
const (
	causeDetach         = 3  // NAS detach
	causeUserInactivity = 20 // the eNB's inactivity timer fired
)

// releaseUEContext runs the UE Context Release pair: the MME commands the
// eNB to drop the UE's radio context and the eNB confirms (release). Only
// the cause tells a detach from an idle release. then runs at the MME on
// the confirmation.
func (c *Core) releaseUEContext(pr *proc, sess *Session, cause uint8, then func(*Session)) {
	cmd := sess.s1ap(pkt.S1APUEContextReleaseCommand, cause, nil)
	l := c.takeLeg(pr, nil)
	l.far, l.each, l.sess = (*leg).release, then, sess
	c.sendS1AP(l, c.mmeEP, sess.ENB.ep, cmd)
}

// release is releaseUEContext's eNB half.
func (l *leg) release() {
	sess := l.sess
	sess.ENB.releaseContext(sess)
	complete := sess.s1ap(pkt.S1APUEContextReleaseComplete, 0, nil)
	l.c.sendS1AP(l.answer(), sess.ENB.ep, l.c.mmeEP, complete)
}

// cohortIMSIs names a cohort in a session-level GTPv2 message: the first
// member's IMSI, and the others for the batch-IMSI IEs — none for a cohort
// of one, whose messages encode to the single-UE bytes. The list is core
// scratch, valid until the next call.
func (c *Core) cohortIMSIs(members []member) (string, []string) {
	extra := c.imsiBuf[:0]
	for _, m := range members[1:] {
		extra = append(extra, m.sess.IMSI)
	}
	c.imsiBuf = extra
	return members[0].sess.IMSI, extra
}

// --- Idle mode: S1 release, paging and promotion ---

// Idle-mode procedures, by what a failure undoes (stage).
const (
	stageRelease   = iota // an S1 release: the access side, if the MME has the UE idle
	stagePage             // a page: the page
	stagePromotion        // a promotion: the page, and the access side if promoting
	stageBuffer           // a paging buffer: nothing (it never fails)
)

// idle is the pooled record of an idle-mode procedure on sess, which its
// stage names. An S1 release runs requested, rabAtSGW, rabBack and
// released; a page runs paged; a promotion by service request runs rach
// at enb, then serviced, setUp, modified and accepted. A paging buffer
// holds the SGW's buffered downlink (SGWC.bufferAndPage) and runs replay
// once the session is connected; the record keeps the buffer's backing
// from one use to the next.
type idle struct {
	proc
	*Core
	sess     *Session
	enb      *ENB
	buffered []bufferedDL

	requestedF, rabAtSGWF, rabBackF, pagedF, rachF, servicedF, setUpF, modifiedF, acceptedF, replayF func()
	releasedF                                                                                        func(*Session)
}

// takeIdle takes an idle-mode record for a new procedure on sess.
func (c *Core) takeIdle(sess *Session, stage uint8) *idle {
	id := c.idles.Take()
	if id.Core == nil {
		c.bindIdle(id)
	}
	id.restart()
	id.sess, id.stage = sess, stage
	return id
}

// bindIdle readies a fresh idle-mode record, binding its legs once.
//
//go:noinline
func (c *Core) bindIdle(id *idle) {
	id.Core = c
	id.end, id.undo, id.requestedF, id.rabAtSGWF, id.rabBackF, id.releasedF = id.ended, id.unwind, id.requested, id.rabAtSGW, id.rabBack, id.released
	id.pagedF, id.rachF, id.servicedF, id.setUpF, id.modifiedF, id.acceptedF = id.paged, id.rach, id.serviced, id.setUp, id.modified, id.accepted
	id.replayF = id.replay
}

// unwind drops a failed page's or promotion's page, so downlink pages
// again. A release the MME took up or a promotion it was running leaves
// the UE idle at every layer: the radio context goes, and so do the SGW-U
// downlink rules.
func (id *idle) unwind() {
	sess := id.sess
	if id.stage != stageRelease {
		id.SGWC.dropPage(sess)
	}
	if id.stage == stagePromotion && sess.State == StatePromoting {
		sess.setState(id.Eng, StateIdle)
	} else if id.stage != stageRelease || sess.State != StateIdle {
		return
	}
	sess.ENB.releaseContext(sess)
	for _, b := range sess.Bearers {
		if b != nil {
			id.removeSGWDownlink(sess, b)
		}
	}
}

// ended recycles the record: no idle-mode procedure reports its outcome.
func (id *idle) ended(error) {
	clear(id.buffered)
	id.sess, id.enb, id.buffered = nil, nil, id.buffered[:0]
	id.idles.Put(id)
}

// requested takes the eNB's UE Context Release Request up at the MME.
func (id *idle) requested() {
	sess := id.sess
	if sess.State != StateConnected {
		id.finish(nil)
		return
	}
	sess.setState(id.Eng, StateIdle)
	req := &pkt.GTPv2Msg{Type: pkt.GTPv2ReleaseAccessBearersRequest, IMSI: sess.IMSI}
	id.sendGTPv2(id.takeLeg(&id.proc, id.rabAtSGWF), id.mmeEP, id.sgwEP, req)
}

// rabAtSGW deletes the SGW-U downlink rules: later downlink traffic misses
// and triggers paging.
func (id *idle) rabAtSGW() {
	for _, b := range id.sess.Bearers {
		if b != nil {
			id.removeSGWDownlink(id.sess, b)
		}
	}
	resp := &pkt.GTPv2Msg{Type: pkt.GTPv2ReleaseAccessBearersResponse, Cause: pkt.GTPv2CauseAccepted}
	id.sendGTPv2(id.takeLeg(&id.proc, id.rabBackF), id.sgwEP, id.mmeEP, resp)
}

func (id *idle) rabBack() {
	id.releaseUEContext(&id.proc, id.sess, causeUserInactivity, id.releasedF)
}

func (id *idle) released(*Session) { id.finish(nil) }

// page sends an S1AP Paging for an idle session; the eNB pages the UE,
// which answers with a service request.
func (c *Core) page(sess *Session) {
	if sess.State != StateIdle {
		return
	}
	id := c.takeIdle(sess, stagePage)
	msg := &pkt.S1APMsg{Procedure: pkt.S1APPaging, MMEUEID: sess.MMEUEID}
	c.sendS1AP(c.takeLeg(&id.proc, id.pagedF), c.mmeEP, sess.ENB.ep, msg)
}

// paged delivers the page over the radio: after the paging cycle, an idle
// UE answers with a service request (pageAnswered).
func (id *idle) paged() {
	id.Eng.ScheduleArg(rachDelay, pageAnswered, id.sess)
	id.finish(nil)
}

// pageAnswered is the paging cycle's callback: a package-level function,
// so scheduling it binds no closure.
func pageAnswered(v any) {
	if sess := v.(*Session); sess.State == StateIdle {
		sess.ENB.sendServiceRequest(sess)
	}
}

// rach ends the promotion's RACH at the eNB that started it: the S1AP
// InitialUEMessage carries the NAS service request to the MME.
func (id *idle) rach() {
	sess := id.sess
	msg := &pkt.S1APMsg{
		Procedure: pkt.S1APInitialUEMessage,
		ENBUEID:   sess.ENBUEID,
		NAS:       id.encodeNAS(&pkt.NASMsg{Type: pkt.NASServiceRequest}),
	}
	// The MME sees the session as idle until it processes the request.
	sess.setState(id.Eng, StateIdle)
	id.sendS1AP(id.takeLeg(&id.proc, id.servicedF), id.enb.ep, id.mmeEP, msg)
}

// serviced takes an InitialUEMessage{Service Request} up at the MME: every
// E-RAB is set up afresh, the Modify Bearer exchange repoints the SGW-U
// downlink rules, and the NAS Service Accept reconnects the UE.
func (id *idle) serviced() {
	sess := id.sess
	if sess.State != StateIdle {
		id.finish(nil)
		return
	}
	sess.setState(id.Eng, StatePromoting)
	id.setupERABs(&id.proc, sess, sess.ENB, pkt.S1APInitialContextSetupRequest, nil, nil, nil, id.setUpF)
}

func (id *idle) setUp() { id.modifySessionBearers(&id.proc, id.sess, nil, id.modifiedF) }

func (id *idle) modified() {
	sess := id.sess
	accept := sess.s1ap(pkt.S1APDownlinkNASTransport, 0, id.encodeNAS(&pkt.NASMsg{Type: pkt.NASServiceAccept}))
	id.sendS1AP(id.takeLeg(&id.proc, id.acceptedF), id.mmeEP, sess.ENB.ep, accept)
}

func (id *idle) accepted() {
	sess := id.sess
	sess.setState(id.Eng, StateConnected)
	sess.ENB.flushUplink(sess)
	id.finish(nil)
}

// --- Bearer legs ---
//
// Every bearer-level exchange is built and sent in one function below:
// setupERABs is the E-RAB setup of attach, promotion, handover and
// dedicated bearer activation; modifySessionBearers is the one-session
// Modify Bearer exchange of promotion and the handover path switch; and
// the dedicated record's legs (gateways.go) are the dedicated bearer's
// Create and Delete Bearer chains.

// setupERABs runs one E-RAB setup exchange. The MME sends req — an Initial
// Context Setup, Handover or E-RAB Setup Request — to enb, listing bearer b,
// or every bearer of sess when b is nil, with nas (may be nil); enb answers
// (admit). atENB (may be nil) runs at the eNB before it maps the bearers;
// then runs at the MME on the response.
func (c *Core) setupERABs(pr *proc, sess *Session, enb *ENB, req pkt.S1APProcedure, nas []byte, b *Bearer, atENB, then func()) {
	// The one wire difference between the setups: a Handover Request's
	// E-RABs carry no TFT — the UE keeps its TFTs across the move.
	withTFT := req != pkt.S1APHandoverRequest
	items := c.erabBuf[:0]
	for _, sb := range c.sessionBearers(sess, b) {
		item := pkt.ERABItem{ERABID: sb.EBI, QoS: &sb.QoS, Transport: sb.s1uSGW()}
		if withTFT {
			item.TFT = sb.TFT
		}
		items = append(items, item)
	}
	c.erabBuf = items
	msg := &pkt.S1APMsg{Procedure: req, ENBUEID: sess.ENBUEID, MMEUEID: sess.MMEUEID, NAS: nas, ERABs: items}
	l := c.takeLeg(pr, nil)
	l.far, l.sess, l.enb, l.req, l.b, l.at, l.then = (*leg).admit, sess, enb, req, b, atENB, then
	c.sendS1AP(l, c.mmeEP, enb.ep, msg)
}

// admit is setupERABs' eNB half: after at, it maps each bearer to a fresh
// downlink TEID and answers the request with the bearers' S1-U F-TEIDs.
func (l *leg) admit() {
	c, e, sess := l.c, l.enb, l.sess
	if l.at != nil {
		l.at()
	}
	items := c.erabBuf[:0]
	for _, sb := range c.sessionBearers(sess, l.b) {
		sb.S1DL = e.attachBearer(sess, sb)
		items = append(items, pkt.ERABItem{ERABID: sb.EBI, Transport: sb.s1uENB(e)})
	}
	c.erabBuf = items
	resp := &pkt.S1APMsg{Procedure: erabSetupResponse(l.req), ENBUEID: sess.ENBUEID, MMEUEID: sess.MMEUEID, ERABs: items}
	c.sendS1AP(l.answer(), e.ep, c.mmeEP, resp)
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
// each bearer's SGW-U downlink rule toward it (repoint; the PGW-U side is
// unchanged). atSGW (may be nil) runs at the SGW-C after the re-install;
// then runs at the MME on the response.
func (c *Core) modifySessionBearers(pr *proc, sess *Session, atSGW, then func()) {
	bearers := c.sessionBearers(sess, nil)
	ctxs, fteids := c.bearerContexts(len(bearers))
	for i, b := range bearers {
		fteids[i] = b.s1uENB(sess.ENB)
		ctxs[i] = pkt.BearerContext{EBI: b.EBI, FTEIDs: fteids[i : i+1]}
	}
	req := &pkt.GTPv2Msg{Type: pkt.GTPv2ModifyBearerRequest, IMSI: sess.IMSI, Bearers: ctxs}
	l := c.takeLeg(pr, nil)
	l.far, l.sess, l.at, l.then = (*leg).repoint, sess, atSGW, then
	c.sendGTPv2(l, c.mmeEP, c.sgwEP, req)
}

// repoint is modifySessionBearers' SGW-C half.
func (l *leg) repoint() {
	c := l.c
	for _, b := range l.sess.Bearers {
		if b != nil {
			c.installSGWDownlink(l.sess, b)
		}
	}
	if l.at != nil {
		l.at()
	}
	resp := &pkt.GTPv2Msg{Type: pkt.GTPv2ModifyBearerResponse, Cause: pkt.GTPv2CauseAccepted}
	c.sendGTPv2(l.answer(), c.sgwEP, c.mmeEP, resp)
}
