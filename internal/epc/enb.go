package epc

import (
	"time"

	"acacia/internal/ctl"
	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sdn"
	"acacia/internal/sim"
)

// ENB is an eNodeB: the radio-side anchor. Its node's port 0 is the S1
// backhaul; each connected UE gets its own radio port. The eNB performs the
// S1 GTP-U encapsulation for uplink (choosing the bearer by re-evaluating
// the UE's TFTs, exactly as the radio-bearer mapping does), decapsulates
// downlink, tracks per-UE activity for the LTE inactivity timer, and
// buffers uplink packets across idle-to-connected promotions.
type ENB struct {
	core *Core
	node *netsim.Node

	// ep is the eNB's control endpoint; s1Link is its S1-MME link to the
	// MME. The eNB node carries both planes, so the packet handler diverts
	// control frames to the endpoint before data-plane dispatch.
	ep     *ctl.Endpoint
	s1Link *netsim.Link

	byUEIP map[pkt.Addr]*ueCtx
	// byRadio[id] is the context on radio port id, nil for the backhaul and
	// control ports. Contexts are never removed, so its order is connection
	// order — the order checkIdle releases UEs in.
	byRadio  []*ueCtx
	byDLTEID map[uint32]dlKey
	teids    teidAllocator

	// ULPackets counts uplink packets forwarded to the SGW-U.
	ULPackets uint64
}

type dlKey struct {
	ctx *ueCtx
	ebi uint8
}

type ueCtx struct {
	sess      *Session
	radioPort int // eNB-side port of the radio link
	uePort    int // UE-side port of the radio link
	connected bool
	// dlTEID[ebi-EBIDefault] is the bearer's key in byDLTEID, 0 for none:
	// the reverse index that drops one bearer's mapping without ranging
	// over every UE's.
	dlTEID   [16 - EBIDefault]uint32
	lastSeen sim.Time
	ulBuffer []*netsim.Packet
}

// maxULBuffer bounds uplink buffering during promotion.
const maxULBuffer = 64

// rachDelay models the radio-side latency of paging response and
// service-request ramp-up (RACH + RRC connection establishment).
const rachDelay = 50 * time.Millisecond

// NewENB wraps node as an eNodeB. Port 0 must already be connected to the
// backhaul before traffic flows.
func NewENB(core *Core, node *netsim.Node) *ENB {
	e := &ENB{
		core:     core,
		node:     node,
		byUEIP:   make(map[pkt.Addr]*ueCtx),
		byDLTEID: make(map[uint32]dlKey),
	}
	node.SetHandler(e.handle)
	e.ep = core.Txn.Endpoint(node, false)
	e.s1Link = ctl.Connect(e.ep, core.mmeEP,
		netsim.LinkConfig{BitsPerSecond: ctlLinkBps, Propagation: s1apDelay})
	sim.NewTicker(core.Eng, 500*time.Millisecond, e.checkIdle)
	return e
}

// Addr returns the eNB's S1-U endpoint address.
func (e *ENB) Addr() pkt.Addr { return e.node.Addr() }

// ConnectUE attaches a UE's radio link to this eNB. The returned link is
// the radio bearer path: ul configures the UE->eNB direction, dl the
// eNB->UE one, both with QCI-priority scheduling (the radio scheduler). A
// UE may be connected to several eNBs (neighbour cells); the first
// connection becomes its serving cell, later ones are handover candidates.
func (e *ENB) ConnectUE(ue *UE, ul, dl netsim.LinkConfig) *netsim.Link {
	ul.Prioritized, dl.Prioritized = true, true
	link := e.core.cfg.Net.Connect(ue.node, e.node, ul, dl)
	ctx := &ueCtx{radioPort: link.B.ID, uePort: link.A.ID}
	e.byUEIP[ue.Addr()] = ctx
	if n := link.B.ID + 1; n > len(e.byRadio) {
		e.byRadio = append(e.byRadio, make([]*ueCtx, n-len(e.byRadio))...)
	}
	e.byRadio[link.B.ID] = ctx
	if ue.enb == nil {
		ue.enb = e
		ue.servingPort = link.A.ID
	}
	return link
}

// Name reports the eNB's node name (used by the MRS for edge-site
// selection).
func (e *ENB) Name() string { return e.node.Name() }

// handle is the netsim packet handler.
func (e *ENB) handle(ingress *netsim.Port, p *netsim.Packet) {
	if ingress == nil {
		return
	}
	// S1-MME control frames arrive on the eNB's control port; everything
	// else is data plane.
	if f := ctl.FrameOf(p); f != nil {
		e.ep.Receive(p, f)
		return
	}
	if ingress.ID == 0 {
		// The eNB is the SGW's GTP-U path-management peer on S1-U: answer
		// echo supervision before downlink decapsulation would drop it.
		if sdn.AnswerGTPEcho(e.node.Addr(), ingress, p) {
			e.node.Network().Release(p)
			return
		}
		e.handleDownlink(p)
		return
	}
	var ctx *ueCtx
	if ingress.ID < len(e.byRadio) {
		ctx = e.byRadio[ingress.ID]
	}
	if ctx == nil {
		return
	}
	e.handleUplink(ctx, p)
}

func (e *ENB) handleUplink(ctx *ueCtx, p *netsim.Packet) {
	ctx.lastSeen = e.core.Eng.Now()
	if !ctx.connected {
		// Idle UE with data: buffer and promote.
		if len(ctx.ulBuffer) < maxULBuffer {
			ctx.ulBuffer = append(ctx.ulBuffer, p)
		} else {
			e.node.Network().Release(p)
		}
		if ctx.sess != nil && ctx.sess.State == StateIdle {
			e.sendServiceRequest(ctx.sess)
		}
		return
	}
	e.forwardUplink(ctx, p)
}

func (e *ENB) forwardUplink(ctx *ueCtx, p *netsim.Packet) {
	b := e.classifyUplink(ctx.sess, p)
	if b == nil {
		e.node.Network().Release(p)
		return
	}
	sgw := b.Planes.SGW
	p.Priority = uint8(b.QoS.QCI.Priority())
	p.Encapsulate(e.Addr(), sgw.Addr(), b.S1UL)
	e.ULPackets++
	e.node.Port(0).Send(p)
}

// classifyUplink picks the bearer for an uplink packet by the modem's rule
// (uplinkPrecedence): the matching dedicated bearer with the lowest TFT
// precedence, the lowest EBI on a tie, else the default bearer.
func (e *ENB) classifyUplink(sess *Session, p *netsim.Packet) *Bearer {
	if sess == nil {
		return nil
	}
	best, bestPrec := sess.Bearers[EBIDefault], noTFTMatch
	for _, b := range sess.Bearers[EBIDedicated:] {
		if b == nil {
			continue
		}
		if prec := uplinkPrecedence(b.TFT, p.Flow, p.TOS); prec < bestPrec {
			best, bestPrec = b, prec
		}
	}
	return best
}

// uplinkPrecedence is the uplink TFT rule the modem (UE.match) and the eNB
// (classifyUplink) share: the lowest filter precedence of a TFT that matches
// the packet, noTFTMatch otherwise. Both scan bearers in EBI order and keep
// only a strictly lower value, so the lowest precedence wins and the lowest
// EBI breaks a tie.
func uplinkPrecedence(t *pkt.TFT, flow pkt.FiveTuple, tos uint8) int {
	if t == nil || !t.MatchUplink(flow, tos) {
		return noTFTMatch
	}
	best := 255
	for _, f := range t.Filters {
		best = min(best, int(f.Precedence))
	}
	return best
}

// noTFTMatch ranks after every TFT precedence (255 at most).
const noTFTMatch = 256

func (e *ENB) handleDownlink(p *netsim.Packet) {
	if !p.Tunneled() || p.TunnelDst != e.Addr() {
		e.node.Network().Release(p) // not for us
		return
	}
	teid := p.Decapsulate()
	key, ok := e.byDLTEID[teid]
	if !ok || !key.ctx.connected {
		e.node.Network().Release(p)
		return
	}
	key.ctx.lastSeen = e.core.Eng.Now()
	if b := key.ctx.sess.Bearers[key.ebi]; b != nil {
		p.Priority = uint8(b.QoS.QCI.Priority())
	}
	e.node.Port(key.ctx.radioPort).Send(p)
}

// attachBearer installs the radio/S1 downlink mapping for a bearer and
// returns the freshly allocated eNB-side downlink TEID.
func (e *ENB) attachBearer(sess *Session, b *Bearer) uint32 {
	teid := e.teids.alloc()
	e.mapBearer(e.byUEIP[sess.UE.Addr()], sess, b.EBI, teid)
	return teid
}

// mapBearer marks ctx connected for sess and points the bearer's downlink
// at teid, dropping any stale mapping the bearer had.
func (e *ENB) mapBearer(ctx *ueCtx, sess *Session, ebi uint8, teid uint32) {
	ctx.sess = sess
	ctx.connected = true
	ctx.lastSeen = e.core.Eng.Now()
	e.unmapBearer(ctx, ebi)
	ctx.dlTEID[ebi-EBIDefault] = teid
	e.byDLTEID[teid] = dlKey{ctx: ctx, ebi: ebi}
}

func (e *ENB) unmapBearer(ctx *ueCtx, ebi uint8) {
	delete(e.byDLTEID, ctx.dlTEID[ebi-EBIDefault]) // TEIDs start at 1
	ctx.dlTEID[ebi-EBIDefault] = 0
}

// restoreBearerMapping reinstates a previously held downlink mapping for a
// bearer — the handover compensation path, where the source eNB must take a
// session back after its context was already released. Unlike attachBearer
// it reuses the caller-supplied TEID (the one the SGW-U rules still point
// at) instead of allocating a fresh one, and tolerates the UE context being
// gone entirely.
func (e *ENB) restoreBearerMapping(sess *Session, ebi uint8, teid uint32) {
	if ctx := e.byUEIP[sess.UE.Addr()]; ctx != nil {
		e.mapBearer(ctx, sess, ebi, teid)
	}
}

// detachBearer removes a dedicated bearer's radio mapping.
func (e *ENB) detachBearer(sess *Session, ebi uint8) {
	if ctx := e.byUEIP[sess.UE.Addr()]; ctx != nil && ctx.sess == sess {
		e.unmapBearer(ctx, ebi)
	}
}

// releaseContext tears down the UE's radio-side state on S1 release. The
// session and its bearers persist in the core; only eNB mappings go.
func (e *ENB) releaseContext(sess *Session) {
	ctx := e.byUEIP[sess.UE.Addr()]
	if ctx == nil {
		return
	}
	ctx.connected = false
	for i := range ctx.dlTEID {
		e.unmapBearer(ctx, uint8(i)+EBIDefault)
	}
}

// flushUplink replays packets buffered during promotion.
func (e *ENB) flushUplink(sess *Session) {
	ctx := e.byUEIP[sess.UE.Addr()]
	if ctx == nil {
		return
	}
	buf := ctx.ulBuffer
	ctx.ulBuffer = nil
	for _, p := range buf {
		e.forwardUplink(ctx, p)
	}
	clear(buf)
	ctx.ulBuffer = buf[:0] // the next promotion buffers into the same backing
}

// sendServiceRequest starts promotion: RACH + RRC connection (the
// promotion record's rach leg, rachDelay later), then the S1AP
// InitialUEMessage carrying the NAS service request, which the MME takes
// up (idle.serviced).
func (e *ENB) sendServiceRequest(sess *Session) {
	if sess.State != StateIdle {
		return
	}
	sess.setState(e.core.Eng, StatePromoting)
	id := e.core.takeIdle(sess, stagePromotion)
	id.enb = e
	e.core.Eng.Schedule(rachDelay, id.rachF)
}

// checkIdle fires the inactivity timer for connected UEs, in connection
// order: each release sends S1AP and draws sequence numbers, so UEs that
// time out on one tick must be released in the same order every run.
func (e *ENB) checkIdle() {
	now := e.core.Eng.Now()
	timeout := e.core.cfg.IdleTimeout
	for _, ctx := range e.byRadio {
		if ctx == nil || !ctx.connected || ctx.sess == nil || ctx.sess.State != StateConnected {
			continue
		}
		if now.Sub(ctx.lastSeen) >= timeout {
			e.requestRelease(ctx.sess)
		}
	}
}

// requestRelease sends the UE Context Release Request that starts the idle
// transition (idle.requested).
func (e *ENB) requestRelease(sess *Session) {
	msg := sess.s1ap(pkt.S1APUEContextReleaseRequest, causeUserInactivity, nil)
	id := e.core.takeIdle(sess, stageRelease)
	e.core.sendS1AP(e.core.takeLeg(&id.proc, id.requestedF), e.ep, e.core.mmeEP, msg)
}
