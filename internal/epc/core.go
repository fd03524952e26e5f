package epc

import (
	"fmt"
	"slices"
	"time"

	"acacia/internal/ctl"
	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sdn"
	"acacia/internal/sim"
	"acacia/internal/telemetry"
)

// Config wires a Core into its simulation substrate.
type Config struct {
	Eng *sim.Engine
	Net *netsim.Network
	Ctl *sdn.Controller
	// IdleTimeout overrides the LTE inactivity timeout (tests shorten it);
	// zero selects the standard 11.576 s.
	IdleTimeout time.Duration
}

// Control links: ctlLinkBps is every control link's serialization rate
// (control messages are small, so serialization adds microseconds on top
// of propagation). s1apDelay is the one-way propagation delay of each eNB's
// S1-MME link; gtpv2Delay that of the S11 and S5 links between core
// control entities.
const (
	ctlLinkBps = 1e9
	s1apDelay  = 2 * time.Millisecond
	gtpv2Delay = time.Millisecond
)

// Core is the evolved packet core control plane: one MME, HSS and PCRF,
// plus split gateway control planes managing any number of user planes.
//
// The control entities are real network endpoints: NewCore places MME,
// SGW-C and PGW-C nodes on the network and joins them (and the SDN
// controller, and each eNB as it is created) with control links. Every
// S1AP/GTPv2 message is a transaction on the ctl transport — delivered as
// an encoded packet, retransmitted on loss, failed terminally when the
// retry budget is exhausted.
type Core struct {
	cfg  Config
	Eng  *sim.Engine
	Ctl  *sdn.Controller
	Acct *Accounting
	// Txn is the control-plane transaction transport shared by every
	// control endpoint (including the SDN controller channel).
	Txn *ctl.Transport

	HSS  *HSS
	PCRF *PCRF
	MME  *MME
	SGWC *SGWC
	PGWC *PGWC

	mmeEP, sgwEP, pgwEP *ctl.Endpoint
	s11Link, s5Link     *netsim.Link

	unmatchedPktIn *telemetry.Counter

	sessions map[string]*Session // by IMSI
	byIP     map[pkt.Addr]*Session
	nextUEID uint32

	// Flyweight intern tables: shared immutable configuration (TFT
	// templates, plane pairs) is stored once and referenced by handle from
	// every bearer, so per-UE state carries only hot mutable fields. See
	// flyweight.go.
	tftIntern   map[tftKey]*pkt.TFT
	planeIntern map[planeKey]*PlanePair

	// encBuf and nasBuf are core-lifetime scratch buffers for control-plane
	// serialization. encBuf holds the outer S1AP/GTPv2 encoding, which is
	// consumed synchronously (only its length reaches the transport). nasBuf
	// holds NAS payloads that the following sendS1AP reads synchronously;
	// see encodeNAS for the aliasing rule, which bearerContexts' ctxBuf and
	// fteidBuf, setupERABs' erabBuf, sessionBearers' bearerBuf and
	// cohortIMSIs' imsiBuf follow too.
	encBuf, nasBuf []byte
	ctxBuf         []pkt.BearerContext
	fteidBuf       []pkt.FTEID
	erabBuf        []pkt.ERABItem
	bearerBuf      []*Bearer
	imsiBuf        []string
	modem          modemStore

	// Slabs of the per-entity records: taken for the core's life and never
	// put back, so a Session or Bearer is never a recycled record.
	ues        sim.Pool[UE]
	ctxs       sim.Pool[ueCtx]
	sessRecs   sim.Pool[Session]
	bearerRecs sim.Pool[Bearer]

	// Pools of the continuation records every S1AP/GTPv2 send carries
	// (see leg) and of the procedure records (see proc). A record fresh
	// from its pool has a nil Core back-pointer: its first take binds it.
	legs    sim.Pool[leg]
	hos     sim.Pool[handover]
	deds    sim.Pool[dedicated]
	cohorts sim.Pool[cohort]
	idles   sim.Pool[idle]
}

// NewCore builds an empty core and places its control plane on the network.
func NewCore(cfg Config) *Core {
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = IdleTimeout
	}
	if cfg.Net == nil {
		panic("epc: Config.Net is required — the control plane runs over the network")
	}
	c := &Core{
		cfg:      cfg,
		Eng:      cfg.Eng,
		Ctl:      cfg.Ctl,
		Acct:     NewAccounting(cfg.Eng.Metrics()),
		sessions: make(map[string]*Session),
		byIP:     make(map[pkt.Addr]*Session),

		tftIntern:   make(map[tftKey]*pkt.TFT),
		planeIntern: make(map[planeKey]*PlanePair),
	}
	c.HSS = &HSS{subscribers: make(map[string]Subscriber)}
	c.PCRF = &PCRF{core: c, rules: make(map[string]PolicyRule)}
	c.MME = &MME{core: c, hoDetails: make(map[hoRoute]string)}
	c.SGWC = &SGWC{core: c, planes: make(map[string]*UserPlane), paged: make(map[string]*idle)}
	c.PGWC = &PGWC{core: c, planes: make(map[string]*UserPlane)}

	c.Txn = ctl.NewTransport(cfg.Eng)
	mmeN := cfg.Net.AddNode("mme", pkt.AddrFrom(10, 255, 0, 1))
	sgwN := cfg.Net.AddNode("sgw-c", pkt.AddrFrom(10, 255, 0, 2))
	pgwN := cfg.Net.AddNode("pgw-c", pkt.AddrFrom(10, 255, 0, 3))
	c.mmeEP = c.Txn.Endpoint(mmeN, true)
	c.sgwEP = c.Txn.Endpoint(sgwN, true)
	c.pgwEP = c.Txn.Endpoint(pgwN, true)
	coreCfg := netsim.LinkConfig{BitsPerSecond: ctlLinkBps, Propagation: gtpv2Delay}
	c.s11Link = ctl.Connect(c.mmeEP, c.sgwEP, coreCfg)
	c.s5Link = ctl.Connect(c.sgwEP, c.pgwEP, coreCfg)

	c.unmatchedPktIn = cfg.Eng.Metrics().Scope("epc").Scope("packet-in").Counter("unmatched")

	c.MME.hoScope = cfg.Eng.Metrics().Scope("epc").Scope("handover")
	cfg.Eng.Metrics().Register(c.MME)
	c.MME.hoFailed = c.MME.hoScope.Counter("failed")
	c.MME.hoGap = c.MME.hoScope.Histogram("gap-ms")

	if cfg.Ctl != nil {
		cfg.Ctl.OnPacketIn = c.onPacketIn
		ofN := cfg.Net.AddNode("sdn-ctl", pkt.AddrFrom(10, 255, 0, 10))
		cfg.Ctl.EnableTransport(c.Txn, ofN)
	}
	return c
}

// S11Link returns the MME<->SGW-C control link (fault-injection handle).
func (c *Core) S11Link() *netsim.Link { return c.s11Link }

// S5Link returns the SGW-C<->PGW-C control link.
func (c *Core) S5Link() *netsim.Link { return c.s5Link }

// Transport returns the control-plane transaction transport.
func (c *Core) Transport() *ctl.Transport { return c.Txn }

// Session returns the session for an IMSI, or nil.
func (c *Core) Session(imsi string) *Session { return c.sessions[imsi] }

// proc is the state every control procedure shares over the lossy
// transport: continuations run only while the procedure is live, the
// terminal callback fires exactly once, and on failure undo first unwinds
// the compensations made due so far (stage records them), last first.
// Every procedure embeds it in a pooled record — handover, dedicated,
// cohort or idle — whose legs are methods bound once (DESIGN.md §3c), and
// whose end reports the outcome and recycles the record. gen counts a
// record's procedures: every leg, timer and waiter carries the gen it was
// issued under and is dropped on a mismatch, as sim.Timer is.
type proc struct {
	gen      uint32
	finished bool
	stage    uint8
	end      func(error)
	undo     func()
}

// finish concludes the procedure exactly once. On error undo runs before
// the terminal callback.
func (pr *proc) finish(err error) {
	if pr.finished {
		return
	}
	pr.finished = true
	if err != nil {
		pr.undo()
	}
	pr.end(err)
}

// restart readies a pooled record's proc for its next procedure.
func (pr *proc) restart() {
	pr.gen++
	pr.finished, pr.stage = false, 0
}

// leg is a pooled continuation record: what runs at the receiver of one
// S1AP/GTPv2 send, or when a timer or promotion waiter fires, for one
// generation of one procedure. The transport carries run, failF and ackF,
// bound once. holds counts the events still to reach the record — a send's
// delivery and its transaction's ack or terminal failure (a delivered
// request still times out when every ack is lost), or a waiter's firing —
// and it returns to Core.legs after the last. A terminal failure also
// stands for a delivery that has not come: the transport cancels it. It
// continues as far, deliver, or else each with sess (a cohort member's
// leg). far, the far half of a shared exchange (admit, repoint, release), is
// a method expression: it reads the exchange's arguments from the leg and
// answers with a leg that continues as then or each.
type leg struct {
	c                      *Core
	pr                     *proc
	gen                    uint32
	holds                  uint8
	req                    pkt.S1APProcedure
	idx                    int // traced record index, or -1
	sess                   *Session
	b                      *Bearer
	enb                    *ENB
	deliver, at, then, run func()
	far                    func(*leg)
	each                   func(*Session)
	failF                  func(error)
	ackF                   func(ctl.TxInfo)
}

// land is the record's delivery; failed its transaction's terminal
// timeout; acked back-fills a traced record's wire fields at ack time.
func (l *leg) land() {
	switch {
	case !l.live():
	case l.far != nil:
		l.far(l)
	case l.deliver != nil:
		l.deliver()
	default:
		l.each(l.sess)
	}
	l.drop()
}

func (l *leg) failed(err error) {
	if l.live() {
		l.pr.finish(err)
	}
	if l.holds == 2 {
		l.holds-- // never landed: the failed transaction cancels its delivery
	}
	l.drop()
}

func (l *leg) acked(info ctl.TxInfo) {
	if l.idx >= 0 {
		l.c.Acct.NoteTransport(l.idx, info.QueueWait, info.Retrans)
	}
	l.drop()
}

// live reports whether the leg's procedure is live in the leg's generation.
func (l *leg) live() bool { return l.pr.gen == l.gen && !l.pr.finished }

// drop releases one hold, recycling the record after the last.
func (l *leg) drop() {
	if l.holds--; l.holds == 0 {
		l.pr, l.sess, l.b, l.enb, l.deliver, l.at, l.then, l.far, l.each = nil, nil, nil, nil, nil, nil, nil, nil, nil
		l.c.legs.Put(l)
	}
}

// takeLeg takes a continuation record for one send of pr.
//
//acacia:hotpath
func (c *Core) takeLeg(pr *proc, deliver func()) *leg {
	l := c.legs.Take()
	if l.c == nil {
		c.bindLeg(l)
	}
	l.pr, l.gen, l.holds, l.deliver = pr, pr.gen, 2, deliver
	return l
}

// waiter takes a leg for a one-shot continuation of pr's current
// generation, for a timer (its run) or a promotion waiter: a firing, not a
// send, is all that reaches it.
func (c *Core) waiter(pr *proc, fn func()) *leg {
	l := c.takeLeg(pr, fn)
	l.holds = 1
	return l
}

// whenConnected runs fn as a continuation of pr now if sess is connected,
// otherwise once sess next reaches StateConnected. A waiter whose
// procedure ended meanwhile is dropped when it fires, or when the session
// ends first.
func (c *Core) whenConnected(sess *Session, pr *proc, fn func()) {
	l := c.waiter(pr, fn)
	if sess.State == StateConnected {
		l.land()
		return
	}
	sess.onConnected = append(sess.onConnected, l)
}

// bindLeg readies a fresh record: the back-pointer and the method values
// ctl.Endpoint.Send carries, bound once for the record's life. Noinline
// keeps the bindings out of hotpath callers' escape profiles.
//
//go:noinline
func (c *Core) bindLeg(l *leg) {
	l.c = c
	l.run, l.failF, l.ackF = l.land, l.failed, l.acked
}

// answer opens a far half's response leg, which continues as the
// exchange's then, or as each with sess.
func (l *leg) answer() *leg {
	n := l.c.takeLeg(l.pr, l.then)
	n.each, n.sess = l.each, l.sess
	return n
}

// sendS1AP stamps the next per-peer sequence into the message's TSN,
// serializes and accounts it, and opens a transport transaction from
// endpoint from to endpoint to that carries l: l continues at the receiver,
// and a terminal transport timeout fails its procedure.
//
//acacia:hotpath
func (c *Core) sendS1AP(l *leg, from, to *ctl.Endpoint, m *pkt.S1APMsg) {
	seq := from.NextSeq(to.Addr())
	m.TSN = seq
	c.encBuf = m.Encode(c.encBuf[:0])
	n := len(c.encBuf)
	name := m.Procedure.String()
	l.idx = c.Acct.RecordTx(c.Eng.Now(), ProtoS1AP, name, n, seq, c.txPath(from, to))
	from.Send(to.Addr(), seq, name, n, l.run, l.failF, l.ackF)
}

// sendGTPv2 is sendS1AP for GTPv2-C: the allocated sequence becomes the
// message's 24-bit Seq field.
//
//acacia:hotpath
func (c *Core) sendGTPv2(l *leg, from, to *ctl.Endpoint, m *pkt.GTPv2Msg) {
	seq := from.NextSeq(to.Addr())
	m.Seq = seq
	c.encBuf = m.Encode(c.encBuf[:0])
	n := len(c.encBuf)
	name := m.Type.String()
	l.idx = c.Acct.RecordTx(c.Eng.Now(), ProtoGTPv2, name, n, seq, c.txPath(from, to))
	from.Send(to.Addr(), seq, name, n, l.run, l.failF, l.ackF)
}

// txPath builds the "from->to" trace label, but only when tracing is on —
// the concatenation allocates, and untraced runs would throw it away.
// Noinline: inlined into the hotpath senders, the trace-only concatenation
// would land in their escape profiles even though untraced runs never
// execute it.
//
//go:noinline
func (c *Core) txPath(from, to *ctl.Endpoint) string {
	if !c.Acct.Trace {
		return ""
	}
	return from.Name() + "->" + to.Name()
}

// encodeNAS serializes a NAS message into the core's NAS scratch buffer.
// The returned slice aliases the buffer and is valid only until the next
// encodeNAS call — long enough for the synchronous S1AP encode inside the
// sendS1AP that follows, which is the payload's only reader (the ctl
// transport carries message lengths, not bytes). Call sites that retain
// NAS bytes past the send (e.g. to re-decode them at the receiver) must
// encode into their own buffer instead.
func (c *Core) encodeNAS(m *pkt.NASMsg) []byte {
	c.nasBuf = m.Encode(c.nasBuf[:0])
	return c.nasBuf
}

// bearerContexts returns n bearer contexts and n F-TEIDs of scratch for a
// cohort GTPv2 message built and sent at once (the next call reuses them).
// Callers set every entry; context i's F-TEID, if any, is fteids[i : i+1].
func (c *Core) bearerContexts(n int) ([]pkt.BearerContext, []pkt.FTEID) {
	if cap(c.ctxBuf) < n {
		c.ctxBuf, c.fteidBuf = make([]pkt.BearerContext, n), make([]pkt.FTEID, n)
	}
	return c.ctxBuf[:n], c.fteidBuf[:n]
}

// onPacketIn handles GW-U table misses. The only expected miss is downlink
// traffic for an idle UE arriving at its SGW-U: buffer it and page.
func (c *Core) onPacketIn(sw *sdn.Switch, inPort uint32, p *netsim.Packet, tunnelID uint64) {
	// Identify the UE by inner destination (downlink view).
	sess := c.byIP[p.Flow.Dst]
	if sess == nil {
		// Not ours: count and log the drop instead of failing silently.
		c.unmatchedPktIn.Inc()
		c.Eng.Metrics().Scope("epc/packet-in").Emit("unmatched",
			fmt.Sprintf("%s port %d dst %v teid %d", sw.Node().Name(), inPort, p.Flow.Dst, tunnelID))
		sw.Node().Network().Release(p)
		return
	}
	c.SGWC.bufferAndPage(sess, sw, p, tunnelID)
}

// releaseSessionResources removes every bearer's user-plane state.
// Clearing the bearer map afterwards makes the teardown idempotent — a
// timeout-recovery path may run it again.
func (c *Core) releaseSessionResources(sess *Session) {
	for _, b := range sess.Bearers {
		if b != nil {
			c.removeBearerFlows(sess, b)
		}
	}
	sess.Bearers = [16]*Bearer{}
}

// forceDetach tears a session down locally after a detach procedure lost
// its signaling: resources are reclaimed and the UE unbound even though the
// protocol exchange never concluded.
func (c *Core) forceDetach(sess *Session) {
	c.releaseSessionResources(sess)
	sess.ENB.releaseContext(sess)
	c.endSession(sess)
}

// endSession retires a session whose user plane and radio context are
// gone: every detach, completed or forced, and every failed attach ends here.
func (c *Core) endSession(sess *Session) {
	c.SGWC.dropPage(sess)
	for _, l := range sess.onConnected {
		l.drop()
	}
	sess.onConnected = nil
	sess.setState(c.Eng, StateDetached)
	delete(c.sessions, sess.IMSI)
	delete(c.byIP, sess.UEIP)
	sess.UE.completeDetach()
}

// SessionState is the RRC/S1 state of a UE session.
type SessionState uint8

// Session states.
const (
	StateDetached SessionState = iota
	StateConnecting
	StateConnected
	StateIdle
	StatePromoting
)

var sessionStateNames = [...]string{StateDetached: "detached", StateConnecting: "connecting", StateConnected: "connected", StateIdle: "idle", StatePromoting: "promoting"}

// String names the state.
func (s SessionState) String() string {
	if uint(s) < uint(len(sessionStateNames)) {
		return sessionStateNames[s]
	}
	return fmt.Sprintf("SessionState(%d)", uint8(s))
}

// Bearer is the authoritative record of one EPS bearer. Individual control
// entities exchange real messages to mutate it, but the state itself is
// kept in one place rather than copied per entity.
//
// The layout is a flyweight: TFT and the serving plane pair are handles
// into the core's intern tables — shared, immutable, one copy per distinct
// profile regardless of UE count — and only the two-byte QoS and the hot
// mutable per-UE fields (the four tunnel endpoints) live inline. Messages
// point at QoS while they are encoded.
type Bearer struct {
	EBI uint8
	// QoS is the bearer's QoS profile (never mutated after creation).
	QoS pkt.BearerQoS
	// TFT is the interned traffic flow template; nil for the default
	// bearer (match-everything-else).
	TFT *pkt.TFT
	// Planes is the interned handle to the user planes serving this
	// bearer; the dedicated MEC bearer uses local (edge) planes.
	Planes *PlanePair
	// CIServer is the dedicated bearer's remote endpoint filter anchor.
	CIServer pkt.Addr

	// GTP tunnel endpoints.
	S1UL uint32 // allocated by SGW-C; eNB sends uplink with this TEID
	S1DL uint32 // allocated by eNB; SGW-U sends downlink with this TEID
	S5UL uint32 // allocated by PGW-C
	S5DL uint32 // allocated by SGW-C
}

// s1uSGW is the bearer's S1-U SGW F-TEID: where the eNB sends its uplink.
func (b *Bearer) s1uSGW() pkt.FTEID {
	return pkt.FTEID{IfaceType: pkt.FTEIDIfaceS1USGW, TEID: b.S1UL, Addr: b.Planes.SGW.Addr()}
}

// s1uENB is the bearer's S1-U eNB F-TEID at enb: where the SGW-U sends its
// downlink.
func (b *Bearer) s1uENB(enb *ENB) pkt.FTEID {
	return pkt.FTEID{IfaceType: pkt.FTEIDIfaceS1UeNodeB, TEID: b.S1DL, Addr: enb.Addr()}
}

// Session is one UE's EPC context. Bearers is a fixed inline array indexed
// by EBI (0..15 is the full EPS bearer-id space): no per-session map, no
// hashing on the per-packet classify path, and ranging over it visits the
// bearers in EBI order, which every control procedure relies on — E-RAB
// and bearer-context lists built in another order would make encoded
// messages, and the flow-install sequence, differ run to run.
type Session struct {
	IMSI  string
	UEIP  pkt.Addr
	State SessionState
	// pending holds a bit per EBI that a dedicated bearer activation still
	// under way has reserved (in State's padding: Session stays 200 bytes).
	pending uint16
	ENB     *ENB
	UE      *UE
	MMEUEID uint32
	ENBUEID uint32
	Bearers [16]*Bearer

	// onConnected holds the waiters (see Core.whenConnected) that run once
	// when the session next enters StateConnected.
	onConnected []*leg
}

// s1ap builds a UE-associated S1AP message of the session.
func (s *Session) s1ap(p pkt.S1APProcedure, cause uint8, nas []byte) *pkt.S1APMsg {
	return &pkt.S1APMsg{Procedure: p, ENBUEID: s.ENBUEID, MMEUEID: s.MMEUEID, Cause: cause, NAS: nas}
}

// DedicatedBearers lists non-default bearers in EBI order, in a fresh
// slice. Control procedures range over Bearers instead, which allocates
// nothing.
func (s *Session) DedicatedBearers() []*Bearer { return s.bearersFrom(EBIDedicated) }

// OrderedBearers lists every bearer of the session in EBI order, in a fresh
// slice.
func (s *Session) OrderedBearers() []*Bearer { return s.bearersFrom(0) }

func (s *Session) bearersFrom(ebi int) []*Bearer {
	var out []*Bearer
	for _, b := range s.Bearers[ebi:] {
		if b != nil {
			out = append(out, b)
		}
	}
	return out
}

// sessionBearers lists the bearers an exchange covers, in EBI order: b
// alone, or every bearer of sess when b is nil. The list is core scratch,
// valid until the next call.
func (c *Core) sessionBearers(sess *Session, b *Bearer) []*Bearer {
	out := c.bearerBuf[:0]
	if b != nil {
		out = append(out, b)
	} else {
		for _, sb := range sess.Bearers {
			if sb != nil {
				out = append(out, sb)
			}
		}
	}
	c.bearerBuf = out
	return out
}

// dropWaiter removes pr's waiter, if any, from the session's onConnected
// list and recycles it.
func (s *Session) dropWaiter(pr *proc) {
	for i, l := range s.onConnected {
		if l.pr == pr {
			s.onConnected = slices.Delete(s.onConnected, i, i+1)
			l.drop()
			return
		}
	}
}

// setState transitions the session and records the transition on the
// engine's telemetry timeline (epc/session/<IMSI> state events), giving
// -timeline exports the full RRC/S1 state history of every UE.
func (s *Session) setState(eng *sim.Engine, st SessionState) {
	s.State = st
	eng.Metrics().Scope("epc/session").Scope(s.IMSI).Emit("state", st.String())
	if st == StateConnected {
		waiters := s.onConnected
		s.onConnected = nil
		for _, l := range waiters {
			l.land()
		}
		if s.onConnected == nil { // keep the backing for the next wait
			clear(waiters)
			s.onConnected = waiters[:0]
		}
	}
}
