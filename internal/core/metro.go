package core

import (
	"time"

	"acacia/internal/epc"
	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sdn"
	"acacia/internal/sim"
)

// Link delays every metro shares: eNB <-> aggregation router, core PGW-U
// <-> SGi node, and each hop inside an edge site (SGW-U -> PGW-U -> CI
// server; eNB->MEC then measures ≈1.6 ms RTT as in §7.2).
const (
	backhaulDelay = 500 * time.Microsecond
	sgiDelay      = 2 * time.Millisecond
	fabricDelay   = 100 * time.Microsecond
)

// MetroConfig holds what one metro deployment sets differently from another.
type MetroConfig struct {
	Seed uint64
	// WireBps is the serialization rate of every wired data link; zero
	// makes them pure delay lines.
	WireBps float64
	// CoreDelay is the router -> core SGW-U hop (the hierarchical-routing
	// penalty of §4); SiteDelay is the router -> site SGW-U hop.
	CoreDelay, SiteDelay time.Duration
	// SharedCore is the core SGW-U <-> PGW-U link every default bearer
	// crosses.
	SharedCore netsim.LinkConfig
	// ENBs and Sites name the base stations and edge sites NewMetro lays.
	ENBs, Sites []string
}

// Metro is ACACIA's deployment shape: eNBs behind an aggregation router, a
// centralized SGW-U/PGW-U pair in front of the SGi node, and edge sites
// whose local GW-Us and CI server carry the dedicated bearer. NewMetro lays
// the topology and registers every switch with the controller; Start brings
// up the EPC core, the user planes and the eNBs. Callers add their own links
// between the two steps, so link creation order — the <n> of every
// netsim/link/<n>/ metric — is fixed by the call sequence.
//
// Address plan: eNB k is 10.1.(k/250).(1+k%250); the core GW-Us are
// 10.2.0.1/.2 (planes "core-sgw"/"core-pgw") and the SGi node "inet-router"
// is 8.8.0.254. Site i's "<name>-sgw-u", "<name>-pgw-u" and "<name>-ci" are
// 10.(3+i).0.1/.2/.10 with DPIDs 3+2i/4+2i; the core switches hold 1/2.
type Metro struct {
	Eng *sim.Engine
	Net *netsim.Network
	Ctl *sdn.Controller
	// EPC is the control plane, nil until Start.
	EPC *epc.Core
	// Router is the aggregation router. SGi sits behind the core PGW-U's
	// port 1; the caller gives it a handler.
	Router *netsim.Router
	SGi    *netsim.Node

	CoreSGW, CorePGW *sdn.Switch
	SharedCoreLink   *netsim.Link

	// ENBs are the base stations in address order, created by Start; Sites
	// the edge sites in creation order.
	ENBs  []*epc.ENB
	Sites []*SiteBundle

	cfg      MetroConfig
	enbNodes []*netsim.Node
}

// SiteBundle groups the pieces of one edge site: the local user-plane
// switches, the CI server, and the site's links (the fault injector's crash
// target). On the testbed it also carries the CI server's AR backend and
// localization manager.
type SiteBundle struct {
	Name     string
	SGW, PGW *sdn.Switch
	CI       *netsim.Host
	Backend  *ARBackend
	// Loc is the site-local localization manager: each CI server tracks
	// only the users bound to it. After a failover the adopting site
	// starts cold and its backend falls back to full-database search until
	// the user's landmark reports re-accumulate there.
	Loc   *LocalizationManager
	links []*netsim.Link
}

// SGWPlane and PGWPlane name the site's user planes in the EPC.
func (s *SiteBundle) SGWPlane() string { return s.Name + "-sgw" }
func (s *SiteBundle) PGWPlane() string { return s.Name + "-pgw" }

// EdgeSite describes the site to the MRS; the caller adds the eNBs it is
// local to and its capacity.
func (s *SiteBundle) EdgeSite() EdgeSite {
	return EdgeSite{Name: s.Name, CIServer: s.CI.Node.Addr(), SGWPlane: s.SGWPlane(), PGWPlane: s.PGWPlane()}
}

// NewMetro lays the topology in link order: the eNB backhauls, router ->
// core SGW-U, the shared core link, PGW-U -> SGi, then each site's uplink,
// fabric and CI hop.
func NewMetro(cfg MetroConfig) *Metro {
	eng := sim.NewEngine(cfg.Seed)
	m := &Metro{Eng: eng, Net: netsim.New(eng), Ctl: sdn.NewController(eng), cfg: cfg}
	m.Ctl.RTT = 200 * time.Microsecond
	m.Router = netsim.NewRouter(m.Net.AddNode("agg-router", pkt.AddrFrom(10, 1, 0, 254)))
	// eNB port 0 is the backhaul, so these links precede every radio link.
	for _, name := range cfg.ENBs {
		m.layENB(name)
	}
	sgwN := m.Net.AddNode("core-sgw-u", pkt.AddrFrom(10, 2, 0, 1))
	pgwN := m.Net.AddNode("core-pgw-u", pkt.AddrFrom(10, 2, 0, 2))
	m.SGi = m.Net.AddNode("inet-router", pkt.AddrFrom(8, 8, 0, 254))
	m.uplink(sgwN, cfg.CoreDelay)
	m.SharedCoreLink = m.Net.ConnectSymmetric(sgwN, pgwN, cfg.SharedCore)
	m.Net.ConnectSymmetric(pgwN, m.SGi, m.wire(sgiDelay))
	m.CoreSGW = m.addSwitch(1, sgwN)
	m.CorePGW = m.addSwitch(2, pgwN)
	for _, name := range cfg.Sites {
		m.AddSite(name)
	}
	return m
}

// Start creates the EPC core (its control links, then one OpenFlow channel
// per registered switch), the core and site user planes, and the eNBs with
// their S1 links. idle is the LTE inactivity timer (zero: the standard one).
func (m *Metro) Start(idle time.Duration) {
	m.EPC = epc.NewCore(epc.Config{Eng: m.Eng, Net: m.Net, Ctl: m.Ctl, IdleTimeout: idle})
	m.EPC.SGWC.AddUserPlane("core-sgw", m.CoreSGW, 0, 1)
	m.EPC.PGWC.AddUserPlane("core-pgw", m.CorePGW, 0, 1)
	for _, s := range m.Sites {
		m.addPlanes(s)
	}
	for _, n := range m.enbNodes {
		m.ENBs = append(m.ENBs, epc.NewENB(m.EPC, n))
	}
}

// AddENB deploys another base station on the aggregation router. The metro
// must be started.
func (m *Metro) AddENB(name string) *epc.ENB {
	enb := epc.NewENB(m.EPC, m.layENB(name))
	m.ENBs = append(m.ENBs, enb)
	return enb
}

// AddSite deploys another edge site on the aggregation router: its
// SGW-U/PGW-U pair and CI server. After Start its user planes register, and
// its switches get their controller channels, at once.
func (m *Metro) AddSite(name string) *SiteBundle {
	i := len(m.Sites)
	base := byte(3 + i)
	sgwN := m.Net.AddNode(name+"-sgw-u", pkt.AddrFrom(10, base, 0, 1))
	pgwN := m.Net.AddNode(name+"-pgw-u", pkt.AddrFrom(10, base, 0, 2))
	ciN := m.Net.AddNode(name+"-ci", pkt.AddrFrom(10, base, 0, 10))
	s := &SiteBundle{Name: name, CI: netsim.NewHost(ciN), links: []*netsim.Link{
		m.uplink(sgwN, m.cfg.SiteDelay),
		m.Net.ConnectSymmetric(sgwN, pgwN, m.wire(fabricDelay)),
		m.Net.ConnectSymmetric(pgwN, ciN, m.wire(fabricDelay)),
	}}
	s.SGW = m.addSwitch(uint64(3+2*i), sgwN)
	s.PGW = m.addSwitch(uint64(4+2*i), pgwN)
	m.Sites = append(m.Sites, s)
	if m.EPC != nil {
		m.addPlanes(s)
	}
	return s
}

// layENB places eNB node k with its backhaul and router route.
func (m *Metro) layENB(name string) *netsim.Node {
	k := len(m.enbNodes)
	n := m.Net.AddNode(name, pkt.AddrFrom(10, 1, byte(k/250), byte(1+k%250)))
	l := m.Net.ConnectSymmetric(n, m.Router.Node, m.wire(backhaulDelay))
	m.Router.AddHostRoute(n.Addr(), l.B)
	m.enbNodes = append(m.enbNodes, n)
	return n
}

// uplink joins n to the aggregation router and routes n's address there.
func (m *Metro) uplink(n *netsim.Node, d time.Duration) *netsim.Link {
	l := m.Net.ConnectSymmetric(m.Router.Node, n, m.wire(d))
	m.Router.AddHostRoute(n.Addr(), l.A)
	return l
}

// wire is a wired data link with propagation delay d.
func (m *Metro) wire(d time.Duration) netsim.LinkConfig {
	return netsim.LinkConfig{BitsPerSecond: m.cfg.WireBps, Propagation: d}
}

func (m *Metro) addSwitch(dpid uint64, n *netsim.Node) *sdn.Switch {
	sw := sdn.NewSwitch(dpid, n, sdn.ACACIAGWCosts)
	m.Ctl.AddSwitch(sw)
	return sw
}

func (m *Metro) addPlanes(s *SiteBundle) {
	m.EPC.SGWC.AddUserPlane(s.SGWPlane(), s.SGW, 0, 1)
	m.EPC.PGWC.AddUserPlane(s.PGWPlane(), s.PGW, 0, 1)
}
