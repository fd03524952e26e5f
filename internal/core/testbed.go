package core

import (
	"fmt"
	"time"

	"acacia/internal/compute"
	"acacia/internal/d2d"
	"acacia/internal/epc"
	"acacia/internal/fault"
	"acacia/internal/geo"
	"acacia/internal/localization"
	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sdn"
	"acacia/internal/sim"
	"acacia/internal/telemetry"
	"acacia/internal/vision"
)

// TestbedConfig parameterizes the standard ACACIA testbed. Zero values
// select the calibrated defaults listed on each field.
type TestbedConfig struct {
	Seed uint64

	// Radio link (UE <-> eNB). Defaults: 24 Mbps up / 40 Mbps down,
	// 4.5 ms one-way delay with 2 ms exponential scheduling jitter.
	RadioULBps, RadioDLBps float64
	RadioDelay             time.Duration
	RadioJitter            time.Duration

	// BackhaulDelay is eNB <-> aggregation router (default 0.5 ms).
	BackhaulDelay time.Duration
	// CoreDelay is the one-way backhaul-to-centralized-gateways latency
	// (default 15 ms: the hierarchical-routing penalty of §4).
	CoreDelay time.Duration
	// SharedCoreBps bounds the centralized SGW-U <-> PGW-U link that all
	// default-bearer traffic shares (default 100 Mbps, the saturation
	// point of Fig. 3(g)); SharedCoreQueue is its buffer (default 16 MiB —
	// LTE-style deep buffers, producing the paper's second-scale delays at
	// saturation).
	SharedCoreBps   float64
	SharedCoreQueue int
	// CloudDelays place internet servers behind the core PGW: name ->
	// one-way delay from the internet router. Default: the paper's three
	// EC2 regions (CA 13 ms, OR 23 ms, VA 40 ms).
	CloudDelays map[string]time.Duration
	// EdgeDelay is the per-hop latency inside the edge cloud
	// (default 100 µs; eNB->MEC measures ≈1.6 ms RTT as in §7.2).
	EdgeDelay time.Duration

	// GWCosts selects the GW-U per-packet processing model
	// (default sdn.ACACIAGWCosts).
	GWCosts sdn.PathCosts

	// IdleTimeout overrides the LTE inactivity timer (default 11.576 s).
	IdleTimeout time.Duration

	// EdgeDevice and CloudDevice pick the AR servers' compute models
	// (default: eight-core i7 for both).
	EdgeDevice, CloudDevice compute.Device

	// Scheme sets the edge AR back-end's search-space strategy (default
	// SchemeACACIA). The cloud back-end is always Naive.
	Scheme Scheme

	// NumUEs is the number of customer devices (default 1).
	NumUEs int

	// DBFeatures overrides DBObjectFeatures for the retail database.
	DBFeatures int

	// DiscoveryPeriod is the LTE-direct broadcast period (default 1 s —
	// the paper uses 5-10 s on air; a shorter period keeps experiment
	// warm-up short without changing behaviour).
	DiscoveryPeriod time.Duration
}

func (c TestbedConfig) withDefaults() TestbedConfig {
	def := func(f *float64, v float64) {
		if *f == 0 {
			*f = v
		}
	}
	defD := func(d *time.Duration, v time.Duration) {
		if *d == 0 {
			*d = v
		}
	}
	def(&c.RadioULBps, 24e6)
	def(&c.RadioDLBps, 40e6)
	defD(&c.RadioDelay, 4500*time.Microsecond)
	defD(&c.RadioJitter, 2*time.Millisecond)
	defD(&c.BackhaulDelay, 500*time.Microsecond)
	defD(&c.CoreDelay, 15*time.Millisecond)
	def(&c.SharedCoreBps, 100e6)
	if c.SharedCoreQueue == 0 {
		c.SharedCoreQueue = 16 << 20
	}
	if c.CloudDelays == nil {
		c.CloudDelays = map[string]time.Duration{
			"california": 13 * time.Millisecond,
			"oregon":     23 * time.Millisecond,
			"virginia":   40 * time.Millisecond,
		}
	}
	defD(&c.EdgeDelay, 100*time.Microsecond)
	if c.GWCosts == (sdn.PathCosts{}) {
		c.GWCosts = sdn.ACACIAGWCosts
	}
	if c.EdgeDevice.Name == "" {
		c.EdgeDevice = compute.I7x8
	}
	if c.CloudDevice.Name == "" {
		c.CloudDevice = compute.I7x8
	}
	if c.NumUEs == 0 {
		c.NumUEs = 1
	}
	if c.DBFeatures == 0 {
		c.DBFeatures = DBObjectFeatures
	}
	defD(&c.DiscoveryPeriod, time.Second)
	return c
}

// RetailServiceName is the LTE-direct service of the testbed's retail
// deployment, with its carrier-assigned code prefix.
const (
	RetailServiceName = "acacia-retail"
	RetailServiceCode = uint32(0xACAC)
	RetailPolicyID    = "retail-ar"
)

// SiteBundle groups the pieces of one edge site: the local user-plane
// switches, the CI server with its AR backend and localization manager,
// and the site's links (the fault injector's crash target).
type SiteBundle struct {
	Name     string
	SGW, PGW *sdn.Switch
	CI       *netsim.Host
	Backend  *ARBackend
	// Loc is the site-local localization manager: each CI server tracks
	// only the users bound to it. After a failover the adopting site
	// starts cold and its backend falls back to full-database search until
	// the user's landmark reports re-accumulate there.
	Loc      *LocalizationManager
	SGWPlane string
	PGWPlane string
	links    []*netsim.Link
}

// UEBundle groups one customer device's pieces.
type UEBundle struct {
	UE       *epc.UE
	D2D      *d2d.Device
	DM       *DeviceManager
	Frontend *ARFrontend
	Name     string
}

// Testbed is the fully wired ACACIA environment.
type Testbed struct {
	Cfg TestbedConfig
	Eng *sim.Engine
	Net *netsim.Network
	Ctl *sdn.Controller
	EPC *epc.Core
	MRS *MRS
	ENB *epc.ENB
	// ENBs lists every base station (ENB plus any neighbours added with
	// AddNeighborENB).
	ENBs      []*epc.ENB
	aggRouter *netsim.Router
	D2D       *d2d.Env
	Floor     *geo.Floor
	DB        *vision.DB
	// Loc is edge-1's localization manager (every site carries its own in
	// SiteBundle.Loc; this field aliases Sites[0].Loc for the single-site
	// experiments).
	Loc *LocalizationManager
	// locFit is the one-time path-loss calibration, computed once and
	// shared by every site's manager (the fit is immutable; per-user
	// tracking state is what must stay site-local).
	locFit localization.PathLossFit

	UEs []*UEBundle

	// Servers.
	CIServer    *netsim.Host // edge CI server
	CentralMEC  *netsim.Host // MEC server behind the centralized GWs
	CloudHosts  map[string]*netsim.Host
	EdgeBackend *ARBackend
	MECBackend  *ARBackend // Naive backend on the central MEC server
	CloudAR     *ARBackend // Naive backend on the California cloud server

	// Switches.
	CoreSGW, CorePGW, EdgeSGW, EdgePGW *sdn.Switch

	// SharedCoreLink is the 100 Mbps bottleneck all default-bearer traffic
	// crosses (background traffic injection point for Fig. 3(g)/10(b)).
	SharedCoreLink *netsim.Link

	// Faults injects deterministic outages against registered targets:
	// the control links ("s11", "s5"), "shared-core", and every edge site
	// by name. Sites lists the edge sites in creation order ("edge-1"
	// first); AddEdgeSite extends both.
	Faults *fault.Injector
	Sites  []*SiteBundle

	// BGSource/BGSink generate and absorb background load through the
	// shared core.
	BGSource *netsim.Host
	BGSink   *netsim.Host
}

// NewTestbed builds the standard topology:
//
//	UEs --radio-- eNB -- router --+-- core SGW-U ==100Mbps== core PGW-U --+-- inet rtr -- clouds
//	                              |                                       +-- central MEC server
//	                              +-- edge SGW-U -- edge PGW-U -- CI server
func NewTestbed(cfg TestbedConfig) *Testbed {
	cfg = cfg.withDefaults()
	eng := sim.NewEngine(cfg.Seed)
	nw := netsim.New(eng)
	ctl := sdn.NewController(eng)
	ctl.RTT = 200 * time.Microsecond

	tb := &Testbed{
		Cfg: cfg, Eng: eng, Net: nw, Ctl: ctl,
		Floor:      geo.RetailFloor(),
		CloudHosts: make(map[string]*netsim.Host),
	}

	gbit := func(d time.Duration) netsim.LinkConfig {
		return netsim.LinkConfig{BitsPerSecond: 1e9, Propagation: d}
	}

	// Nodes.
	enbN := nw.AddNode("enb", pkt.AddrFrom(10, 1, 0, 1))
	rtrN := nw.AddNode("agg-router", pkt.AddrFrom(10, 1, 0, 254))
	coreSGWN := nw.AddNode("core-sgw-u", pkt.AddrFrom(10, 2, 0, 1))
	corePGWN := nw.AddNode("core-pgw-u", pkt.AddrFrom(10, 2, 0, 2))
	inetRtrN := nw.AddNode("inet-router", pkt.AddrFrom(8, 8, 0, 254))
	mecCentralN := nw.AddNode("central-mec", pkt.AddrFrom(10, 2, 0, 10))
	edgeSGWN := nw.AddNode("edge-sgw-u", pkt.AddrFrom(10, 3, 0, 1))
	edgePGWN := nw.AddNode("edge-pgw-u", pkt.AddrFrom(10, 3, 0, 2))
	ciN := nw.AddNode("ci-server", pkt.AddrFrom(10, 3, 0, 10))
	bgSrcN := nw.AddNode("bg-src", pkt.AddrFrom(10, 1, 1, 1))
	bgSinkN := nw.AddNode("bg-sink", pkt.AddrFrom(8, 8, 9, 9))

	// eNB port 0 = backhaul (must exist before UEs connect).
	nw.ConnectSymmetric(enbN, rtrN, gbit(cfg.BackhaulDelay))
	nw.ConnectSymmetric(rtrN, coreSGWN, gbit(cfg.CoreDelay)) // rtr:1
	tb.SharedCoreLink = nw.ConnectSymmetric(coreSGWN, corePGWN, netsim.LinkConfig{
		BitsPerSecond: cfg.SharedCoreBps,
		Propagation:   300 * time.Microsecond,
		QueueBytes:    cfg.SharedCoreQueue,
	})
	nw.ConnectSymmetric(corePGWN, inetRtrN, gbit(2*time.Millisecond))       // pgw:1 (SGi)
	edgeRtrLink := nw.ConnectSymmetric(rtrN, edgeSGWN, gbit(cfg.EdgeDelay)) // rtr:2
	edgeFabricLink := nw.ConnectSymmetric(edgeSGWN, edgePGWN, gbit(cfg.EdgeDelay))
	edgeCILink := nw.ConnectSymmetric(edgePGWN, ciN, gbit(cfg.EdgeDelay))
	nw.ConnectSymmetric(rtrN, bgSrcN, gbit(100*time.Microsecond)) // rtr:3

	rtr := netsim.NewRouter(rtrN)
	rtr.AddHostRoute(enbN.Addr(), rtrN.Port(0))
	rtr.AddHostRoute(coreSGWN.Addr(), rtrN.Port(1))
	rtr.AddHostRoute(edgeSGWN.Addr(), rtrN.Port(2))
	rtr.AddHostRoute(bgSrcN.Addr(), rtrN.Port(3))
	// Background traffic enters here destined for the internet sink.
	rtr.AddRoute(pkt.AddrFrom(8, 8, 0, 0), pkt.Addr{255, 255, 0, 0}, rtrN.Port(1))
	tb.aggRouter = rtr

	inetRtr := netsim.NewRouter(inetRtrN)
	inetRtr.AddRoute(pkt.AddrFrom(172, 16, 0, 0), pkt.Addr{255, 255, 0, 0}, inetRtrN.Port(0))
	nw.ConnectSymmetric(inetRtrN, bgSinkN, gbit(100*time.Microsecond))
	inetRtr.AddHostRoute(bgSinkN.Addr(), inetRtrN.Port(1))
	// The central-MEC server sits just behind the centralized gateways:
	// minimal extra distance, but its traffic still crosses the shared
	// core bottleneck (the Fig. 10(b) "EPC with MEC" configuration).
	nw.ConnectSymmetric(inetRtrN, mecCentralN, gbit(300*time.Microsecond))
	inetRtr.AddHostRoute(mecCentralN.Addr(), inetRtrN.Port(2))

	// Cloud servers by region.
	cloudAddrs := map[string]pkt.Addr{
		"california": pkt.AddrFrom(8, 8, 1, 10),
		"oregon":     pkt.AddrFrom(8, 8, 2, 10),
		"virginia":   pkt.AddrFrom(8, 8, 3, 10),
	}
	for _, name := range []string{"california", "oregon", "virginia"} {
		delay, ok := cfg.CloudDelays[name]
		if !ok {
			continue
		}
		n := nw.AddNode("cloud-"+name, cloudAddrs[name])
		nw.ConnectSymmetric(inetRtrN, n, netsim.LinkConfig{BitsPerSecond: 1e9, Propagation: delay})
		inetRtr.AddHostRoute(n.Addr(), inetRtrN.Port(len(inetRtrN.Ports())-1))
		h := netsim.NewHost(n)
		h.Listen(netsim.PingPort, netsim.PingResponder{})
		tb.CloudHosts[name] = h
	}

	// Switches.
	tb.CoreSGW = sdn.NewSwitch(1, coreSGWN, cfg.GWCosts)
	tb.CorePGW = sdn.NewSwitch(2, corePGWN, cfg.GWCosts)
	tb.EdgeSGW = sdn.NewSwitch(3, edgeSGWN, cfg.GWCosts)
	tb.EdgePGW = sdn.NewSwitch(4, edgePGWN, cfg.GWCosts)
	for _, sw := range []*sdn.Switch{tb.CoreSGW, tb.CorePGW, tb.EdgeSGW, tb.EdgePGW} {
		ctl.AddSwitch(sw)
	}

	// EPC control plane.
	tb.EPC = epc.NewCore(epc.Config{
		Eng: eng, Net: nw, Ctl: ctl,
		S1APDelay:   2 * time.Millisecond,
		GTPv2Delay:  time.Millisecond,
		IdleTimeout: cfg.IdleTimeout,
	})
	tb.EPC.SGWC.AddUserPlane("core-sgw", tb.CoreSGW, 0, 1)
	tb.EPC.PGWC.AddUserPlane("core-pgw", tb.CorePGW, 0, 1)
	tb.EPC.SGWC.AddUserPlane("edge-sgw", tb.EdgeSGW, 0, 1)
	tb.EPC.PGWC.AddUserPlane("edge-pgw", tb.EdgePGW, 0, 1)
	tb.EPC.PCRF.AddRule(epc.PolicyRule{ServiceID: RetailPolicyID, QCI: pkt.QCIMEC, ARP: 2, Precedence: 10})

	tb.ENB = epc.NewENB(tb.EPC, enbN)
	tb.ENBs = []*epc.ENB{tb.ENB}

	// Static flow chain for background traffic through the shared core
	// (another tenant's load, present regardless of our UEs).
	bg := sdn.FlowEntry{
		Priority: 50, Cookie: 0xb6b6b6,
		Match:   pkt.Match{IPv4Src: pkt.AddrPtr(bgSrcN.Addr())},
		Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 1}},
	}
	ctl.InstallFlow(tb.CoreSGW, bg)
	ctl.InstallFlow(tb.CorePGW, bg)
	tb.BGSource = netsim.NewHost(bgSrcN)
	tb.BGSink = netsim.NewHost(bgSinkN)

	// Radio environment, landmarks and localization.
	tb.D2D = d2d.NewEnv(eng)
	for i, lm := range tb.Floor.Landmarks {
		// The publisher device carries the landmark's name: discovery
		// messages identify the landmark by their From field, which the
		// localization manager resolves against the floor plan.
		dev := tb.D2D.AddDevice(lm.Name, lm.Pos)
		sectionIdx := sectionIndex(tb.Floor, lm.Section)
		code := d2d.ServiceCode(RetailServiceCode, uint16(sectionIdx), uint16(i))
		dev.Publish(RetailServiceName, code, lm.Section, cfg.DiscoveryPeriod)
	}
	tb.locFit = CalibrateFromChannel(tb.D2D.PathLoss, nil)
	tb.Loc = NewLocalizationManager(tb.Floor, tb.locFit)
	tb.DB = vision.BuildRetailDB(tb.Floor, cfg.DBFeatures)

	// Servers and backends.
	tb.CIServer = netsim.NewHost(ciN)
	tb.CIServer.Listen(netsim.PingPort, netsim.PingResponder{})
	tb.EdgeBackend = NewARBackend(tb.CIServer, cfg.EdgeDevice, cfg.Scheme, tb.Floor, tb.DB, tb.Loc)

	tb.CentralMEC = netsim.NewHost(mecCentralN)
	tb.CentralMEC.Listen(netsim.PingPort, netsim.PingResponder{})
	tb.MECBackend = NewARBackend(tb.CentralMEC, cfg.CloudDevice, SchemeNaive, tb.Floor, tb.DB, nil)

	if ca := tb.CloudHosts["california"]; ca != nil {
		tb.CloudAR = NewARBackend(ca, cfg.CloudDevice, SchemeNaive, tb.Floor, tb.DB, nil)
	}

	// MRS and the retail service.
	tb.MRS = NewMRS(tb.EPC)
	tb.MRS.RegisterService(CIService{
		Name:     RetailServiceName,
		PolicyID: RetailPolicyID,
		Sites: []EdgeSite{{
			Name: "edge-1", CIServer: ciN.Addr(),
			SGWPlane: "edge-sgw", PGWPlane: "edge-pgw",
			ENBs: []string{"enb"},
		}},
	})
	// Handover completions flow into the MRS so it can re-anchor the MEC
	// binding when the UE's new cell has a closer edge site (DESIGN.md §3j).
	tb.EPC.MME.OnHandoverComplete = func(sess *epc.Session, _, target *epc.ENB) {
		tb.MRS.HandleHandover(sess.UE.Addr(), target.Name())
	}

	// Fault-injection targets: the named control/bottleneck links and the
	// default edge site as a crash group.
	tb.Faults = fault.NewInjector(eng)
	tb.Faults.RegisterLink("s11", tb.EPC.S11Link())
	tb.Faults.RegisterLink("s5", tb.EPC.S5Link())
	tb.Faults.RegisterLink("shared-core", tb.SharedCoreLink)
	site1 := &SiteBundle{
		Name: "edge-1", SGW: tb.EdgeSGW, PGW: tb.EdgePGW,
		CI: tb.CIServer, Backend: tb.EdgeBackend, Loc: tb.Loc,
		SGWPlane: "edge-sgw", PGWPlane: "edge-pgw",
		links: []*netsim.Link{edgeRtrLink, edgeFabricLink, edgeCILink},
	}
	tb.Sites = []*SiteBundle{site1}
	tb.Faults.RegisterSite(site1.Name, site1.links...)
	rtr.AddHostRoute(ciN.Addr(), rtrN.Port(2))
	tb.routeSiteCI(site1)

	// UEs.
	for i := 0; i < cfg.NumUEs; i++ {
		tb.AddUE(fmt.Sprintf("customer-%d", i+1), geo.Point{X: 21, Y: 15})
	}
	return tb
}

// AddEdgeSite deploys another edge cloud instance on the aggregation
// router: its own SGW-U/PGW-U pair, CI server, AR backend and localization
// manager, registered with the retail service as a failover candidate (no
// eNB lists it, so the MRS only selects it when sites local to the UE's
// eNB are down) and with the fault injector as a crash group.
func (tb *Testbed) AddEdgeSite(name string) *SiteBundle {
	idx := len(tb.Sites)
	base := byte(3 + idx)
	gbit := netsim.LinkConfig{BitsPerSecond: 1e9, Propagation: tb.Cfg.EdgeDelay}
	rtrN := tb.Net.Node("agg-router")
	sgwN := tb.Net.AddNode(name+"-sgw-u", pkt.AddrFrom(10, base, 0, 1))
	pgwN := tb.Net.AddNode(name+"-pgw-u", pkt.AddrFrom(10, base, 0, 2))
	ciN := tb.Net.AddNode(name+"-ci", pkt.AddrFrom(10, base, 0, 10))

	rtrLink := tb.Net.ConnectSymmetric(rtrN, sgwN, gbit)
	tb.aggRouter.AddHostRoute(sgwN.Addr(), rtrN.Port(len(rtrN.Ports())-1))
	tb.aggRouter.AddHostRoute(ciN.Addr(), rtrN.Port(len(rtrN.Ports())-1))
	fabricLink := tb.Net.ConnectSymmetric(sgwN, pgwN, gbit)
	ciLink := tb.Net.ConnectSymmetric(pgwN, ciN, gbit)

	// DPIDs continue the 3/4 = edge-1 pattern: site idx gets 3+2*idx and
	// 4+2*idx (core switches hold 1/2).
	sgw := sdn.NewSwitch(uint64(3+2*idx), sgwN, tb.Cfg.GWCosts)
	pgw := sdn.NewSwitch(uint64(4+2*idx), pgwN, tb.Cfg.GWCosts)
	tb.Ctl.AddSwitch(sgw)
	tb.Ctl.AddSwitch(pgw)
	tb.EPC.SGWC.AddUserPlane(name+"-sgw", sgw, 0, 1)
	tb.EPC.PGWC.AddUserPlane(name+"-pgw", pgw, 0, 1)

	ci := netsim.NewHost(ciN)
	ci.Listen(netsim.PingPort, netsim.PingResponder{})
	loc := NewLocalizationManager(tb.Floor, tb.locFit)
	backend := NewARBackend(ci, tb.Cfg.EdgeDevice, tb.Cfg.Scheme, tb.Floor, tb.DB, loc)

	s := &SiteBundle{
		Name: name, SGW: sgw, PGW: pgw, CI: ci, Backend: backend, Loc: loc,
		SGWPlane: name + "-sgw", PGWPlane: name + "-pgw",
		links: []*netsim.Link{rtrLink, fabricLink, ciLink},
	}
	tb.Sites = append(tb.Sites, s)
	tb.Faults.RegisterSite(name, s.links...)
	tb.MRS.AddSite(RetailServiceName, EdgeSite{
		Name: name, CIServer: ciN.Addr(),
		SGWPlane: s.SGWPlane, PGWPlane: s.PGWPlane,
	})
	tb.routeSiteCI(s)
	tb.Eng.Metrics().Scope("core/testbed").Emit("site-added", name)
	return s
}

// ciRouteCookie tags the static inter-site routes that carry the session
// migration protocol between edge clouds' CI servers.
const ciRouteCookie = uint64(0xc1c1c1)

// routeSiteCI makes a site's CI server reachable across the fabric: the
// site's own switches forward its CI address inward (SGW port 1 toward the
// PGW, PGW port 1 toward the server), and between this site and every
// earlier one, foreign CI addresses exit toward the aggregation router
// (port 0). Bearer traffic is untouched — tunnel and per-UE flows sit at
// higher priority — so these routes only carry the raw CI-to-CI migration
// transfers.
func (tb *Testbed) routeSiteCI(s *SiteBundle) {
	out := func(port uint32) []pkt.Action {
		return []pkt.Action{{Type: pkt.ActionOutput, Port: port}}
	}
	toward := func(sw *sdn.Switch, dst pkt.Addr, port uint32) {
		tb.Ctl.InstallFlow(sw, sdn.FlowEntry{
			Priority: 50, Cookie: ciRouteCookie,
			Match:   pkt.Match{IPv4Dst: pkt.AddrPtr(dst)},
			Actions: out(port),
		})
	}
	ciAddr := s.CI.Node.Addr()
	for _, other := range tb.Sites {
		if other == s {
			continue
		}
		otherAddr := other.CI.Node.Addr()
		toward(other.SGW, ciAddr, 0)
		toward(other.PGW, ciAddr, 0)
		toward(s.SGW, otherAddr, 0)
		toward(s.PGW, otherAddr, 0)
	}
	toward(s.SGW, ciAddr, 1)
	toward(s.PGW, ciAddr, 1)
}

// EnableFailover arms MEC failure recovery: every edge site's SGW-U runs a
// GTP-U path monitor supervising the site's PGW-U (pinned with Supervise
// so probing survives bearer teardown), and path transitions flow through
// the SDN controller into the MRS, which moves bindings off failed sites.
func (tb *Testbed) EnableFailover(period time.Duration, maxMisses int) {
	for _, s := range tb.Sites {
		mon := s.SGW.EnablePathMonitor(period, maxMisses)
		mon.Supervise(s.PGW.Node().Addr(), 1)
	}
	tb.Ctl.OnPathEvent = func(_ *sdn.Switch, peer pkt.Addr, down bool) {
		tb.MRS.HandlePathEvent(peer, down)
	}
}

func sectionIndex(f *geo.Floor, section string) int {
	for i, s := range f.Sections {
		if s == section {
			return i
		}
	}
	return -1
}

// AddUE creates one customer device at pos: UE node + radio link, IMSI
// provisioning, d2d device, device manager and AR front-end.
func (tb *Testbed) AddUE(name string, pos geo.Point) *UEBundle {
	idx := len(tb.UEs)
	imsi := fmt.Sprintf("0010100000%05d", idx+1)
	ueN := tb.Net.AddNode(name, pkt.AddrFrom(172, 16, byte(idx/250), byte(2+idx%250)))
	ue := epc.NewUE(ueN, imsi)
	b := &UEBundle{UE: ue, Name: name}
	tb.connectRadio(tb.ENB, b)
	tb.EPC.HSS.Provision(epc.Subscriber{IMSI: imsi})

	dev := tb.D2D.AddDevice(name, pos)
	b.D2D = dev
	b.DM = NewDeviceManager(ue, dev, tb.MRS, "enb")
	b.Frontend = NewARFrontend(ue.Host, name, compute.Resolution{W: 720, H: 480}, pos)
	tb.UEs = append(tb.UEs, b)
	return b
}

func lastLink(nw *netsim.Network) *netsim.Link {
	links := nw.Links()
	return links[len(links)-1]
}

// Attach runs the initial attach for a UE bundle and waits for completion.
func (tb *Testbed) Attach(b *UEBundle) error {
	var result error
	done := false
	b.UE.Attach("core-sgw", "core-pgw", func(err error) {
		result = err
		done = true
	})
	tb.Run(2 * time.Second)
	if !done {
		return fmt.Errorf("core: attach timed out for %s", b.Name)
	}
	return result
}

// StartRetailApp registers the retail CI application for a bundle: the
// user's interest is the given section (category-level subscription), plus
// a service-wide subscription that feeds localization.
func (tb *Testbed) StartRetailApp(b *UEBundle, interestSection string) error {
	idx := sectionIndex(tb.Floor, interestSection)
	if idx < 0 {
		return fmt.Errorf("core: unknown section %q", interestSection)
	}
	return b.DM.Register(ServiceInfo{
		ServiceName: RetailServiceName,
		Interest: d2d.Expression{
			Code: d2d.ServiceCode(RetailServiceCode, uint16(idx), 0),
			Mask: d2d.MaskCategory,
		},
		ServiceWide: d2d.Expression{
			Code: d2d.ServiceCode(RetailServiceCode, 0, 0),
			Mask: d2d.MaskService,
		},
	}, b.Frontend)
}

// MoveUE repositions a user's radio device and AR ground truth.
func (tb *Testbed) MoveUE(b *UEBundle, pos geo.Point) {
	b.D2D.SetPos(pos)
	b.Frontend.SetPos(pos)
}

// AddNeighborENB deploys a second base station on the same backhaul (a
// store spanning two cells) and gives every existing UE a radio link to it,
// making it a handover candidate. The new eNB is registered with the
// retail service's edge site so MEC bindings remain valid after handover.
func (tb *Testbed) AddNeighborENB(name string) *epc.ENB {
	enb := tb.AddCellENB(name)
	tb.MRS.AddServiceENB(RetailServiceName, name)
	return enb
}

// AddCellENB deploys a base station on the backhaul WITHOUT registering it
// with any edge site: a session handed over to it keeps its MEC bearer, but
// the MRS treats the serving site as remote and relocates the binding to a
// site bound to the new cell (BindSiteToENB) when one is live — the
// cross-site mobility case of DESIGN.md §3j.
func (tb *Testbed) AddCellENB(name string) *epc.ENB {
	rtrN := tb.Net.Node("agg-router")
	enbN := tb.Net.AddNode(name, pkt.AddrFrom(10, 1, 0, byte(2+len(tb.ENBs))))
	tb.Net.ConnectSymmetric(enbN, rtrN, netsim.LinkConfig{
		BitsPerSecond: 1e9, Propagation: tb.Cfg.BackhaulDelay,
	})
	tb.aggRouter.AddHostRoute(enbN.Addr(), rtrN.Port(len(rtrN.Ports())-1))
	enb := epc.NewENB(tb.EPC, enbN)
	for _, b := range tb.UEs {
		tb.connectRadio(enb, b)
	}
	tb.ENBs = append(tb.ENBs, enb)
	return enb
}

// BindSiteToENB declares an edge site local to a cell: the MRS prefers it
// for sessions attaching — or handing over — through that eNB.
func (tb *Testbed) BindSiteToENB(siteName, enbName string) {
	tb.MRS.AddSiteENB(RetailServiceName, siteName, enbName)
}

// StartWalk drives a UE along the walker's path: every tick the radio and
// AR ground truth move to the walker's position, and at each precomputed
// cell-boundary crossing the MME hands the session over to the crossing's
// target eNB. cells maps cellOf's cell indices to serving eNBs; crossings
// into unmapped cells are skipped. onHO, when non-nil, observes every
// attempted handover's completion. The returned crossings are the schedule
// being executed.
func (tb *Testbed) StartWalk(b *UEBundle, w geo.Walker, cellOf func(geo.Point) int,
	cells []*epc.ENB, tick time.Duration, onHO func(c geo.Crossing, err error)) []geo.Crossing {
	for el := time.Duration(0); el <= w.Duration(); el += tick {
		el := el
		tb.Eng.Schedule(el, func() { tb.MoveUE(b, w.PosAt(el)) })
	}
	crossings := w.Crossings(cellOf, tick)
	for _, c := range crossings {
		c := c
		if c.To < 0 || c.To >= len(cells) || cells[c.To] == nil {
			continue
		}
		target := cells[c.To]
		tb.Eng.Schedule(c.At, func() {
			sess := tb.EPC.Session(b.UE.IMSI)
			if sess == nil || sess.ENB == target {
				return
			}
			tb.EPC.MME.Handover(sess, target, func(err error) {
				if onHO != nil {
					onHO(c, err)
				}
			})
		})
	}
	return crossings
}

// connectRadio links a UE bundle to an eNB with the testbed's radio
// configuration.
func (tb *Testbed) connectRadio(enb *epc.ENB, b *UEBundle) {
	enb.ConnectUE(b.UE, netsim.LinkConfig{
		BitsPerSecond: tb.Cfg.RadioDLBps,
		Propagation:   tb.Cfg.RadioDelay,
		Jitter:        tb.Cfg.RadioJitter,
	})
	radio := lastLink(tb.Net)
	radio.SetConfigAB(netsim.LinkConfig{
		BitsPerSecond: tb.Cfg.RadioULBps,
		Propagation:   tb.Cfg.RadioDelay,
		Jitter:        tb.Cfg.RadioJitter,
		Prioritized:   true,
	})
}

// Handover moves a UE's session to the target eNB and waits for the path
// switch to complete.
func (tb *Testbed) Handover(b *UEBundle, target *epc.ENB) error {
	sess := tb.EPC.Session(b.UE.IMSI)
	if sess == nil {
		return fmt.Errorf("core: %s has no session", b.Name)
	}
	var result error
	done := false
	tb.EPC.MME.Handover(sess, target, func(err error) { result, done = err, true })
	tb.Run(time.Second)
	if !done {
		return fmt.Errorf("core: handover for %s timed out", b.Name)
	}
	return result
}

// Run advances virtual time by d.
func (tb *Testbed) Run(d time.Duration) { tb.Eng.RunFor(d) }

// MetricsSnapshot captures the testbed's telemetry.
func (tb *Testbed) MetricsSnapshot() *telemetry.Snapshot { return tb.Eng.Metrics().Snapshot() }
