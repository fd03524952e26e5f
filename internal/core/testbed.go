package core

import (
	"cmp"
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
	"acacia/internal/telemetry"
	"acacia/internal/vision"
)

// TestbedConfig parameterizes the standard ACACIA testbed. Zero values
// select the calibrated defaults listed on each field.
type TestbedConfig struct {
	Seed uint64

	// Radio link (UE <-> eNB). Defaults: 24 Mbps up (40 Mbps down, fixed),
	// 4.5 ms one-way delay with 2 ms exponential scheduling jitter.
	RadioULBps  float64
	RadioDelay  time.Duration
	RadioJitter time.Duration

	// CoreDelay is the one-way backhaul-to-centralized-gateways latency
	// (default 15 ms: the hierarchical-routing penalty of §4).
	CoreDelay time.Duration

	// IdleTimeout overrides the LTE inactivity timer (default 11.576 s).
	IdleTimeout time.Duration

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

// radioDLBps is the downlink rate of every UE's radio link.
const radioDLBps = 40e6

// cloudRegions place the paper's three EC2 regions behind the internet
// router, in link order, with their one-way delay from it.
var cloudRegions = []struct {
	name  string
	addr  pkt.Addr
	delay time.Duration
}{
	{"california", pkt.AddrFrom(8, 8, 1, 10), 13 * time.Millisecond},
	{"oregon", pkt.AddrFrom(8, 8, 2, 10), 23 * time.Millisecond},
	{"virginia", pkt.AddrFrom(8, 8, 3, 10), 40 * time.Millisecond},
}

func (c TestbedConfig) withDefaults() TestbedConfig {
	c.RadioULBps, c.NumUEs, c.DBFeatures = cmp.Or(c.RadioULBps, 24e6), cmp.Or(c.NumUEs, 1), cmp.Or(c.DBFeatures, DBObjectFeatures)
	c.RadioDelay, c.RadioJitter = cmp.Or(c.RadioDelay, 4500*time.Microsecond), cmp.Or(c.RadioJitter, 2*time.Millisecond)
	c.CoreDelay, c.DiscoveryPeriod = cmp.Or(c.CoreDelay, 15*time.Millisecond), cmp.Or(c.DiscoveryPeriod, time.Second)
	return c
}

// RetailServiceName is the LTE-direct service of the testbed's retail
// deployment, with its carrier-assigned code prefix.
const (
	RetailServiceName = "acacia-retail"
	RetailServiceCode = uint32(0xACAC)
	RetailPolicyID    = "retail-ar"
)

// UEBundle groups one customer device's pieces.
type UEBundle struct {
	UE       *epc.UE
	D2D      *d2d.Device
	DM       *DeviceManager
	Frontend *ARFrontend
	Name     string
}

// Testbed is the fully wired ACACIA environment: a Metro plus the retail
// deployment on it and the internet side behind its SGi node.
type Testbed struct {
	*Metro
	Cfg TestbedConfig
	MRS *MRS
	// ENB is the store's first cell, ENBs[0].
	ENB   *epc.ENB
	D2D   *d2d.Env
	Floor *geo.Floor
	DB    *vision.DB
	// Loc is edge-1's localization manager (every site carries its own in
	// SiteBundle.Loc; this field aliases Sites[0].Loc for the single-site
	// experiments).
	Loc *LocalizationManager
	// locFit is the one-time path-loss calibration, computed once and
	// shared by every site's manager (the fit is immutable; per-user
	// tracking state is what must stay site-local).
	locFit localization.PathLossFit

	UEs []*UEBundle

	// Servers. CIServer and EdgeBackend alias edge-1's.
	CIServer    *netsim.Host
	CentralMEC  *netsim.Host // MEC server behind the centralized GWs
	CloudHosts  map[string]*netsim.Host
	EdgeBackend *ARBackend

	// EdgeSGW and EdgePGW alias edge-1's switches.
	EdgeSGW, EdgePGW *sdn.Switch

	// Faults injects deterministic outages against registered targets:
	// the control links ("s11", "s5"), "shared-core", and every edge site
	// by name ("edge-1" first; AddEdgeSite registers the rest).
	Faults *fault.Injector

	// BGSource/BGSink generate and absorb background load through the
	// shared core (SharedCoreLink, the Fig. 3(g)/10(b) bottleneck).
	BGSource *netsim.Host
	BGSink   *netsim.Host

	// wait collects Attach's and Handover's outcomes.
	wait *waiter
}

// waiter receives one procedure outcome through fn, bound once. A waiter
// whose procedure outlived its Run window is abandoned to it, so a late
// callback never lands in a later call.
type waiter struct {
	err   error
	fired bool
	fn    func(error)
}

func (w *waiter) set(err error) { w.err, w.fired = err, true }

// await returns a waiter ready for the next procedure.
func (tb *Testbed) await() *waiter {
	if w := tb.wait; w != nil && w.fired {
		w.err, w.fired = nil, false
		return w
	}
	tb.wait = &waiter{}
	tb.wait.fn = tb.wait.set
	return tb.wait
}

// NewTestbed builds the standard topology, a Metro with one eNB and one
// edge site plus the internet side:
//
//	UEs --radio-- enb -- router --+-- core SGW-U ==100Mbps== core PGW-U -- inet rtr --+-- clouds
//	                              |                                                   +-- central MEC server
//	                              +-- edge-1 SGW-U -- edge-1 PGW-U -- edge-1 CI
func NewTestbed(cfg TestbedConfig) *Testbed {
	cfg = cfg.withDefaults()
	m := NewMetro(MetroConfig{
		Seed: cfg.Seed, WireBps: 1e9, CoreDelay: cfg.CoreDelay, SiteDelay: fabricDelay,
		// Every default bearer shares 100 Mbps, the saturation point of
		// Fig. 3(g), behind a 16 MiB LTE-style deep buffer that produces
		// the paper's second-scale delays at saturation.
		SharedCore: netsim.LinkConfig{BitsPerSecond: 100e6, Propagation: 300 * time.Microsecond, QueueBytes: 16 << 20},
		ENBs:       []string{"enb"}, Sites: []string{"edge-1"},
	})
	tb := &Testbed{
		Metro: m, Cfg: cfg,
		Floor:      geo.RetailFloor(),
		CloudHosts: make(map[string]*netsim.Host),
	}

	// Background traffic enters at the router, bound for the internet sink.
	bgSrcN := m.Net.AddNode("bg-src", pkt.AddrFrom(10, 1, 1, 1))
	m.uplink(bgSrcN, 100*time.Microsecond)
	m.Router.AddRoute(pkt.AddrFrom(8, 8, 0, 0), pkt.Addr{255, 255, 0, 0}, m.Router.Lookup(m.CoreSGW.Node().Addr()))

	inetRtr := netsim.NewRouter(m.SGi)
	inetRtr.AddRoute(pkt.AddrFrom(172, 16, 0, 0), pkt.Addr{255, 255, 0, 0}, m.SGi.Port(0))
	// internet hangs a ping-answering host off the SGi router.
	internet := func(name string, addr pkt.Addr, d time.Duration) *netsim.Host {
		n := m.Net.AddNode(name, addr)
		inetRtr.AddHostRoute(addr, m.Net.ConnectSymmetric(m.SGi, n, m.wire(d)).A)
		h := netsim.NewHost(n)
		h.Listen(netsim.PingPort, netsim.PingResponder{})
		return h
	}
	tb.BGSink = internet("bg-sink", pkt.AddrFrom(8, 8, 9, 9), 100*time.Microsecond)
	// The central-MEC server sits just behind the centralized gateways:
	// minimal extra distance, but its traffic still crosses the shared
	// core bottleneck (the Fig. 10(b) "EPC with MEC" configuration).
	tb.CentralMEC = internet("central-mec", pkt.AddrFrom(10, 2, 0, 10), 300*time.Microsecond)
	for _, r := range cloudRegions {
		tb.CloudHosts[r.name] = internet("cloud-"+r.name, r.addr, r.delay)
	}

	m.Start(cfg.IdleTimeout)
	tb.ENB = m.ENBs[0]
	tb.EPC.PCRF.AddRule(epc.PolicyRule{ServiceID: RetailPolicyID, QCI: pkt.QCIMEC, Precedence: 10})

	// Static flow chain for background traffic through the shared core
	// (another tenant's load, present regardless of our UEs).
	bg := sdn.FlowEntry{
		Priority: 50, Cookie: 0xb6b6b6,
		Match:   pkt.Match{IPv4Src: pkt.AddrPtr(bgSrcN.Addr())},
		Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 1}},
	}
	m.Ctl.InstallFlow(m.CoreSGW, bg)
	m.Ctl.InstallFlow(m.CorePGW, bg)
	tb.BGSource = netsim.NewHost(bgSrcN)

	// Radio environment, landmarks and localization.
	tb.D2D = d2d.NewEnv(m.Eng)
	for i, lm := range tb.Floor.Landmarks {
		// The publisher device carries the landmark's name: discovery
		// messages identify the landmark by their From field, which the
		// localization manager resolves against the floor plan.
		dev := tb.D2D.AddDevice(lm.Name, lm.Pos)
		sectionIdx := sectionIndex(tb.Floor, lm.Section)
		code := d2d.ServiceCode(RetailServiceCode, uint16(sectionIdx), uint16(i))
		dev.Publish(RetailServiceName, code, lm.Section, cfg.DiscoveryPeriod)
	}
	tb.locFit = CalibrateFromChannel(tb.D2D.PathLoss)
	tb.DB = vision.BuildRetailDB(tb.Floor, cfg.DBFeatures)

	// Naive backends on the central MEC server and the California cloud
	// server: each serves the frames its host receives.
	NewARBackend(tb.CentralMEC, compute.I7x8, SchemeNaive, tb.Floor, tb.DB, nil)
	NewARBackend(tb.CloudHosts["california"], compute.I7x8, SchemeNaive, tb.Floor, tb.DB, nil)

	// MRS and the retail service.
	tb.MRS = NewMRS(tb.EPC)
	tb.MRS.RegisterService(CIService{Name: RetailServiceName, PolicyID: RetailPolicyID})
	// Handover completions flow into the MRS so it can re-anchor the MEC
	// binding when the UE's new cell has a closer edge site (DESIGN.md §3j).
	tb.EPC.MME.OnHandoverComplete = func(sess *epc.Session, _, target *epc.ENB) {
		tb.MRS.HandleHandover(sess.UE.Addr(), target.Name())
	}

	// Fault-injection targets: the named control/bottleneck links, then
	// edge-1 as a crash group.
	tb.Faults = fault.NewInjector(m.Eng)
	tb.Faults.RegisterLink("s11", tb.EPC.S11Link())
	tb.Faults.RegisterLink("s5", tb.EPC.S5Link())
	tb.Faults.RegisterLink("shared-core", m.SharedCoreLink)

	site1 := m.Sites[0]
	tb.equipSite(site1)
	edge1 := site1.EdgeSite()
	edge1.ENBs = []string{"enb"}
	tb.MRS.AddSite(RetailServiceName, edge1)
	tb.Loc, tb.CIServer, tb.EdgeBackend = site1.Loc, site1.CI, site1.Backend
	tb.EdgeSGW, tb.EdgePGW = site1.SGW, site1.PGW

	// UEs.
	for i := 0; i < cfg.NumUEs; i++ {
		tb.AddUE(fmt.Sprintf("customer-%d", i+1), geo.Point{X: 21, Y: 15})
	}
	return tb
}

// AddEdgeSite deploys another edge cloud instance on the aggregation
// router: the Metro's site plus its retail pieces (equipSite), registered
// with the retail service as a failover candidate (no eNB lists it, so the
// MRS only selects it when sites local to the UE's eNB are down).
func (tb *Testbed) AddEdgeSite(name string) *SiteBundle {
	s := tb.AddSite(name)
	tb.equipSite(s)
	tb.MRS.AddSite(RetailServiceName, s.EdgeSite())
	tb.Eng.Metrics().Scope("core/testbed").Emit("site-added", name)
	return s
}

// equipSite gives an edge site its retail pieces: a ping responder, AR
// backend and localization manager on the CI server, a crash group in the
// fault injector, and the routes that carry session migration between CI
// servers.
func (tb *Testbed) equipSite(s *SiteBundle) {
	s.CI.Listen(netsim.PingPort, netsim.PingResponder{})
	s.Loc = NewLocalizationManager(tb.Floor, tb.locFit)
	s.Backend = NewARBackend(s.CI, compute.I7x8, tb.Cfg.Scheme, tb.Floor, tb.DB, s.Loc)
	tb.Faults.RegisterSite(s.Name, s.links...)
	tb.Router.AddHostRoute(s.CI.Node.Addr(), s.links[0].A)
	tb.routeSiteCI(s)
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

// AddUE creates one customer device at pos: UE node + a radio link to
// every eNB, IMSI provisioning, d2d device, device manager and AR
// front-end.
func (tb *Testbed) AddUE(name string, pos geo.Point) *UEBundle {
	idx := len(tb.UEs)
	imsi := fmt.Sprintf("0010100000%05d", idx+1)
	ueN := tb.Net.AddNode(name, pkt.AddrFrom(172, 16, byte(idx/250), byte(2+idx%250)))
	ue := tb.EPC.NewUE(ueN, imsi)
	b := &UEBundle{UE: ue, Name: name}
	for _, enb := range tb.ENBs {
		tb.connectRadio(enb, b)
	}
	tb.EPC.HSS.Provision(epc.Subscriber{IMSI: imsi})

	dev := tb.D2D.AddDevice(name, pos)
	b.D2D = dev
	b.DM = NewDeviceManager(ue, dev, tb.MRS, "enb")
	b.Frontend = NewARFrontend(&ue.Host, name, compute.Resolution{W: 720, H: 480}, pos)
	tb.UEs = append(tb.UEs, b)
	return b
}

// Attach runs the initial attach for a UE bundle and waits for completion.
func (tb *Testbed) Attach(b *UEBundle) error {
	w := tb.await()
	b.UE.Attach("core-sgw", "core-pgw", w.fn)
	tb.Run(2 * time.Second)
	if !w.fired {
		return fmt.Errorf("core: attach timed out for %s", b.Name)
	}
	return w.err
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
// making it a handover candidate. The new eNB is registered with every
// edge site of the retail service so MEC bindings remain valid after
// handover.
func (tb *Testbed) AddNeighborENB(name string) *epc.ENB {
	enb := tb.AddCellENB(name)
	for _, s := range tb.Sites {
		tb.BindSiteToENB(s.Name, name)
	}
	return enb
}

// AddCellENB deploys a base station on the backhaul WITHOUT registering it
// with any edge site: a session handed over to it keeps its MEC bearer, but
// the MRS treats the serving site as remote and relocates the binding to a
// site bound to the new cell (BindSiteToENB) when one is live — the
// cross-site mobility case of DESIGN.md §3j.
func (tb *Testbed) AddCellENB(name string) *epc.ENB {
	enb := tb.AddENB(name)
	for _, b := range tb.UEs {
		tb.connectRadio(enb, b)
	}
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
		tb.Eng.Schedule(el, func() { tb.MoveUE(b, w.PosAt(el)) })
	}
	crossings := w.Crossings(cellOf, tick)
	for _, c := range crossings {
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
		BitsPerSecond: tb.Cfg.RadioULBps,
		Propagation:   tb.Cfg.RadioDelay,
		Jitter:        tb.Cfg.RadioJitter,
	}, netsim.LinkConfig{
		BitsPerSecond: radioDLBps,
		Propagation:   tb.Cfg.RadioDelay,
		Jitter:        tb.Cfg.RadioJitter,
	})
}

// Handover moves a UE's session to the target eNB and waits for the path
// switch to complete.
func (tb *Testbed) Handover(b *UEBundle, target *epc.ENB) error {
	sess := tb.EPC.Session(b.UE.IMSI)
	if sess == nil {
		return fmt.Errorf("core: %s has no session", b.Name)
	}
	w := tb.await()
	tb.EPC.MME.Handover(sess, target, w.fn)
	tb.Run(time.Second)
	if !w.fired {
		return fmt.Errorf("core: handover for %s timed out", b.Name)
	}
	return w.err
}

// Run advances virtual time by d.
func (tb *Testbed) Run(d time.Duration) { tb.Eng.RunFor(d) }

// MetricsSnapshot captures the testbed's telemetry.
func (tb *Testbed) MetricsSnapshot() *telemetry.Snapshot { return tb.Eng.Metrics().Snapshot() }
