// Package core implements ACACIA itself: the MEC Registration Server (MRS),
// the on-device ACACIA device manager, the LTE-direct localization manager,
// the AR front-end/back-end pair, and a calibrated testbed that wires them
// onto the EPC/SDN/netsim substrates. The package also provides the CLOUD
// and MEC baselines the paper compares against.
package core

import (
	"errors"
	"fmt"
	"sort"

	"acacia/internal/epc"
	"acacia/internal/pkt"
	"acacia/internal/sim"
	"acacia/internal/telemetry"
)

// EdgeSite is one mobile edge cloud instance: its CI server address and the
// local user planes that terminate dedicated bearers there.
type EdgeSite struct {
	Name     string
	CIServer pkt.Addr
	SGWPlane string
	PGWPlane string
	// ENBs lists the base stations this site is local to; the MRS picks
	// the site serving the requesting UE's eNB.
	ENBs []string
	// CapacityUnits bounds concurrent MEC bindings the site admits; zero
	// means unbounded (the paper-scale default). One binding consumes one
	// unit — the UCMEC-style abstraction of the site's compute/bearer
	// budget that placement and admission work against.
	CapacityUnits int

	// load is the MRS-maintained count of units in use (reserved at
	// placement, released on teardown or failed activation).
	load int
}

// Remaining reports the site's spare capacity units; unbounded sites report
// a large sentinel so max-remaining placement treats them as never full.
func (s *EdgeSite) Remaining() int {
	if s.CapacityUnits <= 0 {
		return int(^uint(0) >> 2) // effectively infinite
	}
	return s.CapacityUnits - s.load
}

// CIService is a continuous-interactive service registered with the MRS.
type CIService struct {
	// Name is the LTE-direct service name (e.g. the retail chain).
	Name string
	// PolicyID keys the PCRF rule for this service's dedicated bearers.
	PolicyID string
	// Sites seeds the service's edge sites at registration time. The live
	// set is MRS-owned afterwards: grow it with MRS.AddSite (stable
	// *EdgeSite identity, indexes maintained), not by appending here.
	Sites []EdgeSite

	// sites is the live, MRS-owned site list in registration order; byENB
	// indexes the eNB-local subsets (same order).
	sites []*EdgeSite
	byENB map[string][]*EdgeSite
}

// ErrNoCapacity is returned (wrapped) by RequestConnectivity when every
// surviving edge site of the service is at capacity. It is retriable: the
// device manager's capped backoff re-requests until a unit frees up.
var ErrNoCapacity = errors.New("no edge site with spare capacity")

// MRS is the MEC Registration Server: the 3GPP application function that
// turns device-manager connectivity requests into PCRF signaling and tracks
// which UE is bound to which edge site.
type MRS struct {
	core     *epc.Core
	services map[string]*CIService
	bindings map[pkt.Addr]*binding // by UE IP
	// activating marks the UEs whose bearer activation is under way.
	activating map[pkt.Addr]bool

	// siteBindings indexes live bindings by site name, so failover never
	// scans the full binding table; peerSites resolves a supervised
	// user-plane address straight to the sites whose fabric owns it. Both
	// replace O(#sessions)/O(#sites) scans on the path-event hot path.
	siteBindings map[string]map[pkt.Addr]*binding
	peerSites    map[pkt.Addr][]*EdgeSite
	// peerDirty forces a peerSites rebuild: user-plane addresses resolve
	// through the gateway control planes, which may register planes after
	// the service, so the index is (re)built lazily on first use and after
	// every site mutation.
	peerDirty bool

	// downSites marks edge sites (by name) whose GTP-U path is currently
	// failed, as reported by HandlePathEvent. Placement skips them.
	downSites map[string]bool

	scope   telemetry.Scope
	records sim.Pool[binding]

	// Failovers counts bindings moved off a failed site; Relocations
	// counts bindings moved because the UE handed over to a cell another
	// site serves; Rejections counts requests denied for lack of capacity.
	Failovers, Relocations, Rejections uint64
}

// AppendMetrics reports Rejections as core/mrs/admission-rejects: the MRS
// is the telemetry.Source NewMRS registers.
func (m *MRS) AppendMetrics(dst []telemetry.Metric) []telemetry.Metric {
	return append(dst, telemetry.Metric{Name: "core/mrs/admission-rejects", Kind: telemetry.KindCounter, Count: m.Rejections})
}

// binding is one UE's MEC binding, and the pooled record of the procedures
// on it (DESIGN.md §3c): RequestConnectivity takes it and hands the PCRF
// its activated leg, ReleaseConnectivity its released leg, both bound once
// on the record's first take. holds counts what still reaches the record —
// its entry in the binding indexes, and an activation, release or move
// under way — and it goes back to MRS.records after the last.
type binding struct {
	m       *MRS
	ueIP    pkt.Addr
	service *CIService
	site    *EdgeSite
	// enbName and notify replay the original connectivity request during
	// failover: the MRS re-selects a site for the same eNB and tells the
	// device manager's callback about the new CI server.
	enbName string
	notify  func(pkt.Addr, error)
	// released is the callback of the release under way, if releasing.
	released func(error)
	// failing marks a binding mid-failover so a burst of path events does
	// not re-enter the procedure; releasing marks a release under way.
	failing, releasing bool
	holds              uint8

	activatedF func(uint8, error)
	releasedF  func(error)
}

// drop releases one hold, recycling the record after the last.
func (b *binding) drop() {
	if b.holds--; b.holds == 0 {
		b.service, b.site, b.notify, b.released, b.failing = nil, nil, nil, nil, false
		b.m.records.Put(b)
	}
}

// NewMRS creates an MRS against the given EPC control plane.
func NewMRS(core *epc.Core) *MRS {
	m := &MRS{
		core:         core,
		services:     make(map[string]*CIService),
		bindings:     make(map[pkt.Addr]*binding),
		activating:   make(map[pkt.Addr]bool),
		siteBindings: make(map[string]map[pkt.Addr]*binding),
		peerSites:    make(map[pkt.Addr][]*EdgeSite),
		downSites:    make(map[string]bool),
		scope:        core.Eng.Metrics().Scope("core").Scope("mrs"),
	}
	core.Eng.Metrics().Register(m)
	return m
}

// RegisterService adds a CI service and its edge sites.
func (m *MRS) RegisterService(svc CIService) {
	cp := svc
	cp.byENB = make(map[string][]*EdgeSite)
	m.services[svc.Name] = &cp
	for i := range svc.Sites {
		m.addSite(&cp, svc.Sites[i])
	}
}

// AddSite registers another edge site with a service (a failover candidate
// when no eNB lists it) and returns the MRS-owned instance. All site-set
// mutation goes through here so the address and eNB indexes stay current.
func (m *MRS) AddSite(serviceName string, site EdgeSite) *EdgeSite {
	svc := m.services[serviceName]
	if svc == nil {
		return nil
	}
	return m.addSite(svc, site)
}

func (m *MRS) addSite(svc *CIService, site EdgeSite) *EdgeSite {
	s := new(EdgeSite)
	*s = site
	s.load = 0
	svc.sites = append(svc.sites, s)
	for _, enb := range s.ENBs {
		svc.byENB[enb] = append(svc.byENB[enb], s)
	}
	m.peerDirty = true
	return s
}

// AddServiceENB marks every site of the service as local to the named eNB
// (the testbed's neighbour-cell deployment, where the store's sites serve
// both cells).
func (m *MRS) AddServiceENB(serviceName, enbName string) {
	svc := m.services[serviceName]
	if svc == nil {
		return
	}
	for _, s := range svc.sites {
		s.ENBs = append(s.ENBs, enbName)
		svc.byENB[enbName] = append(svc.byENB[enbName], s)
	}
}

// AddSiteENB marks one named site of a service as local to an eNB — the
// cross-site mobility deployment, where each cell has its own edge site
// (unlike AddServiceENB's blanket neighbour-cell coverage).
func (m *MRS) AddSiteENB(serviceName, siteName, enbName string) {
	svc := m.services[serviceName]
	if svc == nil {
		return
	}
	for _, s := range svc.sites {
		if s.Name != siteName {
			continue
		}
		s.ENBs = append(s.ENBs, enbName)
		svc.byENB[enbName] = append(svc.byENB[enbName], s)
		return
	}
}

// SiteFor places a connectivity request: the first eNB-local live site with
// spare capacity, else — the UCMEC-style delay-constrained spill — the
// surviving non-full site with the most remaining units (registration order
// breaks ties, so placement is deterministic). A wrapped ErrNoCapacity
// distinguishes "everything full" (retriable) from "nothing survives".
func (m *MRS) SiteFor(svc *CIService, enbName string) (*EdgeSite, error) {
	if len(svc.sites) == 0 {
		return nil, fmt.Errorf("core: service %q has no edge sites", svc.Name)
	}
	for _, s := range svc.byENB[enbName] {
		if !m.downSites[s.Name] && s.Remaining() > 0 {
			return s, nil
		}
	}
	var best *EdgeSite
	alive := false
	for _, s := range svc.sites {
		if m.downSites[s.Name] {
			continue
		}
		alive = true
		if s.Remaining() <= 0 {
			continue
		}
		if best == nil || s.Remaining() > best.Remaining() {
			best = s
		}
	}
	if best != nil {
		return best, nil
	}
	if alive {
		return nil, fmt.Errorf("core: service %q: %w", svc.Name, ErrNoCapacity)
	}
	return nil, fmt.Errorf("core: service %q has no surviving edge sites", svc.Name)
}

// SiteLoad reports the units reserved on the named site, or -1 when no
// service registers it.
func (m *MRS) SiteLoad(name string) int {
	for _, svc := range m.services {
		for _, s := range svc.sites {
			if s.Name == name {
				return s.load
			}
		}
	}
	return -1
}

// RequestConnectivity handles a device manager's request: locate the
// closest CI server for the service and have the PCRF activate a dedicated
// bearer toward it. done receives the selected CI server address. The MRS
// keeps the request parameters with the binding so it can replay the
// procedure against a surviving site when the serving site fails.
//
// Admission is capacity-based: placement reserves one unit on the selected
// site up front (released again if activation fails) and rejects with a
// wrapped ErrNoCapacity when every surviving site is full — a deterministic,
// retriable outcome the device manager's capped backoff absorbs.
//
// A UE has one activation at a time: asking again while one is under way
// fails.
func (m *MRS) RequestConnectivity(serviceName string, ueIP pkt.Addr, enbName string, done func(pkt.Addr, error)) {
	svc, ok := m.services[serviceName]
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("core: unknown CI service %q", serviceName)
	case m.activating[ueIP]:
		err = fmt.Errorf("core: UE %v: MEC bearer activation already under way", ueIP)
	}
	if err != nil {
		if done != nil {
			done(pkt.Addr{}, err)
		}
		return
	}
	if b := m.bindings[ueIP]; b != nil {
		// Idempotent: the bearer already exists. Adopt the caller's
		// callback so failover notifications reach the latest requester.
		b.enbName = enbName
		if done != nil {
			b.notify = done
			done(b.site.CIServer, nil)
		}
		return
	}
	site, err := m.SiteFor(svc, enbName)
	if err != nil {
		if errors.Is(err, ErrNoCapacity) {
			m.Rejections++
			m.scope.Emit("admission-reject", ueIP.String())
		}
		if done != nil {
			done(pkt.Addr{}, err)
		}
		return
	}
	site.load++ // reserve the unit across the activation round-trip
	b := m.records.Take()
	if b.m == nil {
		b.m, b.activatedF, b.releasedF = m, b.activated, b.releaseDone
	}
	b.holds = 1 // the activation's
	b.ueIP, b.service, b.site, b.enbName, b.notify = ueIP, svc, site, enbName, done
	m.activating[ueIP] = true
	m.core.PCRF.RequestDedicatedBearer(svc.PolicyID, ueIP, site.CIServer, site.SGWPlane, site.PGWPlane, b.activatedF)
}

// activated ends the request's bearer activation: on success the binding
// goes live, on failure its capacity unit and its record go back.
func (b *binding) activated(_ uint8, err error) {
	done, server := b.notify, b.site.CIServer
	delete(b.m.activating, b.ueIP)
	if err != nil {
		b.site.load--
		b.drop()
		if done != nil {
			done(pkt.Addr{}, err)
		}
		return
	}
	b.m.bind(b.ueIP, b)
	b.drop()
	if done != nil {
		done(server, nil)
	}
}

// bind records a live binding in the per-UE and per-site indexes, which
// hold it until unbind.
func (m *MRS) bind(ueIP pkt.Addr, b *binding) {
	b.holds++
	m.bindings[ueIP] = b
	bySite := m.siteBindings[b.site.Name]
	if bySite == nil {
		bySite = make(map[pkt.Addr]*binding)
		m.siteBindings[b.site.Name] = bySite
	}
	bySite[ueIP] = b
}

// unbind removes a binding from both indexes and frees its capacity unit.
func (m *MRS) unbind(ueIP pkt.Addr) {
	b := m.bindings[ueIP]
	if b == nil {
		return
	}
	delete(m.bindings, ueIP)
	if bySite := m.siteBindings[b.site.Name]; bySite != nil {
		delete(bySite, ueIP)
	}
	b.site.load--
	b.drop()
}

// ReleaseConnectivity tears down the UE's dedicated bearer for the service.
// A binding has one release at a time: asking again while one is under
// way fails.
func (m *MRS) ReleaseConnectivity(ueIP pkt.Addr, done func(error)) {
	b := m.bindings[ueIP]
	var err error
	switch {
	case b == nil:
		err = fmt.Errorf("core: UE %v has no MEC binding", ueIP)
	case b.releasing:
		err = fmt.Errorf("core: UE %v: MEC binding release already under way", ueIP)
	}
	if err != nil {
		if done != nil {
			done(err)
		}
		return
	}
	b.releasing, b.released = true, done
	b.holds++
	m.core.PCRF.RequestBearerTermination(ueIP, b.site.CIServer, b.releasedF)
}

// releaseDone ends a release: a terminated bearer unbinds the UE.
func (b *binding) releaseDone(err error) {
	done := b.released
	b.releasing, b.released = false, nil
	if err == nil {
		b.m.unbind(b.ueIP)
	}
	b.drop()
	if done != nil {
		done(err)
	}
}

// Binding reports the edge site currently bound to a UE, or nil.
func (m *MRS) Binding(ueIP pkt.Addr) *EdgeSite {
	if b := m.bindings[ueIP]; b != nil {
		return b.site
	}
	return nil
}

// HandlePathEvent reacts to a GTP-U path supervision transition reported
// through the SDN controller: peer is the supervised user-plane address.
// On failure the MRS marks every site whose fabric owns that address down
// and moves its bindings to surviving sites; on recovery it unmarks them
// (existing bindings stay where failover put them — there is no automatic
// failback).
func (m *MRS) HandlePathEvent(peer pkt.Addr, down bool) {
	for _, site := range m.sitesOfPeer(peer) {
		if down {
			if m.downSites[site.Name] {
				continue
			}
			m.downSites[site.Name] = true
			m.scope.Emit("site-down", site.Name)
			m.failoverBindings(site.Name)
		} else {
			if !m.downSites[site.Name] {
				continue
			}
			delete(m.downSites, site.Name)
			m.scope.Emit("site-up", site.Name)
		}
	}
}

// sitesOfPeer resolves a supervised peer address through the address index;
// a miss rebuilds the index once (user planes may have registered since the
// last build) before giving up.
func (m *MRS) sitesOfPeer(peer pkt.Addr) []*EdgeSite {
	if m.peerDirty {
		m.rebuildPeerIndex()
	}
	if sites, ok := m.peerSites[peer]; ok {
		return sites
	}
	m.rebuildPeerIndex()
	return m.peerSites[peer]
}

// rebuildPeerIndex maps every site fabric address (CI server, SGW-U and
// PGW-U plane) to its sites, visiting services in sorted name order and
// sites in registration order so each address's site list — and with it the
// failover event sequence — is deterministic.
func (m *MRS) rebuildPeerIndex() {
	for k := range m.peerSites {
		delete(m.peerSites, k)
	}
	names := make([]string, 0, len(m.services))
	for name := range m.services {
		names = append(names, name)
	}
	sort.Strings(names)
	seen := make(map[string]bool)
	for _, name := range names {
		for _, site := range m.services[name].sites {
			if seen[site.Name] {
				continue
			}
			seen[site.Name] = true
			add := func(addr pkt.Addr) {
				if !addr.IsZero() {
					m.peerSites[addr] = append(m.peerSites[addr], site)
				}
			}
			add(site.CIServer)
			if up := m.core.SGWC.Plane(site.SGWPlane); up != nil {
				add(up.SW.Node().Addr())
			}
			if up := m.core.PGWC.Plane(site.PGWPlane); up != nil {
				add(up.SW.Node().Addr())
			}
		}
	}
	m.peerDirty = false
}

// failoverBindings moves every binding served by the failed site onto a
// surviving one, in ascending UE-address order so the resulting signaling
// sequence is deterministic. The per-site index makes this proportional to
// the failed site's population, not the whole binding table.
func (m *MRS) failoverBindings(siteName string) {
	bySite := m.siteBindings[siteName]
	if len(bySite) == 0 {
		return
	}
	ues := make([]pkt.Addr, 0, len(bySite))
	for ueIP, b := range bySite {
		if !b.failing {
			ues = append(ues, ueIP)
		}
	}
	sort.Slice(ues, func(i, j int) bool { return ues[i].Uint32() < ues[j].Uint32() })
	for _, ueIP := range ues {
		m.move(ueIP, "failover")
	}
}

// HandleHandover reacts to a completed EPC handover: the UE with ueIP is
// now served by enbName. The binding's replay context is updated so any
// later failover places against the right cell, and — when the new cell has
// its own live edge site with capacity that is not the current one — the
// binding is relocated there, re-anchoring the dedicated MEC bearer on the
// target site's gateways. When the current site already serves the new cell
// (the neighbour-cell deployment) or no local site can take the session,
// the SGW-anchored bearer keeps working from where it is and nothing moves.
func (m *MRS) HandleHandover(ueIP pkt.Addr, enbName string) {
	b := m.bindings[ueIP]
	if b == nil || b.failing {
		return
	}
	b.enbName = enbName
	for _, s := range b.service.byENB[enbName] {
		if s == b.site {
			return // already local to the new cell
		}
	}
	local := false
	for _, s := range b.service.byENB[enbName] {
		if !m.downSites[s.Name] && s.Remaining() > 0 {
			local = true
			break
		}
	}
	if !local {
		m.scope.Emit("relocate-skip", fmt.Sprintf("%v at %s stays on %s", ueIP, enbName, b.site.Name))
		return
	}
	m.move(ueIP, "relocate")
}

// move re-anchors one binding: terminate the old dedicated bearer, drop the
// binding, and replay the original connectivity request. The kind names the
// cause and prefixes the emitted events:
//   - "relocate": a handover put the UE in a cell with its own live site,
//     which SiteFor now prefers;
//   - "failover": the serving site went dark. The control plane is
//     centralized, so teardown signaling works even while the site's user
//     plane is down; a teardown that times out at its switches has had its
//     control-plane state released by the coordinator's compensations, so
//     the chain proceeds either way.
//
// The stored notify callback tells the device manager about the new CI
// server — whose application then migrates its state from the old backend
// — or about the failure, whose capped-backoff retry keeps the session from
// hanging when no site survives or none has spare capacity.
func (m *MRS) move(ueIP pkt.Addr, kind string) {
	b := m.bindings[ueIP]
	if b == nil || b.failing {
		return
	}
	b.failing = true
	if kind == "failover" {
		m.Failovers++
	} else {
		m.Relocations++
	}
	m.scope.Emit(kind+"-start", fmt.Sprintf("%v from %s", ueIP, b.site.Name))
	b.holds++ // the termination callback reads the record
	m.core.PCRF.RequestBearerTermination(ueIP, b.site.CIServer, func(error) {
		service, enbName, notify := b.service.Name, b.enbName, b.notify
		m.unbind(ueIP)
		b.drop()
		m.RequestConnectivity(service, ueIP, enbName, func(server pkt.Addr, err error) {
			if err != nil {
				m.scope.Emit(kind+"-failed", fmt.Sprintf("%v: %v", ueIP, err))
			} else {
				m.scope.Emit(kind+"-done", fmt.Sprintf("%v to %v", ueIP, server))
			}
			if notify != nil {
				notify(server, err)
			}
		})
	})
}
