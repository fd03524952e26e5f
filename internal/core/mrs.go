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
	// ENBs lists the base stations this site is local to when it is
	// registered (MRS.AddSiteENB adds more later); the MRS picks the site
	// serving the requesting UE's eNB.
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

	// sites is the MRS-owned site list in registration order (MRS.AddSite);
	// byENB indexes the eNB-local subsets (same order).
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
	// bindings is the one binding table, by UE IP: a UE's record enters it
	// when its request is placed and leaves it when the binding ends.
	// Failover and path events scan it and the site lists; no workload
	// fails a site at a scale where that scan shows.
	bindings map[pkt.Addr]*binding

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

// bindState is the one procedure a binding runs, or bound when none is.
type bindState uint8

const (
	// activating: the request's bearer activation is under way.
	activating bindState = iota
	bound
	// releasing: a release's termination is under way, or a move's
	// termination or re-activation that the release took over.
	releasing
	// moving: a relocation's or failover's termination is under way.
	moving
	// reactivating: the request a move replayed is activating its bearer
	// on the new site.
	reactivating
)

// binding is one UE's MEC binding, and the pooled record of the procedures
// on it (DESIGN.md §3c), which the PCRF answers through package-level
// functions with the record as their argument. A binding runs one procedure
// at a time, so the record leaves the table, and goes back to MRS.records,
// in the callback of the procedure that ends it.
type binding struct {
	m       *MRS
	ueIP    pkt.Addr
	service *CIService
	site    *EdgeSite
	// enbName and notify replay the original connectivity request during
	// failover: the MRS re-selects a site for the same eNB and tells the
	// device manager's callback about the new CI server.
	enbName string
	notify  answer
	// move names the move ("relocate" or "failover") a moving or
	// reactivating binding runs, "" otherwise.
	move string
	// released is the callback of the release under way, if releasing.
	released func(error)
	state    bindState
}

// answer is a requester's callback, fn(arg, ...): a record that asks
// passes a package-level fn and itself, so asking binds no closure.
type answer struct {
	fn  func(arg any, ci pkt.Addr, err error)
	arg any
}

// NewMRS creates an MRS against the given EPC control plane.
func NewMRS(core *epc.Core) *MRS {
	m := &MRS{
		core:      core,
		services:  make(map[string]*CIService),
		bindings:  make(map[pkt.Addr]*binding),
		downSites: make(map[string]bool),
		scope:     core.Eng.Metrics().Scope("core").Scope("mrs"),
	}
	core.Eng.Metrics().Register(m)
	return m
}

// RegisterService adds a CI service; AddSite gives it its edge sites.
func (m *MRS) RegisterService(svc CIService) {
	svc.byENB = make(map[string][]*EdgeSite)
	m.services[svc.Name] = &svc
}

// AddSite registers another edge site with a service (a failover candidate
// when no eNB lists it) and returns the MRS-owned instance. All site-set
// mutation goes through here so the eNB index stays current.
func (m *MRS) AddSite(serviceName string, site EdgeSite) *EdgeSite {
	svc := m.services[serviceName]
	if svc == nil {
		return nil
	}
	s := new(EdgeSite)
	*s = site
	s.load = 0
	svc.sites = append(svc.sites, s)
	for _, enb := range s.ENBs {
		svc.byENB[enb] = append(svc.byENB[enb], s)
	}
	return s
}

// AddSiteENB marks one named site of a service as local to an eNB: the MRS
// prefers it for sessions attaching, or handing over, through that cell.
func (m *MRS) AddSiteENB(serviceName, siteName, enbName string) {
	svc := m.services[serviceName]
	if svc == nil {
		return
	}
	for _, s := range svc.sites {
		if s.Name == siteName {
			svc.byENB[enbName] = append(svc.byENB[enbName], s)
			return
		}
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
// fails, and so does asking while the UE's binding is being released. A
// request during a move's termination or re-activation adopts the binding
// without an answer: the requester hears once, from the replayed request.
func (m *MRS) RequestConnectivity(serviceName string, ueIP pkt.Addr, enbName string, done func(pkt.Addr, error)) {
	var fn func(any, pkt.Addr, error)
	if done != nil {
		fn = callDone
	}
	m.RequestConnectivityArg(serviceName, ueIP, enbName, fn, done)
}

// callDone runs the func a RequestConnectivity carries as its arg.
func callDone(done any, ci pkt.Addr, err error) { done.(func(pkt.Addr, error))(ci, err) }

// RequestConnectivityArg is RequestConnectivity answering fn(arg, ci, err).
func (m *MRS) RequestConnectivityArg(serviceName string, ueIP pkt.Addr, enbName string, fn func(any, pkt.Addr, error), arg any) {
	m.request(serviceName, ueIP, enbName, answer{fn, arg}, "")
}

// request places a request, or a move's replay of one (move names it).
func (m *MRS) request(serviceName string, ueIP pkt.Addr, enbName string, notify answer, move string) {
	svc, ok := m.services[serviceName]
	b := m.bindings[ueIP]
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("core: unknown CI service %q", serviceName)
	case b != nil && b.state == activating:
		err = fmt.Errorf("core: UE %v: MEC bearer activation already under way", ueIP)
	case b != nil && b.state == releasing:
		err = fmt.Errorf("core: UE %v: MEC binding release under way", ueIP)
	}
	if err != nil {
		m.reply(notify, move, ueIP, pkt.Addr{}, err)
		return
	}
	if b != nil {
		// Idempotent: the bearer already exists. Adopt the caller's
		// callback so failover notifications reach the latest requester.
		b.enbName = enbName
		if notify.fn != nil {
			b.notify = notify
			if b.state == bound {
				m.reply(notify, "", ueIP, b.site.CIServer, nil)
			}
		}
		return
	}
	site, err := m.SiteFor(svc, enbName)
	if err != nil {
		if errors.Is(err, ErrNoCapacity) {
			m.Rejections++
			m.scope.Emit("admission-reject", ueIP.String())
		}
		m.reply(notify, move, ueIP, pkt.Addr{}, err)
		return
	}
	site.load++ // reserve the unit across the activation round-trip
	b = m.records.Take()
	b.m, b.ueIP, b.service, b.site, b.enbName, b.notify, b.move, b.state = m, ueIP, svc, site, enbName, notify, move, activating
	if move != "" {
		b.state = reactivating // a placed replay is still the move, so a release can take it over
	}
	m.bindings[ueIP] = b
	m.core.PCRF.RequestDedicatedBearer(svc.PolicyID, ueIP, site.CIServer, site.SGWPlane, site.PGWPlane, bindingActivated, b)
}

// reply answers a request; a move's replay records its outcome first.
func (m *MRS) reply(notify answer, move string, ueIP, ci pkt.Addr, err error) {
	switch {
	case move == "":
	case err != nil:
		m.scope.Emit(move+"-failed", fmt.Sprintf("%v: %v", ueIP, err))
	default:
		m.scope.Emit(move+"-done", fmt.Sprintf("%v to %v", ueIP, ci))
	}
	if notify.fn != nil {
		notify.fn(notify.arg, ci, err)
	}
}

// bindingActivated ends the request's bearer activation: on success the
// binding goes live, on failure it ends. A site that failed while the
// activation toward it ran is reported first, then failed over at once. A
// release that took a move's re-activation over ends the binding instead,
// and the requester hears nothing.
func bindingActivated(v any, _ uint8, err error) {
	b := v.(*binding)
	m, ueIP, site, notify, move := b.m, b.ueIP, b.site, b.notify, b.move
	if b.state == releasing {
		if err != nil {
			bindingReleased(b, nil)
		} else {
			m.core.PCRF.RequestBearerTermination(ueIP, site.CIServer, bindingReleased, b)
		}
		return
	}
	if err != nil {
		m.unbind(b)
		m.reply(notify, move, ueIP, pkt.Addr{}, err)
		return
	}
	b.state, b.move = bound, ""
	m.reply(notify, move, ueIP, site.CIServer, nil)
	if m.downSites[site.Name] {
		m.move(ueIP, "failover")
	}
}

// unbind ends a binding: it leaves the table, its capacity unit is freed and
// its record recycled.
func (m *MRS) unbind(b *binding) {
	delete(m.bindings, b.ueIP)
	b.site.load--
	b.service, b.site, b.notify, b.move, b.released = nil, nil, answer{}, "", nil
	m.records.Put(b)
}

// ReleaseConnectivity tears down the UE's dedicated bearer for the service.
// A binding has one release at a time: asking again while one is under
// way fails. A release wins over a move: a move skips a releasing binding,
// and a release that arrives during a move's termination or re-activation
// takes it over, ending the binding there (once the activation ends) in
// place of replaying or answering the request.
func (m *MRS) ReleaseConnectivity(ueIP pkt.Addr, done func(error)) {
	b := m.bindings[ueIP]
	var err error
	switch {
	case b == nil || b.state == activating:
		err = fmt.Errorf("core: UE %v has no MEC binding", ueIP)
	case b.state == releasing:
		err = fmt.Errorf("core: UE %v: MEC binding release already under way", ueIP)
	}
	if err != nil {
		if done != nil {
			done(err)
		}
		return
	}
	terminate := b.state == bound
	b.state, b.released = releasing, done
	if terminate {
		m.core.PCRF.RequestBearerTermination(ueIP, b.site.CIServer, bindingReleased, b)
	}
}

// bindingReleased ends a release: a terminated bearer ends the binding, a
// failed termination leaves it bound.
func bindingReleased(v any, err error) {
	b := v.(*binding)
	done := b.released
	if err == nil {
		b.m.unbind(b)
	} else {
		b.state, b.released = bound, nil
	}
	if done != nil {
		done(err)
	}
}

// Binding reports the edge site a UE is bound to, or nil while the UE has
// no binding or its activation is still under way.
func (m *MRS) Binding(ueIP pkt.Addr) *EdgeSite {
	if b := m.bindings[ueIP]; b != nil && b.state != activating && b.state != reactivating {
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

// sitesOfPeer lists the sites whose fabric owns a supervised peer address
// (the CI server, SGW-U or PGW-U plane), visiting services in sorted name
// order and their sites in registration order, each site name once, so the
// failover event sequence is deterministic. Planes resolve through the
// gateway control planes at the event, since they may register after the
// service.
func (m *MRS) sitesOfPeer(peer pkt.Addr) []*EdgeSite {
	if peer.IsZero() {
		return nil
	}
	names := make([]string, 0, len(m.services))
	for name := range m.services {
		names = append(names, name)
	}
	sort.Strings(names)
	owns := func(up *epc.UserPlane) bool { return up != nil && up.Addr() == peer }
	seen := make(map[string]bool)
	var sites []*EdgeSite
	for _, name := range names {
		for _, s := range m.services[name].sites {
			if seen[s.Name] {
				continue
			}
			seen[s.Name] = true
			if s.CIServer == peer || owns(m.core.SGWC.Plane(s.SGWPlane)) || owns(m.core.PGWC.Plane(s.PGWPlane)) {
				sites = append(sites, s)
			}
		}
	}
	return sites
}

// failoverBindings moves every bound binding served by the failed site onto
// a surviving one, in ascending UE-address order so the resulting signaling
// sequence is deterministic.
func (m *MRS) failoverBindings(siteName string) {
	var ues []pkt.Addr
	for ueIP, b := range m.bindings {
		if b.state == bound && b.site.Name == siteName {
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
// A binding running another procedure is left to it.
func (m *MRS) HandleHandover(ueIP pkt.Addr, enbName string) {
	b := m.bindings[ueIP]
	if b == nil || b.state != bound {
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

// move re-anchors one bound binding: terminate the old dedicated bearer, end
// the binding, and replay the original connectivity request. The kind names
// the cause and prefixes the emitted events:
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
// hanging when no site survives or none has spare capacity. A release that
// arrives during the termination or the re-activation takes the move over:
// the binding ends, the release's callback gets nil, and the requester hears
// nothing more.
func (m *MRS) move(ueIP pkt.Addr, kind string) {
	b := m.bindings[ueIP]
	if b == nil || b.state != bound {
		return
	}
	b.state, b.move = moving, kind
	if kind == "failover" {
		m.Failovers++
	} else {
		m.Relocations++
	}
	m.scope.Emit(kind+"-start", fmt.Sprintf("%v from %s", ueIP, b.site.Name))
	m.core.PCRF.RequestBearerTermination(ueIP, b.site.CIServer, moveTerminated, b)
}

// moveTerminated replays a move's request once its old bearer is gone,
// unless a release took the move over.
func moveTerminated(v any, _ error) {
	b := v.(*binding)
	if b.state == releasing {
		bindingReleased(b, nil)
		return
	}
	m, service, ueIP, enbName, notify, kind := b.m, b.service.Name, b.ueIP, b.enbName, b.notify, b.move
	m.unbind(b)
	m.request(service, ueIP, enbName, notify, kind)
}
