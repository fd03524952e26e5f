// Package fault is the deterministic fault-injection subsystem: a
// declarative Plan of timed events (link down/up windows, loss bursts,
// node and edge-site crashes, control-path degradation) applied to a
// testbed's registered targets and driven entirely by the virtual clock.
// Every injection and recovery is recorded on the telemetry timeline under
// the fault/ scope, so experiment output correlates observed degradation
// with its cause, and identical plans on identical seeds replay
// byte-identically.
package fault

import (
	"fmt"
	"sort"
	"time"

	"acacia/internal/netsim"
	"acacia/internal/sim"
	"acacia/internal/telemetry"
)

// Kind enumerates the fault classes a Plan can schedule.
type Kind int

const (
	// LinkDown fails a registered link in both directions for the event
	// window: every packet offered while down is dropped at the
	// transmitter. Registering a control link (S1-MME, S11, OpenFlow) and
	// pointing LinkDown or LinkLoss at it is how control-path degradation
	// is expressed — the ctl transport's retransmissions then carry the
	// recovery.
	LinkDown Kind = iota
	// LinkLoss injects independent per-packet loss with the event's Loss
	// probability for the window (a loss burst).
	LinkLoss
	// SiteCrash fails every link of a registered edge site (its gateway
	// fabric and CI server together), the outage the MEC failover path is
	// built to survive.
	SiteCrash
)

var kindNames = [...]string{LinkDown: "link-down", LinkLoss: "link-loss", SiteCrash: "site-crash"}

// String names the kind for timeline details.
func (k Kind) String() string {
	if uint(k) < uint(len(kindNames)) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind-%d", int(k))
}

// Event is one scheduled fault: Kind applied to the registered Target at
// virtual-time offset At (relative to Apply), recovered Duration later. A
// zero Duration means the plan never recovers the fault (a permanent
// outage).
type Event struct {
	Kind   Kind
	Target string
	At     time.Duration
	// Duration is the fault window; zero leaves the fault in place for the
	// rest of the run.
	Duration time.Duration
	// Loss is the per-packet drop probability for LinkLoss events.
	Loss float64
}

// Plan is a declarative fault schedule. Events may be listed in any order;
// Apply sorts them by activation time (ties keep declaration order) so a
// plan's effect is independent of how it was assembled.
type Plan struct {
	Events []Event
}

// Injector applies fault plans to registered targets. Testbeds register
// their interesting links and sites under stable names; experiments
// then describe outages against those names without reaching into
// topology internals.
type Injector struct {
	eng   *sim.Engine
	links map[string]*netsim.Link
	sites map[string][]*netsim.Link

	// downRef / lossRef count overlapping windows per link so recovery of
	// one window does not repair a link another window still holds down.
	downRef map[*netsim.Link]int
	lossRef map[*netsim.Link]int

	scope     telemetry.Scope
	injected  *telemetry.Counter
	recovered *telemetry.Counter
	active    *telemetry.Gauge
}

// NewInjector creates an injector on eng, registering its counters under
// the fault/ scope of the engine's telemetry registry.
func NewInjector(eng *sim.Engine) *Injector {
	scope := eng.Metrics().Scope("fault")
	return &Injector{
		eng:       eng,
		links:     make(map[string]*netsim.Link),
		sites:     make(map[string][]*netsim.Link),
		downRef:   make(map[*netsim.Link]int),
		lossRef:   make(map[*netsim.Link]int),
		scope:     scope,
		injected:  scope.Counter("injected"),
		recovered: scope.Counter("recovered"),
		active:    scope.Gauge("active"),
	}
}

// RegisterLink names a link as a fault target.
func (in *Injector) RegisterLink(name string, l *netsim.Link) {
	in.links[name] = l
}

// RegisterSite names a group of links as an edge site: SiteCrash fails
// them together.
func (in *Injector) RegisterSite(name string, links ...*netsim.Link) {
	in.sites[name] = links
}

// targets resolves an event to the links it manipulates.
func (in *Injector) targets(e Event) ([]*netsim.Link, error) {
	switch e.Kind {
	case LinkDown, LinkLoss:
		l, ok := in.links[e.Target]
		if !ok {
			return nil, fmt.Errorf("fault: unknown link %q", e.Target)
		}
		return []*netsim.Link{l}, nil
	case SiteCrash:
		ls, ok := in.sites[e.Target]
		if !ok {
			return nil, fmt.Errorf("fault: unknown site %q", e.Target)
		}
		return ls, nil
	}
	return nil, fmt.Errorf("fault: unknown kind %d", int(e.Kind))
}

// Apply validates every event against the registered targets and schedules
// the whole plan on the virtual clock. Validation is up-front so a typo in
// a late event fails at Apply time, not hours of virtual time into a run.
func (in *Injector) Apply(p Plan) error {
	for _, e := range p.Events {
		if _, err := in.targets(e); err != nil {
			return err
		}
		if e.Kind == LinkLoss && (e.Loss <= 0 || e.Loss > 1) {
			return fmt.Errorf("fault: link-loss on %q needs Loss in (0,1], got %v", e.Target, e.Loss)
		}
	}
	events := make([]Event, len(p.Events))
	copy(events, p.Events)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for _, e := range events {
		in.eng.Schedule(e.At, func() { in.inject(e) })
	}
	return nil
}

// inject activates one event and, when it has a window, schedules its
// recovery.
func (in *Injector) inject(e Event) {
	links, err := in.targets(e)
	if err != nil {
		// Targets were validated at Apply time; registration cannot shrink.
		panic(err)
	}
	detail := fmt.Sprintf("%s %s", e.Kind, e.Target)
	in.scope.Emit("inject", detail)
	in.injected.Inc()
	in.active.Add(1)
	for _, l := range links {
		switch e.Kind {
		case LinkLoss:
			in.lossRef[l]++
			l.SetLoss(e.Loss)
		default:
			in.downRef[l]++
			l.SetDown(true)
		}
	}
	if e.Duration > 0 {
		in.eng.Schedule(e.Duration, func() { in.recover(e, links) })
	}
}

// recover deactivates one event's window. Reference counts keep a link
// failed while any overlapping window still holds it.
func (in *Injector) recover(e Event, links []*netsim.Link) {
	detail := fmt.Sprintf("%s %s", e.Kind, e.Target)
	in.scope.Emit("recover", detail)
	in.recovered.Inc()
	in.active.Add(-1)
	for _, l := range links {
		switch e.Kind {
		case LinkLoss:
			in.lossRef[l]--
			if in.lossRef[l] <= 0 {
				delete(in.lossRef, l)
				l.SetLoss(0)
			}
		default:
			in.downRef[l]--
			if in.downRef[l] <= 0 {
				delete(in.downRef, l)
				l.SetDown(false)
			}
		}
	}
}
