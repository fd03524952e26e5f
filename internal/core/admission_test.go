package core

import (
	"errors"
	"testing"
	"time"

	"acacia/internal/d2d"
	"acacia/internal/fault"
	"acacia/internal/pkt"
)

// neverMatches is an interest expression no landmark broadcast satisfies, so
// a registered app only requests connectivity when triggered manually.
var neverMatches = d2d.Expression{Code: ^uint64(0), Mask: ^uint64(0)}

// recordingApp is a stub CIApp capturing the connectivity lifecycle.
type recordingApp struct {
	connects int
	server   pkt.Addr
	errs     []error
}

func (a *recordingApp) OnDiscovery(Discovery)    {}
func (a *recordingApp) OnConnected(s pkt.Addr)   { a.connects++; a.server = s }
func (a *recordingApp) OnDisconnected(err error) { a.errs = append(a.errs, err) }
func (a *recordingApp) lastErr() error {
	if len(a.errs) == 0 {
		return nil
	}
	return a.errs[len(a.errs)-1]
}

// requestNow makes dm request connectivity for a registered service at
// once, as a discovery match would, without waiting for one.
func requestNow(t *testing.T, dm *DeviceManager, service string) {
	t.Helper()
	st, ok := dm.apps[service]
	if !ok {
		t.Fatalf("service %q not registered", service)
	}
	st.requested = true
	dm.requestConnectivity(st)
}

// retailSite returns the MRS-owned instance of the default edge site so
// tests can bound its admission capacity.
func retailSite(t *testing.T, tb *Testbed, idx int) *EdgeSite {
	t.Helper()
	sites := tb.MRS.services[RetailServiceName].sites
	if idx >= len(sites) {
		t.Fatalf("service has %d sites, want index %d", len(sites), idx)
	}
	return sites[idx]
}

// TestAdmissionExactCapacity fills a site to exactly its capacity: every
// unit admits, the request one past the boundary is rejected with
// ErrNoCapacity (without disturbing existing bindings), and a release makes
// the freed unit admissible again.
func TestAdmissionExactCapacity(t *testing.T) {
	tb := newRetailTestbed(t, TestbedConfig{NumUEs: 3})
	retailSite(t, tb, 0).CapacityUnits = 2
	for _, b := range tb.UEs {
		if err := tb.Attach(b); err != nil {
			t.Fatal(err)
		}
	}

	connect := func(b *UEBundle) error {
		var got error
		done := false
		tb.MRS.RequestConnectivity(RetailServiceName, b.UE.Addr(), "enb", func(_ pkt.Addr, err error) {
			got, done = err, true
		})
		tb.Run(2 * time.Second)
		if !done {
			t.Fatalf("request for %s never completed", b.Name)
		}
		return got
	}

	// Fill to exactly capacity.
	for i := 0; i < 2; i++ {
		if err := connect(tb.UEs[i]); err != nil {
			t.Fatalf("unit %d within capacity rejected: %v", i+1, err)
		}
	}
	site := retailSite(t, tb, 0)
	if site.load != 2 || site.Remaining() != 0 {
		t.Fatalf("at capacity: load=%d remaining=%d, want 2/0", site.load, site.Remaining())
	}

	// One past the boundary: deterministic, retriable rejection.
	err := connect(tb.UEs[2])
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("over-capacity request: err=%v, want ErrNoCapacity", err)
	}
	if tb.MRS.Rejections != 1 {
		t.Errorf("rejections = %d, want 1", tb.MRS.Rejections)
	}
	if site.load != 2 {
		t.Errorf("rejection changed load to %d", site.load)
	}
	if tb.MRS.Binding(tb.UEs[2].UE.Addr()) != nil {
		t.Error("rejected UE has a binding")
	}
	for i := 0; i < 2; i++ {
		if s := tb.MRS.Binding(tb.UEs[i].UE.Addr()); s == nil || s.Name != "edge-1" {
			t.Errorf("UE %d binding disturbed: %+v", i, s)
		}
	}

	// Releasing a unit reopens admission for the freed slot only.
	tb.MRS.ReleaseConnectivity(tb.UEs[0].UE.Addr(), nil)
	tb.Run(2 * time.Second)
	if site.load != 1 {
		t.Fatalf("after release: load=%d, want 1", site.load)
	}
	if err := connect(tb.UEs[2]); err != nil {
		t.Fatalf("request after release rejected: %v", err)
	}
	if site.load != 2 || site.Remaining() != 0 {
		t.Errorf("refilled: load=%d remaining=%d, want 2/0", site.load, site.Remaining())
	}
}

// TestAdmissionBackoffAdmitsAfterRelease drives the full rejection path
// through the device manager: with every site full the request is denied,
// the capped backoff keeps re-requesting (collecting further rejections
// while the site stays full), and the session establishes as soon as a unit
// frees up — without a fresh trigger.
func TestAdmissionBackoffAdmitsAfterRelease(t *testing.T) {
	tb := newRetailTestbed(t, TestbedConfig{NumUEs: 2})
	retailSite(t, tb, 0).CapacityUnits = 1
	holder := startRetail(t, tb, "electronics", electronicsSpot)
	if s := tb.MRS.Binding(holder.UE.Addr()); s == nil || s.Name != "edge-1" {
		t.Fatalf("holder binding = %+v", s)
	}

	waiter := tb.UEs[1]
	if err := tb.Attach(waiter); err != nil {
		t.Fatal(err)
	}
	app := &recordingApp{}
	if err := waiter.DM.Register(ServiceInfo{ServiceName: RetailServiceName, Interest: neverMatches}, app); err != nil {
		t.Fatal(err)
	}
	requestNow(t, waiter.DM, RetailServiceName)

	// The site stays full across the first backoff attempts: the initial
	// request and at least one 500ms retry are rejected.
	tb.Run(1200 * time.Millisecond)
	if app.connects != 0 {
		t.Fatal("waiter connected while the site was full")
	}
	if !errors.Is(app.lastErr(), ErrNoCapacity) {
		t.Fatalf("waiter error = %v, want ErrNoCapacity", app.lastErr())
	}
	if tb.MRS.Rejections < 2 {
		t.Errorf("rejections = %d, want >= 2 (initial request + backoff retry)", tb.MRS.Rejections)
	}

	// Free the unit; the pending backoff retry must admit without any new
	// discovery match or manual trigger.
	tb.MRS.ReleaseConnectivity(holder.UE.Addr(), nil)
	tb.Run(6 * time.Second)
	if !waiter.DM.Connected(RetailServiceName) {
		t.Fatal("waiter never admitted after the unit was released")
	}
	if app.connects != 1 || app.server != tb.CIServer.Node.Addr() {
		t.Errorf("connects=%d server=%v, want 1 connect to %v", app.connects, app.server, tb.CIServer.Node.Addr())
	}
	site := retailSite(t, tb, 0)
	if site.load != 1 {
		t.Errorf("post-admission load = %d, want 1", site.load)
	}
	if s := tb.MRS.Binding(waiter.UE.Addr()); s == nil || s.Name != "edge-1" {
		t.Errorf("waiter binding = %+v", s)
	}
}

// TestFailoverRespectsCapacity composes admission with failover: two sites
// of one unit each, both full. Crashing the serving site releases its unit
// and replays the binding's request, which is rejected while the survivor
// is full — the failover parks in the device manager's backoff — and lands
// on the survivor as soon as its unit frees, with unit accounting exact at
// every step.
func TestFailoverRespectsCapacity(t *testing.T) {
	tb := newRetailTestbed(t, TestbedConfig{NumUEs: 2})
	tb.AddEdgeSite("edge-2")
	tb.EnableFailover(100*time.Millisecond, 2)
	retailSite(t, tb, 0).CapacityUnits = 1
	retailSite(t, tb, 1).CapacityUnits = 1

	victim := startRetail(t, tb, "electronics", electronicsSpot)
	if s := tb.MRS.Binding(victim.UE.Addr()); s == nil || s.Name != "edge-1" {
		t.Fatalf("victim binding = %+v", s)
	}

	// The second UE spills to edge-2 (its eNB-local site is full): both
	// sites are now at capacity.
	spiller := tb.UEs[1]
	if err := tb.Attach(spiller); err != nil {
		t.Fatal(err)
	}
	app := &recordingApp{}
	if err := spiller.DM.Register(ServiceInfo{ServiceName: RetailServiceName, Interest: neverMatches}, app); err != nil {
		t.Fatal(err)
	}
	requestNow(t, spiller.DM, RetailServiceName)
	tb.Run(2 * time.Second)
	if s := tb.MRS.Binding(spiller.UE.Addr()); s == nil || s.Name != "edge-2" {
		t.Fatalf("spiller binding = %+v, want edge-2 spill", s)
	}
	if l1, l2 := tb.MRS.SiteLoad("edge-1"), tb.MRS.SiteLoad("edge-2"); l1 != 1 || l2 != 1 {
		t.Fatalf("loads = %d/%d, want 1/1", l1, l2)
	}

	// Kill the victim's site. Failover frees edge-1's unit but edge-2 is
	// full, so the replayed request is rejected and the victim waits in
	// backoff rather than hanging or evicting the spiller.
	if err := tb.Faults.Apply(fault.Plan{Events: []fault.Event{
		{Kind: fault.SiteCrash, Target: "edge-1", At: 200 * time.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	tb.Run(3 * time.Second)
	if tb.MRS.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", tb.MRS.Failovers)
	}
	if tb.MRS.Rejections == 0 {
		t.Error("capacity-constrained failover produced no rejection")
	}
	if victim.DM.Connected(RetailServiceName) {
		t.Error("victim reports connectivity with no admissible site")
	}
	if tb.MRS.SiteLoad("edge-1") != 0 {
		t.Errorf("failed site load = %d, want 0 (unit released)", tb.MRS.SiteLoad("edge-1"))
	}
	if s := tb.MRS.Binding(spiller.UE.Addr()); s == nil || s.Name != "edge-2" {
		t.Errorf("spiller evicted: %+v", s)
	}

	// Free the survivor's unit: the victim's backoff retry rebinds there.
	if err := spiller.DM.Unregister(RetailServiceName); err != nil {
		t.Fatal(err)
	}
	tb.Run(10 * time.Second)
	if !victim.DM.Connected(RetailServiceName) {
		t.Fatal("victim never rebound after capacity freed")
	}
	if s := tb.MRS.Binding(victim.UE.Addr()); s == nil || s.Name != "edge-2" {
		t.Fatalf("post-failover binding = %+v, want edge-2", s)
	}
	if l1, l2 := tb.MRS.SiteLoad("edge-1"), tb.MRS.SiteLoad("edge-2"); l1 != 0 || l2 != 1 {
		t.Errorf("final loads = %d/%d, want 0/1", l1, l2)
	}
	if want := tb.Sites[1].CI.Node.Addr(); victim.Frontend.Server() != want {
		t.Errorf("frontend server = %v, want %v", victim.Frontend.Server(), want)
	}
}

// TestOverlappingRequestFails asks twice for one UE before the first bearer
// activation completes: the second request fails at once, as a second
// release does, and the first binds alone, so after release the site's
// load and the MRS record pool are back at 0.
func TestOverlappingRequestFails(t *testing.T) {
	tb := newRetailTestbed(t, TestbedConfig{NumUEs: 1})
	ue := tb.UEs[0]
	if err := tb.Attach(ue); err != nil {
		t.Fatal(err)
	}
	ip := ue.UE.Addr()
	var errs [2]error
	var done [2]bool
	for i := range errs {
		tb.MRS.RequestConnectivity(RetailServiceName, ip, "enb", func(_ pkt.Addr, err error) {
			errs[i], done[i] = err, true
		})
	}
	if !done[1] || errs[1] == nil {
		t.Errorf("overlapping request: done=%v err=%v, want an immediate failure", done[1], errs[1])
	}
	tb.Run(2 * time.Second)
	if !done[0] || errs[0] != nil {
		t.Fatalf("first request: done=%v err=%v, want bound", done[0], errs[0])
	}
	site := retailSite(t, tb, 0)
	if site.load != 1 {
		t.Errorf("bound: load=%d, want 1", site.load)
	}
	released := false
	tb.MRS.ReleaseConnectivity(ip, func(err error) {
		if err != nil {
			t.Errorf("release: %v", err)
		}
		released = true
	})
	tb.Run(2 * time.Second)
	if !released {
		t.Fatal("release never completed")
	}
	if site.load != 0 || tb.MRS.records.Outstanding() != 0 {
		t.Errorf("after release: load=%d records out=%d, want 0/0", site.load, tb.MRS.records.Outstanding())
	}
}
