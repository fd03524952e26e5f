package core

import (
	"testing"
	"time"

	"acacia/internal/fault"
	"acacia/internal/sim"
)

// TestFailoverToSurvivingSite kills the serving edge site mid-AR-session
// and asserts the session resumes on the surviving site with bounded
// downtime, with detect/repair marks on the telemetry timeline.
func TestFailoverToSurvivingSite(t *testing.T) {
	tb := newRetailTestbed(t, TestbedConfig{})
	tb.AddEdgeSite("edge-2")
	const period = 100 * time.Millisecond
	const maxMisses = 2
	tb.EnableFailover(period, maxMisses)
	b := startRetail(t, tb, "electronics", electronicsSpot)
	if site := tb.MRS.Binding(b.UE.Addr()); site == nil || site.Name != "edge-1" {
		t.Fatalf("initial binding = %+v", site)
	}

	var respTimes []sim.Time
	b.Frontend.OnResponse = func(ARFrameResult) { respTimes = append(respTimes, tb.Eng.Now()) }

	// Crash edge-1 permanently half a second from now.
	failAt := time.Duration(tb.Eng.Now()) + 500*time.Millisecond
	if err := tb.Faults.Apply(fault.Plan{Events: []fault.Event{
		{Kind: fault.SiteCrash, Target: "edge-1", At: 500 * time.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	tb.Run(15 * time.Second)

	// The session moved and resumed.
	if site := tb.MRS.Binding(b.UE.Addr()); site == nil || site.Name != "edge-2" {
		t.Fatalf("post-failover binding = %+v", site)
	}
	if !b.DM.Connected(RetailServiceName) {
		t.Fatal("device manager lost connectivity")
	}
	if want := tb.Sites[1].CI.Node.Addr(); b.Frontend.Server() != want {
		t.Errorf("frontend server = %v, want %v", b.Frontend.Server(), want)
	}
	if tb.MRS.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", tb.MRS.Failovers)
	}

	// Detect and repair marks are on the timeline with sane timings.
	var detectAt, repairAt time.Duration
	tl := tb.Eng.Metrics().Events()
	for i := 0; i < tl.Len(); i++ {
		ev := tl.At(i)
		if ev.Scope != "core/mrs" {
			continue
		}
		switch ev.Name {
		case "site-down":
			if detectAt == 0 {
				detectAt = ev.At
			}
		case "failover-done":
			if repairAt == 0 {
				repairAt = ev.At
			}
		}
	}
	if detectAt == 0 || repairAt == 0 {
		t.Fatalf("timeline missing marks: detect=%v repair=%v", detectAt, repairAt)
	}
	if detectAt < failAt {
		t.Errorf("detected at %v before failure at %v", detectAt, failAt)
	}
	// Detection needs maxMisses unanswered probes: at most (maxMisses+2)
	// periods after the crash, with margin for probe phase.
	if lim := failAt + (maxMisses+2)*period; detectAt > lim {
		t.Errorf("detect at %v, want <= %v", detectAt, lim)
	}
	if repairAt <= detectAt || repairAt-detectAt > time.Second {
		t.Errorf("repair at %v after detect at %v, want < 1s apart", repairAt, detectAt)
	}

	// Bounded session downtime: the response gap spanning the failure is
	// at most detect + repair + two frame timeouts.
	var last, resumed time.Duration
	for _, ts := range respTimes {
		at := time.Duration(ts)
		if at < failAt {
			last = at
		} else if resumed == 0 {
			resumed = at
		}
	}
	if last == 0 || resumed == 0 {
		t.Fatalf("no responses around the failure: last=%v resumed=%v", last, resumed)
	}
	bound := (repairAt - failAt) + 2*frameTimeout + time.Second
	if gap := resumed - last; gap > bound {
		t.Errorf("session downtime %v exceeds bound %v", gap, bound)
	}
	if b.Frontend.Timeouts == 0 {
		t.Error("expected at least one frame lost to the outage")
	}
}

// TestAllSitesDownRetriesUntilRecovery crashes the only edge site: failover
// has nowhere to go, so the device manager's capped backoff keeps retrying
// until path supervision notices the repaired site, and the session resumes
// instead of hanging.
func TestAllSitesDownRetriesUntilRecovery(t *testing.T) {
	tb := newRetailTestbed(t, TestbedConfig{})
	tb.EnableFailover(100*time.Millisecond, 2)
	b := startRetail(t, tb, "electronics", electronicsSpot)
	respBefore := b.Frontend.Responses

	if err := tb.Faults.Apply(fault.Plan{Events: []fault.Event{
		{Kind: fault.SiteCrash, Target: "edge-1", At: 500 * time.Millisecond, Duration: 4 * time.Second},
	}}); err != nil {
		t.Fatal(err)
	}
	tb.Run(25 * time.Second)

	if !b.DM.Connected(RetailServiceName) {
		t.Fatal("session never recovered after site restart")
	}
	if site := tb.MRS.Binding(b.UE.Addr()); site == nil || site.Name != "edge-1" {
		t.Fatalf("post-recovery binding = %+v", site)
	}
	if b.Frontend.Responses <= respBefore {
		t.Error("no AR responses after recovery")
	}
	if tb.MRS.downSites["edge-1"] {
		t.Error("site still marked down after recovery")
	}

	// The timeline shows the failed failover attempt and the site-up mark.
	var failed, up bool
	tl := tb.Eng.Metrics().Events()
	for i := 0; i < tl.Len(); i++ {
		ev := tl.At(i)
		if ev.Scope != "core/mrs" {
			continue
		}
		switch ev.Name {
		case "failover-failed":
			failed = true
		case "site-up":
			up = true
		}
	}
	if !failed || !up {
		t.Errorf("timeline: failover-failed=%v site-up=%v, want both", failed, up)
	}
}
