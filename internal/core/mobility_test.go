package core

import (
	"runtime"
	"testing"
	"time"

	"acacia/internal/epc"
	"acacia/internal/geo"
	"acacia/internal/sim"
	"acacia/internal/vision"
)

// TestCrossSiteHandoverMigratesSession walks a user from the west half of
// the store (cell "enb", served by edge-1) into the east half (cell
// "enb-east", bound to edge-2). The boundary crossing triggers an S1
// handover; its completion flows into the MRS, which re-anchors the MEC
// bearer on edge-2's gateways; and the AR session freezes its state at
// edge-1, ships it to edge-2, and resumes there — with the frame loop's
// continuity gap bounded.
func TestCrossSiteHandoverMigratesSession(t *testing.T) {
	tb := newRetailTestbed(t, TestbedConfig{})
	site2 := tb.AddEdgeSite("edge-2")
	east := tb.AddCellENB("enb-east")
	tb.BindSiteToENB("edge-2", "enb-east")

	start := geo.Point{X: 15, Y: 15}
	b := startRetail(t, tb, "electronics", start)
	if site := tb.MRS.Binding(b.UE.Addr()); site == nil || site.Name != "edge-1" {
		t.Fatalf("initial binding = %+v", site)
	}

	var respTimes []sim.Time
	b.Frontend.OnResponse = func(ARFrameResult) { respTimes = append(respTimes, tb.Eng.Now()) }

	// Walk due east across the midline at a brisk pace: exactly one
	// boundary crossing, into enb-east's cell.
	walk := geo.Walker{Path: geo.Path{Waypoints: []geo.Point{start, {X: 27, Y: 15}}}, Speed: 1.4}
	var hoErrs []error
	walkStart := tb.Eng.Now()
	crossings := tb.StartWalk(b, walk, geo.MidlineCell(21),
		[]*epc.ENB{tb.ENB, east}, 100*time.Millisecond,
		func(_ geo.Crossing, err error) { hoErrs = append(hoErrs, err) })
	if len(crossings) != 1 || crossings[0].To != 1 {
		t.Fatalf("crossings = %+v, want one into cell 1", crossings)
	}
	tb.Run(walk.Duration() + 5*time.Second)

	// The handover ran once and succeeded.
	if len(hoErrs) != 1 || hoErrs[0] != nil {
		t.Fatalf("handover completions = %v, want one success", hoErrs)
	}
	if tb.EPC.MME.Handovers != 1 {
		t.Fatalf("MME.Handovers = %d, want 1", tb.EPC.MME.Handovers)
	}
	sess := tb.EPC.Session(b.UE.IMSI)
	if sess == nil || sess.ENB != east {
		t.Fatal("session did not land on enb-east")
	}

	// The MRS re-anchored the binding on the cell-local site.
	if tb.MRS.Relocations != 1 {
		t.Fatalf("MRS.Relocations = %d, want 1", tb.MRS.Relocations)
	}
	if site := tb.MRS.Binding(b.UE.Addr()); site == nil || site.Name != "edge-2" {
		t.Fatalf("post-walk binding = %+v", site)
	}
	if want := site2.CI.Node.Addr(); b.Frontend.Server() != want {
		t.Fatalf("frontend server = %v, want %v", b.Frontend.Server(), want)
	}
	if !b.DM.Connected(RetailServiceName) {
		t.Fatal("device manager lost connectivity across the relocation")
	}

	// The application state actually moved: frozen out of edge-1, resumed
	// at edge-2, via one sized transfer.
	// Migrations counts only a done message that beat the watchdog.
	if b.Frontend.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1 clean migration", b.Frontend.Migrations)
	}
	if b.Frontend.MigratedBytes == 0 {
		t.Fatal("migration shipped zero bytes")
	}
	if tb.EdgeBackend.MigrationsOut != 1 || site2.Backend.MigrationsIn != 1 {
		t.Fatalf("backend migrations out=%d in=%d, want 1/1",
			tb.EdgeBackend.MigrationsOut, site2.Backend.MigrationsIn)
	}
	if tb.Loc.users[b.Name] != nil {
		t.Error("edge-1 still tracks the user after the freeze")
	}
	if site2.Loc.users[b.Name] == nil {
		t.Error("edge-2 has no imported track after the resume")
	}

	// The frame loop resumed on the new site: responses keep arriving
	// after the crossing, and the continuity gap is bounded by one frame
	// timeout (the migration itself is far faster).
	crossAt := walkStart + sim.Time(crossings[0].At)
	var lastBefore, firstAfter sim.Time
	for _, at := range respTimes {
		if at <= crossAt {
			lastBefore = at
		} else if firstAfter == 0 {
			firstAfter = at
		}
	}
	if lastBefore == 0 || firstAfter == 0 {
		t.Fatalf("no frame responses bracketing the crossing (total %d)", len(respTimes))
	}
	if gap := firstAfter.Sub(lastBefore); gap > frameTimeout+time.Second {
		t.Errorf("continuity gap %v exceeds a frame timeout", gap)
	}
}

// TestNewTestbedBuildsNoDescriptors holds the testbed build to what a trial
// reads: the retail database is lazy (vision.BuildRetailDB), so NewTestbed
// allocates well under 1 MB — the eager build was ≈ 5.7 MB, 5.5 MB of it
// SURF descriptors no back-end reads, and ≈ 60 ms per testbed.
func TestNewTestbedBuildsNoDescriptors(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb := newRetailTestbed(t, TestbedConfig{})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("NewTestbed allocated %d bytes, want < 1 MiB", got)
	}
	if tb.DB.Len() != 105 {
		t.Fatalf("DB has %d objects", tb.DB.Len())
	}
}

// TestRetailSessionNeverMaterialisesDB runs what the testbed's back-ends do
// with the database — four UEs' pruned frame matching, then a cross-site
// migration whose state size counts the DB slice near the user — and checks
// no object's descriptors were ever generated, while the migrated state is
// still sized by them.
func TestRetailSessionNeverMaterialisesDB(t *testing.T) {
	tb := newRetailTestbed(t, TestbedConfig{NumUEs: 4})
	tb.AddEdgeSite("edge-2")
	east := tb.AddCellENB("enb-east")
	tb.BindSiteToENB("edge-2", "enb-east")
	start := geo.Point{X: 15, Y: 15}
	for i, b := range tb.UEs {
		tb.MoveUE(b, geo.Point{X: start.X, Y: start.Y + float64(i)})
		if err := tb.Attach(b); err != nil {
			t.Fatalf("UE %d attach: %v", i, err)
		}
		if err := tb.StartRetailApp(b, "electronics"); err != nil {
			t.Fatalf("UE %d register: %v", i, err)
		}
	}
	tb.Run(5 * time.Second)
	b := tb.UEs[0]
	walk := geo.Walker{Path: geo.Path{Waypoints: []geo.Point{start, {X: 27, Y: 15}}}, Speed: 1.4}
	tb.StartWalk(b, walk, geo.MidlineCell(21), []*epc.ENB{tb.ENB, east}, 100*time.Millisecond, nil)
	tb.Run(walk.Duration() + 5*time.Second)

	if tb.EdgeBackend.Frames == 0 || b.Frontend.Migrations != 1 {
		t.Fatalf("frames = %d, migrations = %d; want a live session and one migration",
			tb.EdgeBackend.Frames, b.Frontend.Migrations)
	}
	// At least the session context plus one object's descriptors moved.
	perObject := DBObjectFeatures * (vision.DescriptorDim*4 + 16)
	if int(b.Frontend.MigratedBytes) < migrateSessionCtxBytes+perObject {
		t.Errorf("migrated %d bytes, want the DB slice counted", b.Frontend.MigratedBytes)
	}
	for i, o := range tb.DB.Objects {
		if o.Materialised() {
			t.Fatalf("object %d was materialised by a retail session", i)
		}
	}
}
