package main

import (
	"testing"
	"time"

	"acacia"
	"acacia/internal/epc"
	"acacia/internal/geo"
)

// TestWalkerDrivenHandover runs the example's scenario — a walker-driven
// crossing between two cells with per-cell edge sites — and asserts its
// claims: exactly one handover, the MRS binding re-anchored on the east
// site, the session migrated, and no frames lost beyond the interruption
// window around the crossing.
func TestWalkerDrivenHandover(t *testing.T) {
	tb := acacia.NewTestbed(acacia.TestbedConfig{Seed: 7, IdleTimeout: time.Hour})
	east := tb.AddCellENB("enb-east")
	site2 := tb.AddEdgeSite("edge-2")
	tb.BindSiteToENB(site2.Name, "enb-east")
	customer := tb.UEs[0]

	start := geo.Point{X: 15, Y: 12}
	tb.MoveUE(customer, start)
	if err := tb.Attach(customer); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if err := tb.StartRetailApp(customer, "electronics"); err != nil {
		t.Fatalf("register: %v", err)
	}
	tb.Run(8 * time.Second)
	if n := customer.Frontend.Timeouts; n != 0 {
		t.Fatalf("%d frame timeouts before the walk", n)
	}

	walk := geo.Walker{
		Path:  geo.Path{Waypoints: []geo.Point{start, {X: 33, Y: 14}}},
		Speed: 1.4,
	}
	var hoErrs []error
	crossings := tb.StartWalk(customer, walk, geo.MidlineCell(21),
		[]*epc.ENB{tb.ENB, east}, 100*time.Millisecond,
		func(_ geo.Crossing, err error) { hoErrs = append(hoErrs, err) })
	if len(crossings) != 1 {
		t.Fatalf("crossings = %d, want 1", len(crossings))
	}
	tb.Run(walk.Duration() + 10*time.Second)

	if len(hoErrs) != 1 || hoErrs[0] != nil {
		t.Fatalf("handover completions = %v, want one success", hoErrs)
	}
	if got := tb.EPC.MME.Handovers; got != 1 {
		t.Fatalf("handovers = %d, want 1", got)
	}
	sess := tb.EPC.Session(customer.UE.IMSI)
	if sess == nil || sess.ENB != east {
		t.Fatal("session did not end on enb-east")
	}

	// The MRS binding ends on the east cell's site and the session moved.
	if site := tb.MRS.Binding(customer.UE.Addr()); site == nil || site.Name != site2.Name {
		t.Fatalf("final binding = %+v, want %s", site, site2.Name)
	}
	// Migrations counts only a done message that beat the watchdog.
	if customer.Frontend.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1 clean migration", customer.Frontend.Migrations)
	}

	// No frame loss beyond the interruption window: the only frame the
	// walk may cost is the one in flight when the relocation fires.
	if n := customer.Frontend.Timeouts; n > 1 {
		t.Fatalf("%d frames lost over the walk, want at most 1", n)
	}
	if customer.Frontend.Responses == 0 {
		t.Fatal("no frames served")
	}
}
