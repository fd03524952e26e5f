// Mobility: a store spanning two LTE cells, each with its own edge site.
// The customer browses in the west cell, then walks east at 1.4 m/s; the
// timed walker crosses the cell boundary, the network runs an S1 handover
// (SGW anchoring keeps her IP and the dedicated MEC bearer alive), the MRS
// re-anchors the MEC binding on the east cell's site, and the AR session's
// state — localization track plus the feature-DB slice around her — is
// frozen, shipped site-to-site, and resumed with a bounded continuity gap.
//
//	go run ./examples/mobility
//
// With -faults the walk also survives an edge-site outage: a fault plan
// crashes the now-serving east site mid-session, GTP-U path supervision
// detects it, and the MRS moves the AR session back to the west site.
//
//	go run ./examples/mobility -faults
package main

import (
	"flag"
	"fmt"
	"time"

	"acacia"
	"acacia/internal/epc"
	"acacia/internal/geo"
)

func main() {
	faults := flag.Bool("faults", false, "crash the serving edge site mid-session and show the recovery")
	flag.Parse()

	tb := acacia.NewTestbed(acacia.TestbedConfig{Seed: 7})
	east := tb.AddCellENB("enb-east")
	site2 := tb.AddEdgeSite("edge-2")
	tb.BindSiteToENB(site2.Name, "enb-east")
	customer := tb.UEs[0]
	if *faults {
		tb.EnableFailover(100*time.Millisecond, 2)
	}

	start := geo.Point{X: 15, Y: 12} // west side
	tb.MoveUE(customer, start)
	if err := tb.Attach(customer); err != nil {
		panic(err)
	}
	if err := tb.StartRetailApp(customer, "electronics"); err != nil {
		panic(err)
	}
	tb.Run(8 * time.Second)

	report := func(phase string) {
		fe := customer.Frontend
		sess := tb.EPC.Session(customer.UE.IMSI)
		site := "-"
		if s := tb.MRS.Binding(customer.UE.Addr()); s != nil {
			site = s.Name
		}
		fmt.Printf("%-22s serving=%-9s site=%-7s frames=%-4d matched=%-4d timeouts=%-2d bearers=%d\n",
			phase, sess.ENB.Name(), site, fe.Responses, fe.Found, fe.Timeouts,
			len(sess.OrderedBearers()))
	}
	report("west cell:")

	// Walk east across the midline: the precomputed boundary crossing
	// triggers the handover, which drags the MEC binding and the session
	// state along with it.
	walk := geo.Walker{
		Path:  geo.Path{Waypoints: []geo.Point{start, {X: 33, Y: 14}}},
		Speed: 1.4,
	}
	fmt.Println("\n-- walking east at 1.4 m/s; the boundary crossing hands the session over --")
	crossings := tb.StartWalk(customer, walk, geo.MidlineCell(21),
		[]*epc.ENB{tb.ENB, east}, 100*time.Millisecond,
		func(c geo.Crossing, err error) {
			fmt.Printf("crossing at %v (cell %d -> %d): handover err=%v\n",
				c.At.Round(time.Millisecond), c.From, c.To, err)
		})
	fmt.Printf("walk: %.0f m, %v, %d boundary crossing(s)\n",
		walk.Path.Length(), walk.Duration().Round(time.Second), len(crossings))
	tb.Run(walk.Duration() + 10*time.Second)
	report("east cell:")

	fe := customer.Frontend
	fmt.Printf("\nmigration: %d session(s) moved, %.0f KB state, transfer %.1f ms, relocations %d\n",
		fe.Migrations, float64(fe.MigratedBytes)/1024, fe.MigrateTransferMS, tb.MRS.Relocations)

	if *faults {
		fmt.Println("\n-- edge-2 crashes; path supervision detects, MRS fails the session over --")
		if err := tb.Faults.Apply(acacia.FaultPlan{Events: []acacia.FaultEvent{
			{Kind: acacia.FaultSiteCrash, Target: "edge-2", At: time.Second},
		}}); err != nil {
			panic(err)
		}
		tb.Run(15 * time.Second)
		report("after failover:")
		if site := tb.MRS.Binding(customer.UE.Addr()); site != nil {
			fmt.Printf("serving edge site now: %s (failovers: %d)\n", site.Name, tb.MRS.Failovers)
		}
	}

	fmt.Printf("\nsession stats: total %.1f ms/frame (match %.1f, compute %.1f, network %.1f)\n",
		fe.Stats.Total.Mean(), fe.Stats.Match.Mean(), fe.Stats.Compute.Mean(), fe.Stats.Network.Mean())
	fmt.Printf("handovers completed: %d; UE IP unchanged: %v; MEC binding: %v\n",
		tb.EPC.MME.Handovers, customer.UE.Addr(), tb.MRS.Binding(customer.UE.Addr()) != nil)
}
