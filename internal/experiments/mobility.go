package experiments

import (
	"fmt"
	"time"

	"acacia/internal/core"
	"acacia/internal/epc"
	"acacia/internal/geo"
	"acacia/internal/stats"
)

func init() {
	register(mobilityContinuity())
}

// mobilityContinuity walks a user across a cell boundary mid-AR-session:
// the S1 handover re-anchors the radio path, the MRS relocates the MEC
// binding to the site local to the new cell, and the AR session's state
// (localization track + feature-DB slice) migrates site-to-site over the
// fabric. One trial per database size — the feature count is the state-size
// knob — so the table shows the continuity gap growing with the migrated
// state, the EdgeWarp/EDGECAT trade-off.
func mobilityContinuity() Experiment {
	return Experiment{
		ID:    "mobility-continuity",
		Title: "Cross-site handover: session continuity vs migrated state size",
		Trials: func(opts Options) []Trial {
			features := []int{50, 200, 400}
			if opts.Full {
				features = []int{50, 100, 200, 400, 800}
			}
			return sweep(features, func(f int) string { return fmt.Sprintf("features=%d", f) }, func(seed uint64, f int) any {
				return runMobilityTrial(seed, f)
			})
		},
		Assemble: func(_ Options, parts []any) *Result {
			tbl := stats.NewTable("Mid-session walk across a cell boundary (two sites, two cells)",
				"DB features/obj", "state (KB)", "handovers", "relocations", "migrations",
				"transfer (ms)", "continuity gap (ms)", "frames lost", "final site", "status")
			addRows(tbl, parts)
			return &Result{ID: "mobility-continuity", Title: Title("mobility-continuity"), Tables: []*stats.Table{tbl},
				Notes: []string{
					"the walk crosses the midline once at 1.4 m/s; the handover completion drives the MRS relocation and the freeze/copy/resume transfer",
					"state = session context + localization track + the feature-DB slice near the user's estimate; the gap grows with it (stop-and-wait chunk train)",
					"frames lost counts front-end frame timeouts over the whole walk — the interruption window plus the migration pause",
				}}
		},
	}
}

// runMobilityTrial walks one user west-to-east across the midline between
// cell "enb" (edge-1) and cell "enb-east" (edge-2) and measures the
// continuity of its AR session across the resulting relocation.
func runMobilityTrial(seed uint64, features int) Metered {
	tb := core.NewTestbed(core.TestbedConfig{
		Seed:        seed,
		IdleTimeout: time.Hour,
		DBFeatures:  features,
	})
	site2 := tb.AddEdgeSite("edge-2")
	east := tb.AddCellENB("enb-east")
	tb.BindSiteToENB(site2.Name, "enb-east")

	b := tb.UEs[0]
	start := geo.Point{X: 15, Y: 15}
	row := func(vals ...any) Metered {
		return Metered{Part: append([]any{features}, vals...), Snap: tb.MetricsSnapshot()}
	}
	tb.MoveUE(b, start)
	if err := tb.Attach(b); err != nil {
		return row("-", "-", "-", "-", "-", "-", "-", "-", "ATTACH FAILED")
	}
	if err := tb.StartRetailApp(b, "electronics"); err != nil {
		return row("-", "-", "-", "-", "-", "-", "-", "-", "REGISTER FAILED")
	}
	tb.Run(5 * time.Second) // discovery, MRS round trip, localization warm-up

	var respTimes []time.Duration
	b.Frontend.OnResponse = func(core.ARFrameResult) {
		respTimes = append(respTimes, time.Duration(tb.Eng.Now()))
	}
	lostBefore := b.Frontend.Timeouts
	walk := geo.Walker{
		Path:  geo.Path{Waypoints: []geo.Point{start, {X: 27, Y: 15}}},
		Speed: 1.4,
	}
	walkStart := time.Duration(tb.Eng.Now())
	crossings := tb.StartWalk(b, walk, geo.MidlineCell(21),
		[]*epc.ENB{tb.ENB, east}, 100*time.Millisecond, nil)
	tb.Run(walk.Duration() + 8*time.Second)

	stateKB := float64(b.Frontend.MigratedBytes) / 1024
	lost := b.Frontend.Timeouts - lostBefore
	finalSite := "-"
	if s := tb.MRS.Binding(b.UE.Addr()); s != nil {
		finalSite = s.Name
	}
	status := "ok"
	if b.Frontend.Migrations == 0 || finalSite != site2.Name {
		status = "NOT MIGRATED"
	}

	// Continuity gap: the longest silence in the response stream around the
	// boundary crossing (radio interruption + relocation + state transfer).
	gapMS := "-"
	if len(crossings) == 1 {
		crossAt := walkStart + crossings[0].At
		var lastBefore, firstAfter time.Duration
		for _, at := range respTimes {
			if at <= crossAt {
				lastBefore = at
			} else if firstAfter == 0 {
				firstAfter = at
			}
		}
		if lastBefore > 0 && firstAfter > 0 {
			gapMS = fmt.Sprintf("%.1f", float64(firstAfter-lastBefore)/float64(time.Millisecond))
		}
	}
	return row(fmt.Sprintf("%.1f", stateKB), tb.EPC.MME.Handovers, tb.MRS.Relocations,
		b.Frontend.Migrations, fmt.Sprintf("%.1f", b.Frontend.MigrateTransferMS),
		gapMS, lost, finalSite, status)
}
