package experiments

import (
	"fmt"
	"time"

	"acacia/internal/core"
	"acacia/internal/fault"
	"acacia/internal/stats"
)

func init() {
	register(controlLoss())
	register(robustFailover())
}

// controlLoss exercises the control-plane transport's loss tolerance: one
// trial per injected S11 drop rate, each running an attach plus the
// network-initiated dedicated-bearer activation (the ACACIA redirection
// procedure) over the degraded link. The table shows how the transaction
// layer's retransmission/timeout machinery absorbs — or, past the retry
// budget, surfaces — control-plane loss; `-metrics` carries the epc/txn/*
// counters of every trial.
func controlLoss() Experiment {
	lossRates := []float64{0, 0.05, 0.1, 0.2, 0.3}
	return Experiment{
		ID:    "control-loss",
		Title: "Bearer signalling under control-plane loss (transport robustness)",
		Trials: func(opts Options) []Trial {
			return sweep(lossRates, func(p float64) string { return fmt.Sprintf("loss=%g", p) }, func(seed uint64, p float64) any {
				return runControlLossTrial(seed, p)
			})
		},
		Assemble: func(_ Options, parts []any) *Result {
			tbl := stats.NewTable("Attach + dedicated bearer over a lossy S11 control link",
				"S11 loss", "attach", "bearer", "retrans", "timeouts", "dups", "mean txn RTT (ms)")
			addRows(tbl, parts)
			return &Result{ID: "control-loss", Title: Title("control-loss"), Tables: []*stats.Table{tbl},
				Notes: []string{
					"T3=100ms/N3=3 (GTPv2 retransmission analog): moderate loss costs retransmissions, not procedures",
					"procedures that exhaust the retry budget fail terminally with state rolled back — no hangs",
				}}
		},
	}
}

// failoverPoint is one cell of the robust-failover sweep.
type failoverPoint struct {
	failAt    time.Duration
	period    time.Duration
	maxMisses int
}

// robustFailover kills the serving edge site mid-AR-session across a sweep
// of failure timing × path-supervision period × miss budget, and reports
// the recovery pipeline's figures of merit: time-to-detect (GTP-U echo
// supervision), time-to-repair (bearer re-establishment on the surviving
// site), end-to-end session downtime as the AR front-end experiences it,
// and frames lost to the outage. Each trial also feeds the per-trial
// histograms under core/failover/ (rendered by -metrics).
func robustFailover() Experiment {
	return Experiment{
		ID:    "robust-failover",
		Title: "MEC failover: edge-site crash detection and session recovery",
		Trials: func(opts Options) []Trial {
			failAts := []time.Duration{time.Second, 3 * time.Second}
			sups := []failoverPoint{
				{period: 100 * time.Millisecond, maxMisses: 2},
				{period: 250 * time.Millisecond, maxMisses: 3},
			}
			if opts.Full {
				failAts = []time.Duration{time.Second, 2 * time.Second, 4 * time.Second}
				sups = []failoverPoint{
					{period: 50 * time.Millisecond, maxMisses: 2},
					{period: 100 * time.Millisecond, maxMisses: 2},
					{period: 100 * time.Millisecond, maxMisses: 3},
					{period: 250 * time.Millisecond, maxMisses: 3},
				}
			}
			var trials []Trial
			for _, failAt := range failAts {
				for _, s := range sups {
					pt := failoverPoint{failAt: failAt, period: s.period, maxMisses: s.maxMisses}
					trials = append(trials, Trial{
						Key: fmt.Sprintf("fail=%v period=%v misses=%d", pt.failAt, pt.period, pt.maxMisses),
						Run: func(seed uint64) any { return runFailoverTrial(seed, pt) },
					})
				}
			}
			return trials
		},
		Assemble: func(_ Options, parts []any) *Result {
			tbl := stats.NewTable("Edge-site crash mid-session: detection and recovery",
				"fail at", "probe period", "misses", "detect (ms)", "repair (ms)", "downtime (ms)", "frames lost", "recovered")
			addRows(tbl, parts)
			return &Result{ID: "robust-failover", Title: Title("robust-failover"), Tables: []*stats.Table{tbl},
				Notes: []string{
					"detect ≈ maxMisses×period (GTP-U echo supervision at the site SGW-U); repair is pure control-plane signalling",
					"session downtime is bounded by detect + repair + the front-end's in-flight frame timeout",
				}}
		},
	}
}

// runFailoverTrial crashes edge-1 at the configured time and measures the
// recovery pipeline onto edge-2.
func runFailoverTrial(seed uint64, pt failoverPoint) Metered {
	tb := core.NewTestbed(core.TestbedConfig{
		Seed:        seed,
		IdleTimeout: time.Hour,
	})
	tb.AddEdgeSite("edge-2")
	tb.EnableFailover(pt.period, pt.maxMisses)

	// Register the result histograms up front so the snapshot layout does
	// not depend on which trial observes first after merging.
	scope := tb.Eng.Metrics().Scope("core").Scope("failover")
	hDetect := scope.Histogram("detect-ms")
	hRepair := scope.Histogram("repair-ms")
	hDowntime := scope.Histogram("downtime-ms")
	hLost := scope.Histogram("frames-lost")

	b := tb.UEs[0]
	row := func(vals ...any) Metered {
		base := []any{fmt.Sprintf("%v", pt.failAt), fmt.Sprintf("%v", pt.period), pt.maxMisses}
		return metered(append(base, vals...), tb.Eng)
	}
	if err := tb.Attach(b); err != nil {
		return row("-", "-", "-", "-", "ATTACH FAILED")
	}
	if err := tb.StartRetailApp(b, "electronics"); err != nil {
		return row("-", "-", "-", "-", "REGISTER FAILED")
	}
	tb.Run(5 * time.Second) // discovery, MRS round trip, session warm-up

	var respTimes []time.Duration
	b.Frontend.OnResponse = func(core.ARFrameResult) {
		respTimes = append(respTimes, time.Duration(tb.Eng.Now()))
	}
	failWall := time.Duration(tb.Eng.Now()) + pt.failAt
	if err := tb.Faults.Apply(fault.Plan{Events: []fault.Event{
		{Kind: fault.SiteCrash, Target: "edge-1", At: pt.failAt},
	}}); err != nil {
		return row("-", "-", "-", "-", "PLAN REJECTED")
	}
	lostBefore := b.Frontend.Timeouts
	tb.Run(pt.failAt + 15*time.Second)

	var detectAt, repairAt time.Duration
	events := tb.Eng.Metrics().Events()
	for i := 0; i < events.Len(); i++ {
		ev := events.At(i)
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
	if detectAt == 0 || repairAt == 0 || !b.DM.Connected(core.RetailServiceName) {
		return row("-", "-", "-", "-", "NOT RECOVERED")
	}
	var lastBefore, firstAfter time.Duration
	for _, at := range respTimes {
		if at < failWall {
			lastBefore = at
		} else if firstAfter == 0 {
			firstAfter = at
		}
	}
	downtime := firstAfter - lastBefore
	lost := b.Frontend.Timeouts - lostBefore

	detectMS := float64(detectAt-failWall) / float64(time.Millisecond)
	repairMS := float64(repairAt-detectAt) / float64(time.Millisecond)
	downtimeMS := float64(downtime) / float64(time.Millisecond)
	hDetect.Observe(detectMS)
	hRepair.Observe(repairMS)
	hDowntime.Observe(downtimeMS)
	hLost.Observe(float64(lost))
	return row(fmt.Sprintf("%.1f", detectMS), fmt.Sprintf("%.1f", repairMS),
		fmt.Sprintf("%.1f", downtimeMS), lost, "ok")
}

// runControlLossTrial runs one attach + dedicated-bearer activation with the
// given drop probability on the S11 (MME<->SGW-C) control link and returns
// the metered table row.
func runControlLossTrial(seed uint64, loss float64) Metered {
	tb := core.NewTestbed(core.TestbedConfig{
		Seed:        seed,
		IdleTimeout: time.Hour,
	})
	tb.EPC.S11Link().SetLoss(loss)

	attachOK := "ok"
	if err := tb.Attach(tb.UEs[0]); err != nil {
		attachOK = "FAILED"
	}

	bearerOK := "-"
	if attachOK == "ok" {
		done := false
		var berr error
		tb.EPC.PCRF.RequestDedicatedBearer(core.RetailPolicyID,
			tb.UEs[0].UE.Addr(), tb.CIServer.Node.Addr(),
			tb.Sites[0].SGWPlane(), tb.Sites[0].PGWPlane(), func(_ any, _ uint8, err error) { done, berr = true, err }, nil)
		tb.Run(5 * time.Second)
		switch {
		case !done:
			bearerOK = "HUNG"
		case berr != nil:
			bearerOK = "FAILED"
		default:
			bearerOK = "ok"
		}
	}

	tr := tb.EPC.Transport()
	snap := tb.Eng.Metrics().Snapshot()
	meanRTT := 0.0
	if m, ok := snap.Get("epc/txn/latency-ms"); ok && m.Count > 0 {
		meanRTT = m.Value / float64(m.Count)
	}
	row := []any{fmt.Sprintf("%g%%", loss*100), attachOK, bearerOK,
		tr.Retransmissions(), tr.Timeouts(), tr.Duplicates(), meanRTT}
	return metered(row, tb.Eng)
}
