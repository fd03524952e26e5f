package main

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"acacia"
	"acacia/internal/epc"
	"acacia/internal/pkt"
)

// Workload names are fixed: later issues cite them.
const (
	wlMetroAttach  = "metro-attach"
	wlMetroFrames  = "metro-frames"
	wlControlChurn = "control-churn"
	wlPaperAll     = "paper-all"
)

var workloadNames = []string{wlMetroAttach, wlMetroFrames, wlControlChurn, wlPaperAll}

// shape sizes every workload. The full shape is the benchmark; the smoke
// shape exists only so bench_test.go can exercise every code path in
// seconds.
type shape struct {
	attach, frames acacia.ScaleConfig
	churnUEs       int
	churnRounds    int
	// paperIDs nil means every experiment through RunAllExperiments.
	paperIDs []string
	// probeDiv divides every probe's call count; probeBatches is how many
	// batches each probe takes its median over.
	probeDiv, probeBatches int
	// clusterHold is the Hold of the metro-frames shape the cluster ratio
	// probes run.
	clusterHold time.Duration
}

func fullShape(seed uint64) shape {
	flash := int(seed % 12)
	return shape{
		attach: acacia.ScaleConfig{
			Sites: 12, ENBsPerSite: 2, UEs: 10000, SiteCapacity: 900,
			Ramp: 20 * time.Second, Hold: 10 * time.Second,
			CohortWindow: 250 * time.Millisecond,
			FramePeriod:  2 * time.Second, FrameService: 2 * time.Millisecond,
			Arrival: "flash", FlashFraction: 0.2, FlashSite: flash, Workers: 0,
		},
		frames: acacia.ScaleConfig{
			Sites: 12, ENBsPerSite: 1, UEs: 1200, SiteCapacity: 110,
			Ramp: 2 * time.Second, Hold: 60 * time.Second,
			CohortWindow: 250 * time.Millisecond,
			FramePeriod:  100 * time.Millisecond, FrameService: 500 * time.Microsecond,
			Arrival: "flash", FlashFraction: 0.2, FlashSite: flash, Workers: 0,
		},
		churnUEs:    16,
		churnRounds: 1500,
		probeDiv:    1, probeBatches: 5,
		clusterHold: 10 * time.Second,
	}
}

func smokeShape(seed uint64) shape {
	s := fullShape(seed)
	flash := int(seed % 4)
	s.attach.Sites, s.attach.UEs, s.attach.SiteCapacity, s.attach.FlashSite = 4, 200, 60, flash
	s.attach.Ramp, s.attach.Hold = 2*time.Second, time.Second
	s.frames.Sites, s.frames.UEs, s.frames.SiteCapacity, s.frames.FlashSite = 4, 200, 60, flash
	s.frames.Hold = time.Second
	s.churnUEs, s.churnRounds = 4, 2
	s.paperIDs = []string{"3a", "3e", "compression"}
	s.probeDiv, s.probeBatches = 100, 1
	s.clusterHold = time.Second
	return s
}

// repResult is what one repetition of one workload yields before the child
// adds host-side measurements.
type repResult struct {
	// Ops is the number of operations completed; Attempted the number the
	// workload set out to do.
	Ops, Attempted int64
	// Violations lists every correctness check that failed; any entry
	// marks all of the rep's ops failed.
	Violations []string
	// Fingerprint is FNV-64a over the simulated output.
	Fingerprint string
	// Counts are exact simulated work counts.
	Counts map[string]float64
}

// timedRegion is a workload after set-up: calling it is the timed region.
type timedRegion func(tr *tracer) repResult

// prepare performs the workload's explicit set-up (part of setup_s) and
// returns the timed region. breakCheck deliberately violates one check (the
// expected population is off by one) so tests can see a violation counted
// rather than aborting the run.
func prepare(name string, seed uint64, sh shape, perExperiment, breakCheck bool) (timedRegion, error) {
	switch name {
	case wlMetroAttach:
		return prepareMetro(name, seed, sh.attach, breakCheck), nil
	case wlMetroFrames:
		return prepareMetro(name, seed, sh.frames, breakCheck), nil
	case wlControlChurn:
		return prepareChurn(seed, sh, breakCheck), nil
	case wlPaperAll:
		return preparePaper(seed, sh, perExperiment, breakCheck), nil
	}
	return nil, checkWorkload(name)
}

// --- metro-* ---

func prepareMetro(name string, seed uint64, cfg acacia.ScaleConfig, breakCheck bool) timedRegion {
	// Build-only proxy: the same topology and population with a run too
	// short for any cohort flush to fire. RunScaleScenario builds inside
	// the timed call, so this is the only view of build cost from outside;
	// it makes work moved from run to build show up in setup_s.
	proxy := cfg
	proxy.Ramp, proxy.Hold = time.Millisecond, time.Millisecond
	acacia.RunScaleScenario(seed, proxy)

	return func(tr *tracer) repResult {
		sp := tr.begin(0, name+".run")
		res := acacia.RunScaleScenario(seed, cfg)
		tr.end(sp)
		want := int64(cfg.UEs)
		if breakCheck {
			want++
		}
		r := checkMetro(res, want)
		if name == wlMetroFrames {
			// Op = one AR frame round trip; frames still in flight
			// when the run ends were served but never completed.
			r.Ops, r.Attempted = int64(r.Counts["metro.frames_done"]), int64(r.Counts["metro.frames_served"])
		} else {
			// Op = one UE attached and MEC-bound.
			r.Ops, r.Attempted = int64(r.Counts["metro.bound"]), int64(cfg.UEs)
		}
		return r
	}
}

// checkMetro reads the op counts back out of the result tables: the curve
// table carries attach-n and frame-n per population bucket, the placement
// table bound and frames-served per site.
func checkMetro(res *acacia.ExperimentResult, wantUEs int64) repResult {
	r := repResult{Counts: map[string]float64{}, Fingerprint: fingerprint(res.String())}
	if len(res.Tables) != 2 {
		r.Violations = append(r.Violations, fmt.Sprintf("scale result has %d tables, want 2", len(res.Tables)))
		return r
	}
	curve, place := res.Tables[0], res.Tables[1]
	attached := sumColumn(curve.Header, curve.Rows, "attach-n")
	framesDone := sumColumn(curve.Header, curve.Rows, "frame-n")
	bound := sumColumn(place.Header, place.Rows, "bound")
	served := sumColumn(place.Header, place.Rows, "frames-served")
	r.Counts["metro.attached"] = float64(attached)
	r.Counts["metro.bound"] = float64(bound)
	r.Counts["metro.frames_done"] = float64(framesDone)
	r.Counts["metro.frames_served"] = float64(served)
	if attached != wantUEs {
		r.Violations = append(r.Violations, fmt.Sprintf("attached %d UEs, want %d", attached, wantUEs))
	}
	if bound != wantUEs {
		r.Violations = append(r.Violations, fmt.Sprintf("bound %d UEs, want %d", bound, wantUEs))
	}
	// At most one frame per UE is still in flight when the run ends.
	if framesDone < served-wantUEs {
		r.Violations = append(r.Violations, fmt.Sprintf("%d frames completed of %d served", framesDone, served))
	}
	for _, n := range res.Notes {
		if strings.Contains(n, "DIVERGED") {
			r.Violations = append(r.Violations, "note: "+n)
		}
	}
	return r
}

func sumColumn(header []string, rows [][]string, col string) int64 {
	idx := -1
	for i, h := range header {
		if h == col {
			idx = i
		}
	}
	if idx < 0 {
		return -1
	}
	var sum int64
	for _, row := range rows {
		if idx < len(row) {
			n, _ := strconv.ParseInt(row[idx], 10, 64)
			sum += n
		}
	}
	return sum
}

// --- control-churn ---

const churnOpsPerUE = 6 // attach, bind, handover out, handover back, release, detach

func prepareChurn(seed uint64, sh shape, breakCheck bool) timedRegion {
	tb := acacia.NewTestbed(acacia.TestbedConfig{
		Seed: seed, NumUEs: sh.churnUEs,
		IdleTimeout: time.Hour, DiscoveryPeriod: time.Hour,
	})
	east := tb.AddNeighborENB("enb-east")
	// The static routes NewTestbed installs travel the control links like
	// any FlowMod; let them land so round 0 starts from the same table as
	// every later round.
	tb.Run(time.Second)

	return func(tr *tracer) repResult {
		r := repResult{Counts: map[string]float64{}}
		r.Attempted = int64(sh.churnRounds * sh.churnUEs * churnOpsPerUE)
		fail := func(format string, args ...any) {
			if len(r.Violations) < 16 {
				r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
			}
		}
		flowCount := func() int {
			return tb.CoreSGW.FlowCount() + tb.CorePGW.FlowCount() + tb.EdgeSGW.FlowCount() + tb.EdgePGW.FlowCount()
		}
		wantSessions := 0
		if breakCheck {
			wantSessions = 1
		}
		// The callbacks run inside engine handlers, so they only count;
		// spans open and close out here, around the calls and Run windows.
		var fired int
		bound := func(_ pkt.Addr, err error) {
			if err == nil {
				fired++
			}
		}
		released := func(err error) {
			if err == nil {
				fired++
			}
		}
		detached := func() { fired++ }
		// batch runs one fan-out phase: issue the procedure for every UE,
		// advance two virtual seconds, and require every callback to have
		// fired with a nil error inside that window.
		batch := func(root int, phase string, issue func(b *acacia.UEBundle) error) {
			sp := tr.beginN(root, "churn."+phase, len(tb.UEs))
			fired = 0
			for _, b := range tb.UEs {
				if err := issue(b); err != nil {
					fail("%s %s: %v", phase, b.Name, err)
				}
			}
			tb.Run(2 * time.Second)
			tr.end(sp)
			if fired != len(tb.UEs) {
				fail("%s: %d of %d callbacks fired with nil error", phase, fired, len(tb.UEs))
			}
			r.Ops += int64(fired)
		}
		for round := 0; round < sh.churnRounds; round++ {
			root := tr.begin(0, "churn.round")
			flowsBefore := flowCount()
			for _, b := range tb.UEs {
				sp := tr.begin(root, "churn.attach")
				err := tb.Attach(b)
				tr.end(sp)
				if err != nil {
					fail("attach %s: %v", b.Name, err)
					continue
				}
				r.Ops++
			}
			batch(root, "bind", func(b *acacia.UEBundle) error {
				tb.MRS.RequestConnectivity(acacia.RetailServiceName, b.UE.Addr(), tb.ENB.Name(), bound)
				return nil
			})
			for _, b := range tb.UEs {
				for _, target := range []*epc.ENB{east, tb.ENB} {
					sp := tr.begin(root, "churn.handover")
					err := tb.Handover(b, target)
					tr.end(sp)
					if err != nil {
						fail("handover %s -> %s: %v", b.Name, target.Name(), err)
						continue
					}
					r.Ops++
				}
			}
			batch(root, "release", func(b *acacia.UEBundle) error {
				tb.MRS.ReleaseConnectivity(b.UE.Addr(), released)
				return nil
			})
			batch(root, "detach", func(b *acacia.UEBundle) error {
				return b.UE.Detach(detached)
			})
			tr.end(root)

			sessions := 0
			for _, b := range tb.UEs {
				if tb.EPC.Session(b.UE.IMSI) != nil {
					sessions++
				}
			}
			if sessions != wantSessions {
				fail("round %d: %d sessions left, want %d", round, sessions, wantSessions)
			}
			if got := flowCount(); got != flowsBefore {
				fail("round %d: %d flows installed, %d before the round", round, got, flowsBefore)
			}
		}

		snap := tb.MetricsSnapshot()
		events := tb.Eng.Processed()
		r.Counts["sim.events"] = float64(events)
		simCounts(snap, r.Counts)
		r.Fingerprint = fingerprint(fmt.Sprintf("%d %d\n%s", r.Ops, events, snap))
		return r
	}
}

// --- paper-all ---

func preparePaper(seed uint64, sh shape, perExperiment, breakCheck bool) timedRegion {
	ids := sh.paperIDs
	if ids == nil {
		ids = acacia.ExperimentIDs()
	} else {
		perExperiment = true
	}
	opts := acacia.ExperimentOptions{Seed: seed, SeedSet: true, Parallel: 1}

	return func(tr *tracer) repResult {
		r := repResult{Counts: map[string]float64{}, Attempted: int64(len(ids))}
		var results []*acacia.ExperimentResult
		if perExperiment {
			// One span per experiment; same seeds, so same output as
			// the single RunAllExperiments call.
			for _, id := range ids {
				sp := tr.begin(0, "exp."+id)
				res, err := acacia.RunExperiment(id, opts)
				tr.end(sp)
				if err != nil {
					r.Violations = append(r.Violations, err.Error())
					continue
				}
				results = append(results, res)
			}
		} else {
			sp := tr.begin(0, "paper-all.run")
			var err error
			results, err = acacia.RunAllExperiments(opts)
			tr.end(sp)
			if err != nil {
				r.Violations = append(r.Violations, err.Error())
			}
		}
		want := len(ids)
		if breakCheck {
			want++
		}
		if len(results) != want {
			r.Violations = append(r.Violations, fmt.Sprintf("%d experiments regenerated, want %d", len(results), want))
		}
		var rendered strings.Builder
		snaps := make([]*acacia.MetricsSnapshot, 0, len(results))
		for _, res := range results {
			if len(res.Tables) == 0 || len(res.Tables[0].Rows) == 0 {
				r.Violations = append(r.Violations, "experiment "+res.ID+" has an empty table")
			}
			rendered.WriteString(res.String())
			snaps = append(snaps, res.Metrics)
			r.Ops++
		}
		simCounts(acacia.MergeMetrics(snaps...), r.Counts)
		r.Fingerprint = fingerprint(rendered.String())
		return r
	}
}

// --- shared ---

func fingerprint(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// countNames maps a per-layer count to the telemetry counters it sums: every
// registry name that starts with prefix and ends with suffix (per-instance
// scopes sit in between, e.g. sdn/<switch>/fastpath/hits).
var countNames = []struct {
	metric, prefix, suffix string
}{
	{"netsim.pkts_sent", "netsim/link/", "/sent"},
	{"netsim.pkts_dropped", "netsim/link/", "/dropped"},
	{"sdn.fastpath_hits", "sdn/", "/fastpath/hits"},
	{"sdn.slowpath_hits", "sdn/", "/slowpath/hits"},
	{"sdn.table_misses", "sdn/", "/table-misses"},
	{"sdn.ctl_msgs", "sdn/controller/", "sent"},
	{"sdn.ctl_msgs", "sdn/controller/", "received"},
	{"epc.s1ap_msgs", "epc/s1ap/", "msgs"},
	{"epc.gtpv2_msgs", "epc/gtpv2/", "msgs"},
	{"epc.openflow_msgs", "epc/openflow/", "msgs"},
	{"ctl.txn_sent", "epc/txn/", "sent"},
	{"ctl.retransmissions", "epc/txn/", "retransmissions"},
	{"ctl.timeouts", "epc/txn/", "timeouts"},
	{"epc.handovers", "epc/handover/", "completed"},
	{"d2d.broadcasts", "d2d/", "broadcasts"},
	{"core.frames", "core/backend/", "/frames"},
}

// simCounts sums registry counters into the per-layer simulated work
// counts. Any change in these between two commits is simulated drift, not
// speed.
func simCounts(snap *acacia.MetricsSnapshot, into map[string]float64) {
	for _, c := range countNames {
		into[c.metric] += 0
	}
	if snap == nil {
		return
	}
	for _, m := range snap.Metrics {
		for _, c := range countNames {
			if len(m.Name) >= len(c.prefix)+len(c.suffix) &&
				strings.HasPrefix(m.Name, c.prefix) && strings.HasSuffix(m.Name, c.suffix) {
				into[c.metric] += float64(m.Count)
			}
		}
	}
	if total := into["sdn.fastpath_hits"] + into["sdn.slowpath_hits"]; total > 0 {
		into["sdn.fastpath_ratio"] = into["sdn.fastpath_hits"] / total
	} else {
		into["sdn.fastpath_ratio"] = 0
	}
}
