package experiments

import (
	"fmt"
	"time"

	"acacia/internal/core"
	"acacia/internal/ctl"
	"acacia/internal/d2d"
	"acacia/internal/epc"
	"acacia/internal/geo"
	"acacia/internal/localization"
	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sdn"
	"acacia/internal/sim"
	"acacia/internal/stats"
	"acacia/internal/telemetry"
	"acacia/internal/trace"
)

func init() {
	registerSolo("6", "LTE-direct walking trace: SNR vs rxPower (Fig. 6)", fig6)
	register(fig8())
	register(fig9())
	register(fig10a())
	register(fig10b())
}

func geoPoint(x, y float64) geo.Point { return geo.Point{X: x, Y: y} }

func fig6(opts Options, seed uint64) *Result {
	floor := geo.ThreeLandmarkFloor()
	samples := trace.Walk(floor, trace.WalkConfig{
		Path:   geo.Fig6WalkPath(),
		Speed:  0.1, // 50 m in 500 s, the paper's time axis
		Period: 5 * time.Second,
		Seed:   seed,
	})
	// Bucket the walk into 25 s windows and report each landmark's mean
	// rxPower and SNR per window — the Fig. 6(b)/(c) series.
	const bucket = 25.0
	type cell struct {
		rx, snr float64
		n       int
	}
	buckets := map[int]map[string]*cell{}
	maxB := 0
	for _, s := range samples {
		bi := int(s.At.Seconds() / bucket)
		if bi > maxB {
			maxB = bi
		}
		if buckets[bi] == nil {
			buckets[bi] = map[string]*cell{}
		}
		c := buckets[bi][s.Landmark]
		if c == nil {
			c = &cell{}
			buckets[bi][s.Landmark] = c
		}
		c.rx += s.RxPower
		c.snr += s.SNR
		c.n++
	}
	rxTbl := stats.NewTable("Received power (dBm) along the walk", "time (s)", "Landmark1", "Landmark2", "Landmark3")
	snrTbl := stats.NewTable("SNR (dB) along the walk", "time (s)", "Landmark1", "Landmark2", "Landmark3")
	for bi := 0; bi <= maxB; bi++ {
		rxRow := []any{bi * 25}
		snrRow := []any{bi * 25}
		for _, lm := range floor.Landmarks {
			if c := buckets[bi][lm.Name]; c != nil && c.n > 0 {
				rxRow = append(rxRow, c.rx/float64(c.n))
				snrRow = append(snrRow, c.snr/float64(c.n))
			} else {
				rxRow = append(rxRow, "-")
				snrRow = append(snrRow, "-")
			}
		}
		rxTbl.AddRow(rxRow...)
		snrTbl.AddRow(snrRow...)
	}
	return &Result{ID: "6", Title: Title("6"), Tables: []*stats.Table{snrTbl, rxTbl},
		Notes: []string{
			"rxPower peaks as the walker passes each landmark (50 dB dynamic range)",
			"SNR saturates at the 25 dB decode span near landmarks — the paper's reason to localize on rxPower",
		}}
}

// fig8 declares one trial per data-plane variant; each measures goodput
// through its own GW-U chain.
func fig8() Experiment {
	type variant struct {
		name  string
		costs sdn.PathCosts
	}
	variants := []variant{
		{"OpenEPC", sdn.OpenEPCGWCosts},
		{"ACACIA", sdn.ACACIAGWCosts},
		{"IDEAL", sdn.IdealGWCosts},
	}
	return Experiment{
		ID:    "8",
		Title: "GW-U data plane throughput (Fig. 8)",
		Trials: func(opts Options) []Trial {
			dur := 5 * time.Second
			if opts.Full {
				dur = 20 * time.Second
			}
			return sweep(variants, func(v variant) string { return "variant=" + v.name }, func(seed uint64, v variant) any {
				series, snap := measureGWThroughput(seed, v.costs, dur)
				return Metered{Part: series, Snap: snap}
			})
		},
		Assemble: func(_ Options, parts []any) *Result {
			series := make([][]float64, len(parts))
			for i, p := range parts {
				series[i] = p.([]float64)
			}
			tbl := stats.NewTable("Data plane goodput (Mbps) over time", "time (s)", "OpenEPC", "ACACIA", "IDEAL")
			for i := range series[0] {
				tbl.AddRow(i+1, series[0][i], series[1][i], series[2][i])
			}
			avg := stats.NewTable("Average goodput (Mbps)", "variant", "Mbps")
			for vi, v := range variants {
				var sum float64
				for _, x := range series[vi] {
					sum += x
				}
				avg.AddRow(v.name, sum/float64(len(series[vi])))
			}
			return &Result{ID: "8", Title: Title("8"), Tables: []*stats.Table{tbl, avg},
				Notes: []string{"paper: the user-space OpenEPC GW caps well below the split ACACIA GW-U, which tracks the ideal line"}}
		},
	}
}

// gwChain is the GW-U throughput harness of Fig. 8 and ablation-fastpath:
// src -> SGW-U -> PGW-U -> dst over 1 Gbps links, one GTP tunnel per hop.
// Segments come from the network's packet pool and the sink releases each
// one after counting it, so a run at line rate recycles a small working set
// of packets instead of allocating one per segment.
type gwChain struct {
	eng      *sim.Engine
	nw       *netsim.Network
	src, sgw *netsim.Node
	flow     pkt.FiveTuple
	// bytes counts payload bytes delivered to the sink; the drive loop
	// resets it per bucket.
	bytes uint64
}

// gwSegment is the harness's TCP segment size in bytes.
const gwSegment = 1400

// newGWChain builds the chain with the given switch costs, installs the
// tunnel flows and runs until they have landed.
func newGWChain(seed uint64, costs sdn.PathCosts) *gwChain {
	eng := sim.NewEngine(seed)
	nw := netsim.New(eng)
	srcN := nw.AddNode("src", pkt.AddrFrom(10, 0, 0, 1))
	sgwN := nw.AddNode("sgw-u", pkt.AddrFrom(10, 0, 0, 2))
	pgwN := nw.AddNode("pgw-u", pkt.AddrFrom(10, 0, 0, 3))
	dstN := nw.AddNode("dst", pkt.AddrFrom(10, 0, 0, 4))
	cfg := netsim.LinkConfig{BitsPerSecond: 1e9, Propagation: 100 * time.Microsecond, QueueBytes: 512 << 10}
	nw.ConnectSymmetric(srcN, sgwN, cfg)
	nw.ConnectSymmetric(sgwN, pgwN, cfg)
	nw.ConnectSymmetric(pgwN, dstN, cfg)

	sgw := sdn.NewSwitch(1, sgwN, costs)
	pgw := sdn.NewSwitch(2, pgwN, costs)
	sgw.MarkGTPPort(0)
	sgw.MarkGTPPort(1)
	pgw.MarkGTPPort(0)
	controller := sdn.NewController(eng)
	controller.AddSwitch(sgw)
	controller.AddSwitch(pgw)
	controller.EnableTransport(ctl.NewTransport(eng), nw.AddNode("sdn-ctl", pkt.AddrFrom(10, 255, 0, 10)))
	controller.InstallFlow(sgw, sdn.FlowEntry{
		Priority: 100, Cookie: 1,
		Match: pkt.Match{TunnelID: pkt.U64(101)},
		Actions: []pkt.Action{
			{Type: pkt.ActionSetTunnel, TunnelID: 201, TunnelDst: pgwN.Addr()},
			{Type: pkt.ActionOutput, Port: 1},
		},
	})
	controller.InstallFlow(pgw, sdn.FlowEntry{
		Priority: 100, Cookie: 1,
		Match:   pkt.Match{TunnelID: pkt.U64(201)},
		Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 1}},
	})
	eng.RunFor(time.Millisecond)

	c := &gwChain{
		eng: eng, nw: nw, src: srcN, sgw: sgwN,
		flow: pkt.FiveTuple{Src: srcN.Addr(), Dst: dstN.Addr(), SrcPort: 1, DstPort: 5000, Proto: pkt.ProtoTCP},
	}
	dst := netsim.NewHost(dstN)
	netsim.NewHost(srcN)
	dst.Listen(5000, netsim.AppFunc(func(_ *netsim.Host, p *netsim.Packet) {
		c.bytes += uint64(p.Size)
		nw.Release(p)
	}))
	return c
}

// send injects one tunneled segment at the source.
func (c *gwChain) send() {
	p := c.nw.NewPacket()
	p.Flow = c.flow
	p.Size = gwSegment
	p.Encapsulate(c.src.Addr(), c.sgw.Addr(), 101)
	c.src.Inject(p)
}

// measureGWThroughput saturates the GW-U chain for dur and returns
// per-second goodput plus a final snapshot of the chain's telemetry
// registry (link and switch counters for the whole run).
func measureGWThroughput(seed uint64, costs sdn.PathCosts, dur time.Duration) ([]float64, *telemetry.Snapshot) {
	c := newGWChain(seed, costs)
	interval := time.Duration(float64(gwSegment*8) / 1e9 * float64(time.Second))
	tick := sim.NewTicker(c.eng, interval, c.send)

	seconds := int(dur / time.Second)
	out := make([]float64, 0, seconds)
	for s := 0; s < seconds; s++ {
		c.bytes = 0
		c.eng.RunFor(time.Second)
		out = append(out, float64(c.bytes*8)/1e6)
	}
	tick.Stop()
	return out, c.eng.Metrics().Snapshot()
}

// fig9 evaluates localization error across landmark-subset sizes. It
// declares one trial per (landmark count, combination batch): every trial
// rebuilds the same measurement campaign from a shared sub-seed (so all
// subsets are scored on identical readings, as in the paper), scores its
// batch of landmark combinations, and returns a partial stats.Sample that
// Assemble merges per landmark count.
func fig9() Experiment {
	const (
		id        = "9"
		batchSize = 12 // combinations per trial: C(7,3)=35 → 3 batches
		minK      = 3
	)
	return Experiment{
		ID:    id,
		Title: "LTE-direct localization accuracy vs landmark count (Fig. 9)",
		Trials: func(opts Options) []Trial {
			campaignSeed := subSeed(opts.BaseSeed(), id, "campaign")
			floor := geo.RetailFloor()
			var trials []Trial
			for k := minK; k <= len(floor.Landmarks); k++ {
				combos := localization.Combinations(len(floor.Landmarks), k)
				for lo := 0; lo < len(combos); lo += batchSize {
					hi := min(lo+batchSize, len(combos))
					trials = append(trials, Trial{
						Key: fmt.Sprintf("k=%d/combos=%d-%d", k, lo, hi-1),
						Run: func(uint64) any { return fig9Batch(campaignSeed, k, lo, hi) },
					})
				}
			}
			return trials
		},
		Assemble: func(opts Options, parts []any) *Result {
			floor := geo.RetailFloor()
			// Re-derive the (k, batch) layout and merge each k's partials.
			perK := map[int]*stats.Sample{}
			i := 0
			for k := minK; k <= len(floor.Landmarks); k++ {
				combos := localization.Combinations(len(floor.Landmarks), k)
				merged := &stats.Sample{}
				for lo := 0; lo < len(combos); lo += batchSize {
					merged.Merge(parts[i].(*stats.Sample))
					i++
				}
				perK[k] = merged
			}
			tbl := stats.NewTable("Localization error (m) vs number of landmarks",
				"landmarks", "best", "mean", "worst")
			for k := minK; k <= len(floor.Landmarks); k++ {
				s := perK[k]
				tbl.AddRow(k, s.Min(), s.Mean(), s.Max())
			}
			return &Result{ID: id, Title: Title(id), Tables: []*stats.Table{tbl},
				Notes: []string{
					"paper: accuracy improves with landmark count; best/worst gap shrinks as placement matters less",
					"with all 7 landmarks the mean error is ≈3 m — sufficient for subsection-level pruning",
				}}
		},
	}
}

// fig9Batch scores landmark combinations [lo, hi) of size k against the
// shared campaign and returns one mean-error observation per combination.
func fig9Batch(campaignSeed uint64, k, lo, hi int) *stats.Sample {
	floor := geo.RetailFloor()
	// Single rxPower samples per (checkpoint, landmark): the shadowed
	// channel's full error reaches the solver, as in the paper's traces.
	readings := trace.Campaign(floor, campaignSeed, 1)
	grouped := trace.ByCheckpoint(readings)
	fit := core.CalibrateFromChannel(d2d.DefaultPathLoss)
	combos := localization.Combinations(len(floor.Landmarks), k)

	comboErr := &stats.Sample{}
	for _, combo := range combos[lo:hi] {
		want := map[string]bool{}
		for _, idx := range combo {
			want[floor.Landmarks[idx].Name] = true
		}
		var errSum float64
		n := 0
		for _, cp := range floor.Checkpoints {
			var ms []localization.Measurement
			for _, r := range grouped[cp.Name] {
				if m, ok := core.LandmarkRange(floor, fit, r.Landmark, r.RxPower); ok && want[r.Landmark] {
					ms = append(ms, m)
				}
			}
			est, ok := core.EstimatePosition(floor, ms)
			if !ok {
				continue
			}
			errSum += est.Dist(cp.Pos)
			n++
		}
		if n > 0 {
			comboErr.Add(errSum / float64(n))
		}
	}
	return comboErr
}

// fig10a declares one trial per QCI: each re-provisions its own testbed's
// retail policy at that QCI and probes the CI server.
func fig10a() Experiment {
	qcis := []pkt.QCI{5, 6, 7, 8, 9}
	return Experiment{
		ID:    "10a",
		Title: "Dedicated-bearer RTT by QCI (Fig. 10(a))",
		Trials: func(opts Options) []Trial {
			probes := 100
			if opts.Full {
				probes = 300
			}
			return sweep(qcis, func(qci pkt.QCI) string { return fmt.Sprintf("qci=%d", qci) }, func(seed uint64, qci pkt.QCI) any {
				tb := core.NewTestbed(core.TestbedConfig{
					Seed:        seed,
					IdleTimeout: time.Hour,
					RadioJitter: time.Millisecond,
				})
				// Re-provision the retail policy with this QCI.
				tb.EPC.PCRF.AddRule(epc.PolicyRule{ServiceID: core.RetailPolicyID, QCI: qci, Precedence: 10})
				b := tb.UEs[0]
				tb.MoveUE(b, retailSpot)
				must(tb.Attach(b))
				must(tb.StartRetailApp(b, "electronics"))
				tb.Run(5 * time.Second)
				b.Frontend.Stop()
				tb.Run(time.Second)
				pg := netsim.NewPinger(&b.UE.Host, tb.CIServer.Node.Addr(), 64, 7500)
				for i := 0; i < probes; i++ {
					pg.SendOne()
					tb.Run(30 * time.Millisecond)
				}
				tb.Run(time.Second)
				return metered([]any{fmt.Sprintf("QCI %d", qci),
					pg.RTTs.Median(), pg.RTTs.Percentile(95), pg.RTTs.Percentile(99)}, tb.Eng)
			})
		},
		Assemble: func(_ Options, parts []any) *Result {
			tbl := stats.NewTable("UE to MEC server RTT (ms) by dedicated-bearer QCI",
				"QCI", "median", "p95", "p99")
			addRows(tbl, parts)
			return &Result{ID: "10a", Title: Title("10a"), Tables: []*stats.Table{tbl},
				Notes: []string{"paper: 95% of RTTs within 15 ms regardless of QCI on an unloaded edge; eNB-MEC leg ≈1.6 ms"}}
		},
	}
}

// fig10b declares one trial per background-load point, comparing latency
// isolation across the three architectures on that trial's testbed.
func fig10b() Experiment {
	return Experiment{
		ID:    "10b",
		Title: "Latency isolation under background load (Fig. 10(b))",
		Trials: func(opts Options) []Trial {
			loads := fig10bLoads(opts)
			return sweep(loads, func(load float64) string { return fmt.Sprintf("bg=%gMbps", load/1e6) }, func(seed uint64, load float64) any {
				conv, mec, acacia := measureIsolation(opts, seed, load)
				return []any{load / 1e6, conv, mec, acacia}
			})
		},
		Assemble: func(_ Options, parts []any) *Result {
			tbl := stats.NewTable("Latency (ms) vs background traffic by architecture",
				"bg (Mbps)", "Conventional EPC", "EPC with MEC", "ACACIA")
			addRows(tbl, parts)
			return &Result{ID: "10b", Title: Title("10b"), Tables: []*stats.Table{tbl},
				Notes: []string{
					"below saturation the MEC server's proximity dominates; past ≈90 Mbps the shared core's queue grows while ACACIA's isolated edge path stays flat",
				}}
		},
	}
}

func fig10bLoads(opts Options) []float64 {
	if opts.Full {
		return []float64{0, 10e6, 20e6, 30e6, 40e6, 50e6, 60e6, 70e6, 80e6, 90e6, 100e6}
	}
	return []float64{0, 20e6, 40e6, 60e6, 80e6, 90e6, 100e6}
}

func measureIsolation(opts Options, seed uint64, bgBps float64) (conv, mec, acacia float64) {
	tb := core.NewTestbed(core.TestbedConfig{
		Seed:        seed,
		IdleTimeout: time.Hour,
		RadioJitter: 1,
	})
	b := tb.UEs[0]
	tb.MoveUE(b, retailSpot)
	must(tb.Attach(b))
	must(tb.StartRetailApp(b, "electronics"))
	tb.Run(4 * time.Second)
	b.Frontend.Stop()
	tb.Run(500 * time.Millisecond)

	// AR-like load on the default bearer (it is what competes with the
	// background in the conventional/MEC cases).
	ar := netsim.NewCBRSource(&b.UE.Host, tb.CentralMEC.Node.Addr(), 7300, 1250)
	ar.Start(12e6)
	bg := netsim.NewCBRSource(tb.BGSource, tb.BGSink.Node.Addr(), 9000, 1250)
	bg.Start(bgBps)

	dur := 12 * time.Second
	if opts.Full {
		dur = 25 * time.Second
	}
	pgConv := netsim.NewPinger(&b.UE.Host, tb.CloudHosts["california"].Node.Addr(), 200, 7601)
	pgMEC := netsim.NewPinger(&b.UE.Host, tb.CentralMEC.Node.Addr(), 200, 7602)
	pgEdge := netsim.NewPinger(&b.UE.Host, tb.CIServer.Node.Addr(), 200, 7603)
	tb.Run(dur / 3)
	pgConv.Start(250 * time.Millisecond)
	pgMEC.Start(250 * time.Millisecond)
	pgEdge.Start(250 * time.Millisecond)
	tb.Run(dur * 2 / 3)
	pgConv.Stop()
	pgMEC.Stop()
	pgEdge.Stop()
	ar.Stop()
	bg.Stop()
	tb.Run(3 * time.Second)
	return pgConv.RTTs.Percentile(75), pgMEC.RTTs.Percentile(75), pgEdge.RTTs.Percentile(75)
}
