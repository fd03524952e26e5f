package experiments

import (
	"fmt"
	"time"

	"acacia/internal/compute"
	"acacia/internal/core"
	"acacia/internal/epc"
	"acacia/internal/media"
	"acacia/internal/netsim"
	"acacia/internal/stats"
	"acacia/internal/telemetry"
)

// ec2Regions is the paper's measurement order (closest first).
var ec2Regions = []string{"california", "oregon", "virginia"}

func init() {
	registerSolo("3a", "SURF detect+describe runtime vs resolution and device (Fig. 3(a))", fig3a)
	registerSolo("3b", "Object matching runtime vs resolution and device (Fig. 3(b))", fig3b)
	register(fig3c())
	register(fig3d())
	registerSolo("3e", "Camera preview FPS vs resolution (Fig. 3(e))", fig3e)
	registerSolo("3f", "Upload FPS vs uplink capacity and compression (Fig. 3(f))", fig3f)
	register(fig3g())
	registerSolo("3h", "Matching runtime vs database size (Fig. 3(h))", fig3h)
	registerSolo("overhead", "Bearer release/re-establish control overhead (§4)", overheadTable)
}

func fig3a(opts Options, seed uint64) *Result {
	devices := []compute.Device{compute.OnePlusOne, compute.I7x1, compute.I7x8, compute.GPU}
	tbl := stats.NewTable("SURF runtime (sec) by resolution (avg features)", "resolution", "features", "One+", "i7(1)", "i7(8)", "GPU")
	for _, res := range compute.EvalResolutions {
		row := []any{res.String(), res.Features()}
		for _, d := range devices {
			row = append(row, d.SURFTime(res.Pixels()).Seconds())
		}
		tbl.AddRow(row...)
	}
	speed := stats.NewTable("Average speedup over the phone", "device", "speedup", "paper")
	for i, want := range []float64{36, 182, 1087} {
		d := devices[i+1]
		speed.AddRow(d.Name, compute.OnePlusOne.SURFTime(1e6).Seconds()/d.SURFTime(1e6).Seconds(), want)
	}
	return &Result{ID: "3a", Title: Title("3a"), Tables: []*stats.Table{tbl, speed},
		Notes: []string{"anchored at the paper's 2 s phone runtime for 320x240; speedups match by calibration"}}
}

func fig3b(opts Options, seed uint64) *Result {
	devices := []compute.Device{compute.OnePlusOne, compute.I7x1, compute.I7x8, compute.GPU}
	tbl := stats.NewTable("Brute-force match runtime vs one object (sec)", "resolution", "One+", "i7(1)", "i7(8)", "GPU")
	for _, res := range compute.EvalResolutions {
		row := []any{res.String()}
		for _, d := range devices {
			row = append(row, d.MatchTime(core.MatchMACs(res.Features(), 1000, 1)).Seconds())
		}
		tbl.AddRow(row...)
	}
	speed := stats.NewTable("Average speedup over the phone", "device", "speedup", "paper")
	for i, want := range []float64{223, 852, 3284} {
		d := devices[i+1]
		speed.AddRow(d.Name, compute.OnePlusOne.MatchTime(1e9).Seconds()/d.MatchTime(1e9).Seconds(), want)
	}
	return &Result{ID: "3b", Title: Title("3b"), Tables: []*stats.Table{tbl, speed}}
}

// fig3c declares one trial per EC2 region: each builds its own testbed and
// pings that region's host over the simulated LTE+WAN path.
func fig3c() Experiment {
	return Experiment{
		ID:    "3c",
		Title: "LTE RTT to EC2 regions (Fig. 3(c))",
		Trials: func(opts Options) []Trial {
			probes := 100
			if opts.Full {
				probes = 400
			}
			return sweep(ec2Regions, func(region string) string { return "region=" + region }, func(seed uint64, region string) any {
				tb := core.NewTestbed(core.TestbedConfig{
					Seed:        seed,
					IdleTimeout: time.Hour,
					RadioJitter: 3 * time.Millisecond, // commercial-network scheduling spread
				})
				b := tb.UEs[0]
				must(tb.Attach(b))
				host := tb.CloudHosts[region]
				pg := netsim.NewPinger(&b.UE.Host, host.Node.Addr(), 64, uint16(7100))
				for i := 0; i < probes; i++ {
					pg.SendOne()
					tb.Run(50 * time.Millisecond)
				}
				tb.Run(time.Second)
				pg.Stop()
				return metered([]any{region,
					pg.RTTs.Percentile(10), pg.RTTs.Percentile(25), pg.RTTs.Median(),
					pg.RTTs.Percentile(75), pg.RTTs.Percentile(90), pg.RTTs.Percentile(95)}, tb.Eng)
			})
		},
		Assemble: func(_ Options, parts []any) *Result {
			tbl := stats.NewTable("RTT (ms) from UE to EC2 regions over LTE",
				"region", "p10", "p25", "median", "p75", "p90", "p95")
			addRows(tbl, parts)
			return &Result{ID: "3c", Title: Title("3c"), Tables: []*stats.Table{tbl},
				Notes: []string{"paper: California shortest at ≈70 ms median; ordering CA < OR < VA reproduced"}}
		},
	}
}

// fig3d declares one trial per (signal quality, region) cell: each builds a
// testbed with that uplink capacity and runs a greedy flow to the region.
func fig3d() Experiment {
	type signal struct {
		name string
		bps  float64
	}
	signals := []signal{{"excellent", 12e6}, {"fair", 5.5e6}}
	return Experiment{
		ID:    "3d",
		Title: "LTE uplink bandwidth by signal quality (Fig. 3(d))",
		Trials: func(opts Options) []Trial {
			dur := 8 * time.Second
			if opts.Full {
				dur = 20 * time.Second
			}
			return grid(signals, ec2Regions, func(sig signal, region string) string {
				return fmt.Sprintf("signal=%s/region=%s", sig.name, region)
			}, func(seed uint64, sig signal, region string) any {
				tb := core.NewTestbed(core.TestbedConfig{
					Seed:        seed,
					IdleTimeout: time.Hour,
					RadioULBps:  sig.bps,
				})
				b := tb.UEs[0]
				must(tb.Attach(b))
				host := tb.CloudHosts[region]
				sink := netsim.NewGreedyReceiver(host, 7200)
				g := netsim.NewGreedyFlow(&b.UE.Host, host.Node.Addr(), 7200, 47000, 1400)
				g.Start()
				tb.Run(dur)
				g.Stop()
				tb.Run(500 * time.Millisecond)
				return metered(sink.ThroughputBps()/1e6, tb.Eng)
			})
		},
		Assemble: func(_ Options, parts []any) *Result {
			tbl := stats.NewTable("Uplink bandwidth (Mbps) to EC2 regions by signal quality",
				"region", "excellent (4/4 bars)", "fair (2/4 bars)")
			// parts is signals-major: excellent regions first, then fair.
			for ri, region := range ec2Regions {
				tbl.AddRow(region, parts[ri].(float64), parts[len(ec2Regions)+ri].(float64))
			}
			return &Result{ID: "3d", Title: Title("3d"), Tables: []*stats.Table{tbl},
				Notes: []string{"paper: ≈12 Mbps best case to California, lower on weak signal"}}
		},
	}
}

func fig3e(opts Options, seed uint64) *Result {
	tbl := stats.NewTable("Camera preview FPS by resolution (One+ One)", "resolution", "fps")
	for _, res := range []compute.Resolution{
		{W: 320, H: 240}, {W: 640, H: 480}, {W: 720, H: 480},
		{W: 1280, H: 720}, {W: 1280, H: 960}, {W: 1440, H: 1080}, {W: 1920, H: 1080},
	} {
		tbl.AddRow(res.String(), media.PreviewFPS(res))
	}
	return &Result{ID: "3e", Title: Title("3e"), Tables: []*stats.Table{tbl}}
}

func fig3f(opts Options, seed uint64) *Result {
	hd := compute.Resolution{W: 1920, H: 1080}
	tbl := stats.NewTable("Achievable upload FPS at HD grayscale by encoding",
		"encoding", "5.5 Mbps", "10 Mbps", "12 Mbps")
	for _, enc := range media.Fig3fEncodings() {
		tbl.AddRow(enc.Name,
			enc.UploadFPS(hd, 5.5e6), enc.UploadFPS(hd, 10e6), enc.UploadFPS(hd, 12e6))
	}
	return &Result{ID: "3f", Title: Title("3f"), Tables: []*stats.Table{tbl},
		Notes: []string{"paper: raw grayscale cannot reach 1 FPS even at 12 Mbps; JPEG 90 reaches ≈8 FPS"}}
}

// fig3g declares one trial per (base RTT, background load) grid cell; each
// runs an AR-like flow plus background CBR through its own shared core.
func fig3g() Experiment {
	type rttConfig struct {
		label     string
		coreDelay time.Duration
	}
	rttConfigs := []rttConfig{
		{"8 ms", 0},
		{"18 ms", 5 * time.Millisecond},
		{"70 ms", 31 * time.Millisecond},
	}
	return Experiment{
		ID:    "3g",
		Title: "Network latency vs competing background traffic (Fig. 3(g))",
		Trials: func(opts Options) []Trial {
			loads := fig3gLoads(opts)
			return grid(rttConfigs, loads, func(rc rttConfig, load float64) string {
				return fmt.Sprintf("rtt=%s/bg=%gMbps", rc.label, load/1e6)
			}, func(seed uint64, rc rttConfig, load float64) any {
				return measureSharedCoreLatency(opts, seed, rc.coreDelay, load)
			})
		},
		Assemble: func(opts Options, parts []any) *Result {
			loads := fig3gLoads(opts)
			tbl := stats.NewTable("Network latency (ms) vs background traffic through one S/P-GW",
				"bg (Mbps)", "RTT 8 ms", "RTT 18 ms", "RTT 70 ms")
			// parts is rttConfigs-major; transpose into one row per load.
			for li, load := range loads {
				row := []any{load / 1e6}
				for ci := range rttConfigs {
					row = append(row, parts[ci*len(loads)+li].(float64))
				}
				tbl.AddRow(row...)
			}
			return &Result{ID: "3g", Title: Title("3g"), Tables: []*stats.Table{tbl},
				Notes: []string{
					"AR flow (≈12 Mbps) shares the 100 Mbps core with the background; saturation near 90 Mbps blows latency up to seconds",
					"paper: ≈800 ms at 90 Mbps background; location of the server dominates below saturation",
				}}
		},
	}
}

func fig3gLoads(opts Options) []float64 {
	if opts.Full {
		return []float64{0, 10e6, 20e6, 30e6, 40e6, 50e6, 60e6, 70e6, 80e6, 90e6, 100e6}
	}
	return []float64{0, 20e6, 40e6, 60e6, 80e6, 90e6, 100e6}
}

// measureSharedCoreLatency runs an AR-like 5 Mbps flow plus background CBR
// through the shared core and reports the mean probe RTT over the final
// portion of the run.
func measureSharedCoreLatency(opts Options, seed uint64, coreDelay time.Duration, bgBps float64) float64 {
	tb := core.NewTestbed(core.TestbedConfig{
		Seed:        seed,
		IdleTimeout: time.Hour,
		RadioDelay:  time.Millisecond,
		RadioJitter: 1, // effectively zero but non-default
		CoreDelay:   time.Millisecond + coreDelay,
	})
	b := tb.UEs[0]
	must(tb.Attach(b))
	dst := tb.CentralMEC.Node.Addr()
	// AR-like stream on the default bearer (≈12 Mbps of frames, the
	// paper's HD upload regime): with 90 Mbps of background the shared
	// 100 Mbps core saturates.
	ar := netsim.NewCBRSource(&b.UE.Host, dst, 7300, 1250)
	ar.Start(12e6)
	bg := netsim.NewCBRSource(tb.BGSource, tb.BGSink.Node.Addr(), 9000, 1250)
	bg.Start(bgBps)

	dur := 12 * time.Second
	if opts.Full {
		dur = 25 * time.Second
	}
	pg := netsim.NewPinger(&b.UE.Host, dst, 200, 7301)
	// Warm up, then probe during the final two-thirds.
	tb.Run(dur / 3)
	pg.Start(200 * time.Millisecond)
	tb.Run(dur * 2 / 3)
	pg.Stop()
	ar.Stop()
	bg.Stop()
	tb.Run(3 * time.Second)
	if pg.RTTs.N() == 0 {
		return -1
	}
	// The latest quartile reflects the (quasi) steady state of the queue.
	return pg.RTTs.Percentile(75)
}

func fig3h(opts Options, seed uint64) *Result {
	dbSizes := []int{1, 5, 10, 25, 50}
	tbl := stats.NewTable("Match runtime (sec) vs database size on i7 (8 cores)",
		"resolution", "1 obj", "5", "10", "25", "50")
	for _, res := range compute.EvalResolutions {
		row := []any{res.String()}
		for _, n := range dbSizes {
			row = append(row, compute.I7x8.MatchTime(core.MatchMACs(res.Features(), 1000, n)).Seconds())
		}
		tbl.AddRow(row...)
	}
	return &Result{ID: "3h", Title: Title("3h"), Tables: []*stats.Table{tbl},
		Notes: []string{"runtime grows linearly with database size: the pruning motivation"}}
}

// overheadTable reproduces the §4 control-overhead analysis from a measured
// release/re-establish cycle. The table rows are read from the telemetry
// registry's delta snapshot over the cycle, which also becomes the result's
// Metrics (so `acacia-sim -fig overhead -metrics` prints the same totals).
func overheadTable(opts Options, seed uint64) *Result {
	msgs, bytes, delta := measureCycle(seed)
	tbl := stats.NewTable("Control messages per bearer release + re-establish cycle",
		"protocol", "messages", "bytes", "paper msgs", "paper bytes")
	tbl.AddRow("SCTP/S1AP", msgs[epc.ProtoS1AP], bytes[epc.ProtoS1AP], 7, 1138)
	tbl.AddRow("GTPv2", msgs[epc.ProtoGTPv2], bytes[epc.ProtoGTPv2], 4, 352)
	tbl.AddRow("OpenFlow", msgs[epc.ProtoOpenFlow], bytes[epc.ProtoOpenFlow], 4, 1424)
	total := msgs[epc.ProtoS1AP] + msgs[epc.ProtoGTPv2] + msgs[epc.ProtoOpenFlow]
	totalBytes := bytes[epc.ProtoS1AP] + bytes[epc.ProtoGTPv2] + bytes[epc.ProtoOpenFlow]
	tbl.AddRow("total", total, totalBytes, 15, 2914)

	daily := stats.NewTable("Projected control traffic per device per day",
		"scenario", "cycles/day", "MB/day", "paper MB/day")
	perCycle := float64(totalBytes)
	daily.AddRow("app-driven bearer creation", 929, perCycle*929/1e6, 2.58)
	daily.AddRow("every radio promotion (upper bound)", 7200, perCycle*7200/1e6, 20.0)
	return &Result{ID: "overhead", Title: Title("overhead"), Tables: []*stats.Table{tbl, daily},
		Metrics: delta,
		Notes: []string{
			"message counts match the paper exactly (7 S1AP, 4 GTPv2, 4 OpenFlow)",
			"byte totals are smaller: these encodings omit ASN.1 PER padding, optional IEs and SCTP SACKs present in the testbed capture",
		}}
}

// measureCycle builds a testbed, runs one idle/promotion cycle and returns
// per-protocol message/byte counts (OpenFlow folded in from the SDN
// controller) plus the telemetry-registry delta over the cycle the counts
// were read from.
func measureCycle(seed uint64) (msgs, bytes map[epc.Protocol]uint64, delta *telemetry.Snapshot) {
	tb := core.NewTestbed(core.TestbedConfig{
		Seed:        seed,
		IdleTimeout: 3 * time.Second,
	})
	b := tb.UEs[0]
	tb.MoveUE(b, retailSpot)
	must(tb.Attach(b))
	must(tb.StartRetailApp(b, "electronics"))
	tb.Run(2500 * time.Millisecond)
	// Quiesce the UE so the session can idle out while keeping both
	// bearers: stop the frame pipeline and walk out of LTE-direct range so
	// discovery stops producing localization reports.
	b.Frontend.Stop()
	b.D2D.SetPos(geoPoint(5000, 5000))
	tb.Run(100 * time.Millisecond)

	regBefore := tb.Eng.Metrics().Snapshot()
	tb.Run(8 * time.Second) // idle release fires
	// Uplink data promotes the session.
	pg := netsim.NewPinger(&b.UE.Host, tb.CloudHosts["california"].Node.Addr(), 64, 7400)
	pg.SendOne()
	tb.Run(3 * time.Second)

	// The per-protocol counts come from the unified registry delta over the
	// cycle: the epc layer mirrors its accounting into epc/<proto>/msgs|bytes
	// and the SDN controller registers sdn/controller/sent|sent-bytes.
	delta = tb.Eng.Metrics().Snapshot().Delta(regBefore)
	msgs = map[epc.Protocol]uint64{
		epc.ProtoS1AP:     delta.CounterValue("epc/s1ap/msgs"),
		epc.ProtoGTPv2:    delta.CounterValue("epc/gtpv2/msgs"),
		epc.ProtoOpenFlow: delta.CounterValue("sdn/controller/sent"),
	}
	bytes = map[epc.Protocol]uint64{
		epc.ProtoS1AP:     delta.CounterValue("epc/s1ap/bytes"),
		epc.ProtoGTPv2:    delta.CounterValue("epc/gtpv2/bytes"),
		epc.ProtoOpenFlow: delta.CounterValue("sdn/controller/sent-bytes"),
	}
	return msgs, bytes, delta
}

// retailSpot is the default user position (electronics section).
var retailSpot = geoPoint(21, 15)
