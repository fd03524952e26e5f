package experiments

import (
	"fmt"
	"time"

	"acacia/internal/compute"
	"acacia/internal/core"
	"acacia/internal/d2d"
	"acacia/internal/geo"
	"acacia/internal/media"
	"acacia/internal/sim"
	"acacia/internal/stats"
	"acacia/internal/trace"
)

func init() {
	registerSolo("compression", "AR front-end compression time and ratio (§7.3)", compressionTable)
	register(fig11a())
	register(fig11b())
	register(fig12())
	register(fig13())
}

func compressionTable(opts Options, seed uint64) *Result {
	tbl := stats.NewTable("JPEG 90 grayscale compression on the One+ One",
		"resolution", "encode (ms)", "ratio", "paper ms", "paper ratio")
	for _, c := range media.AppCompressionTable() {
		modeled := compute.OnePlusOne.JPEGTime(c.Resolution.Pixels()).Seconds() * 1000
		tbl.AddRow(c.Resolution.String(), modeled, c.Ratio, c.EncodeMS, c.Ratio)
	}
	// Demonstrate the real codec on a synthetic frame: ratio and fidelity
	// per quality setting.
	codec := stats.NewTable("Block-DCT codec on a synthetic 512x384 frame",
		"quality", "bytes", "ratio", "PSNR (dB)")
	frame := media.SyntheticFrame(512, 384, seed)
	raw := float64(len(frame.Pix))
	for _, q := range []int{50, 80, 90, 100} {
		data, err := media.Compress(frame, q)
		if err != nil {
			panic(err)
		}
		dec, err := media.Decompress(data)
		if err != nil {
			panic(err)
		}
		psnr, _ := media.PSNR(frame, dec)
		codec.AddRow(q, len(data), raw/float64(len(data)), psnr)
	}
	return &Result{ID: "compression", Title: Title("compression"), Tables: []*stats.Table{tbl, codec}}
}

// searchSpace is one checkpoint's search under each of the three schemes,
// indexed by core.Scheme: the candidate object count, and whether the true
// object's subsection is covered (accuracy).
type searchSpace struct {
	candidates [3]int
	covered    [3]bool
}

// searchSpacesSeed derives the campaign seed behind buildSearchSpaces. It
// deliberately ignores the experiment id: Figs. 11(a), 11(b) and 12 all
// evaluate the same measured search spaces, as in the paper.
func searchSpacesSeed(opts Options) uint64 { return subSeed(opts.BaseSeed(), "search-spaces") }

// buildSearchSpaces runs the AR back-end's search rules (core.SearchSpace,
// core.CandidateCount, core.Covers) offline over the campaign readings at
// every checkpoint: ACACIA from the trilaterated position, rxPower from the
// two strongest landmarks. It is a pure function of the seed, so
// concurrent trials rebuild identical spaces.
func buildSearchSpaces(campaignSeed uint64) []searchSpace {
	floor := geo.RetailFloor()
	readings := trace.Campaign(floor, campaignSeed, 5)
	grouped := trace.ByCheckpoint(readings)
	fit := core.CalibrateFromChannel(d2d.DefaultPathLoss)

	out := make([]searchSpace, 0, len(floor.Checkpoints))
	for _, cp := range floor.Checkpoints {
		rs := grouped[cp.Name]
		// rxPower's input: the landmarks of the two strongest readings.
		best, second := "", ""
		bestRx, secondRx := -1e9, -1e9
		for _, r := range rs {
			if r.RxPower > bestRx {
				second, secondRx = best, bestRx
				best, bestRx = r.Landmark, r.RxPower
			} else if r.RxPower > secondRx {
				second, secondRx = r.Landmark, r.RxPower
			}
		}
		est, hasEst := core.EstimatePosition(floor, checkpointMeasurements(floor, rs, fit))
		var ss searchSpace
		for _, scheme := range fig11Schemes {
			cells := core.SearchSpace(floor, scheme, est, hasEst, []string{best, second})
			ss.candidates[scheme] = core.CandidateCount(floor, cells)
			ss.covered[scheme] = core.Covers(floor, cells, cp.Pos)
		}
		out = append(out, ss)
	}
	return out
}

var fig11Schemes = []core.Scheme{core.SchemeACACIA, core.SchemeRxPower, core.SchemeNaive}

// matchTimesMS returns per-checkpoint match times for a scheme on a device
// at a resolution, derived from the candidate counts.
func matchTimesMS(spaces []searchSpace, scheme core.Scheme, dev compute.Device, res compute.Resolution) []float64 {
	out := make([]float64, 0, len(spaces))
	for _, ss := range spaces {
		macs := core.MatchMACs(res.Features(), core.DBObjectFeatures, ss.candidates[scheme])
		out = append(out, dev.MatchTime(macs).Seconds()*1000)
	}
	return out
}

// fig11a declares one trial per (resolution, machine) timing cell plus an
// accuracy trial; every trial rebuilds the shared search spaces from the
// same sub-seed.
func fig11a() Experiment {
	devices := []compute.Device{compute.I7x8, compute.Xeon32}
	return Experiment{
		ID:    "11a",
		Title: "Match runtime by search-space scheme (Fig. 11(a))",
		Trials: func(opts Options) []Trial {
			campaign := searchSpacesSeed(opts)
			trials := grid(compute.AppResolutions, devices, func(res compute.Resolution, dev compute.Device) string {
				return fmt.Sprintf("res=%s/dev=%s", res, dev.Name)
			}, func(_ uint64, res compute.Resolution, dev compute.Device) any {
				spaces := buildSearchSpaces(campaign)
				var means [3]float64
				for i, scheme := range fig11Schemes {
					var s stats.Sample
					s.AddAll(matchTimesMS(spaces, scheme, dev, res)...)
					means[i] = s.Mean()
				}
				return []any{fmt.Sprintf("%s (%s)", dev.Name, res),
					means[0], means[1], means[2], stats.Ratio(means[2], means[0])}
			})
			trials = append(trials, Trial{
				Key: "accuracy",
				Run: func(uint64) any {
					spaces := buildSearchSpaces(campaign)
					var rows [][]any
					for _, scheme := range fig11Schemes {
						covered := 0
						for _, ss := range spaces {
							if ss.covered[scheme] {
								covered++
							}
						}
						rows = append(rows, []any{scheme.String(), covered, len(spaces) - covered})
					}
					return rows
				},
			})
			return trials
		},
		Assemble: func(_ Options, parts []any) *Result {
			tbl := stats.NewTable("Mean match time (ms) by scheme",
				"machine (resolution)", "ACACIA", "rxPower", "Naive", "speedup vs Naive")
			addRows(tbl, parts[:len(parts)-1])
			acc := stats.NewTable("Search accuracy across the 24 checkpoints",
				"scheme", "covered", "false negatives")
			for _, row := range parts[len(parts)-1].([][]any) {
				acc.AddRow(row...)
			}
			return &Result{ID: "11a", Title: Title("11a"), Tables: []*stats.Table{tbl, acc},
				Notes: []string{
					"paper: up to 5.02x mean reduction vs Naive and 1.93x vs rxPower",
					"paper: rxPower suffers one boundary false negative (C13); ACACIA and Naive find every object",
				}}
		},
	}
}

// fig11b declares one trial per (scheme, machine) distribution row at
// 960x720, over the shared search spaces.
func fig11b() Experiment {
	res := compute.Resolution{W: 960, H: 720}
	devices := []compute.Device{compute.Xeon32, compute.I7x8}
	return Experiment{
		ID:    "11b",
		Title: "Match runtime distribution at 960x720 (Fig. 11(b))",
		Trials: func(opts Options) []Trial {
			campaign := searchSpacesSeed(opts)
			return grid(fig11Schemes, devices, func(scheme core.Scheme, dev compute.Device) string {
				return fmt.Sprintf("scheme=%s/dev=%s", scheme, dev.Name)
			}, func(_ uint64, scheme core.Scheme, dev compute.Device) any {
				spaces := buildSearchSpaces(campaign)
				var s stats.Sample
				s.AddAll(matchTimesMS(spaces, scheme, dev, res)...)
				return []any{fmt.Sprintf("%s (%s)", scheme, dev.Name),
					s.Percentile(25), s.Median(), s.Percentile(75), s.Percentile(95), s.Max()}
			})
		},
		Assemble: func(_ Options, parts []any) *Result {
			tbl := stats.NewTable("Match runtime (ms) distribution at 960x720",
				"scheme (machine)", "p25", "median", "p75", "p95", "max")
			addRows(tbl, parts)
			return &Result{ID: "11b", Title: Title("11b"), Tables: []*stats.Table{tbl},
				Notes: []string{"paper: without location pruning some frames exceed 1 s on the i7"}}
		},
	}
}

// fig12 declares one trial per (machine, client count): each runs N
// concurrent closed-loop clients against its own processor-sharing server.
func fig12() Experiment {
	res := compute.Resolution{W: 960, H: 720}
	devices := []compute.Device{compute.Xeon32, compute.I7x8}
	clientCounts := []int{1, 2, 4, 8}
	return Experiment{
		ID:    "12",
		Title: "Match runtime vs number of clients (Fig. 12)",
		Trials: func(opts Options) []Trial {
			campaign := searchSpacesSeed(opts)
			return grid(devices, clientCounts, func(dev compute.Device, n int) string {
				return fmt.Sprintf("dev=%s/clients=%d", dev.Name, n)
			}, func(seed uint64, dev compute.Device, n int) any {
				spaces := buildSearchSpaces(campaign)
				row := make([]float64, 0, len(fig11Schemes))
				for _, scheme := range fig11Schemes {
					row = append(row, multiClientMatchMS(seed, spaces, scheme, dev, res, n))
				}
				return row
			})
		},
		Assemble: func(_ Options, parts []any) *Result {
			var tables []*stats.Table
			i := 0
			for _, dev := range devices {
				tbl := stats.NewTable(fmt.Sprintf("Match time (ms) vs clients on %s", dev.Name),
					"clients", "ACACIA", "rxPower", "Naive")
				for _, n := range clientCounts {
					vals := parts[i].([]float64)
					i++
					tbl.AddRow(n, vals[0], vals[1], vals[2])
				}
				tables = append(tables, tbl)
			}
			return &Result{ID: "12", Title: Title("12"), Tables: tables,
				Notes: []string{"paper: runtime roughly doubles with each doubling of concurrent clients (processor sharing)"}}
		},
	}
}

// multiClientMatchMS submits each client's closed-loop match jobs to one
// processor-sharing server and reports the mean per-job time.
func multiClientMatchMS(seed uint64, spaces []searchSpace, scheme core.Scheme, dev compute.Device, res compute.Resolution, clients int) float64 {
	eng := sim.NewEngine(seed)
	srv := compute.NewServer(eng, dev)
	var sample stats.Sample
	rounds := 6
	var submit func(client, round int)
	submit = func(client, round int) {
		if round >= rounds {
			return
		}
		ss := spaces[(client*7+round)%len(spaces)]
		macs := core.MatchMACs(res.Features(), core.DBObjectFeatures, ss.candidates[scheme])
		srv.Submit(&compute.Job{Work: macs, Done: func(elapsed time.Duration) {
			sample.Add(elapsed.Seconds() * 1000)
			submit(client, round+1)
		}})
	}
	for c := 0; c < clients; c++ {
		submit(c, 0)
	}
	eng.Run()
	return sample.Mean()
}

// fig13Means is one deployment's per-frame latency decomposition.
type fig13Means struct {
	match, compute, network, total float64
}

// fig13 declares one trial per deployment (ACACIA, MEC, CLOUD): each runs
// the full end-to-end pipeline on its own testbed.
func fig13() Experiment {
	type config struct {
		name   string
		scheme core.Scheme
		cloud  bool
	}
	configs := []config{
		{"ACACIA", core.SchemeACACIA, false},
		{"MEC", core.SchemeNaive, false},
		{"CLOUD", core.SchemeNaive, true},
	}
	return Experiment{
		ID:    "13",
		Title: "End-to-end latency decomposition (Fig. 13)",
		Trials: func(opts Options) []Trial {
			dur := 40 * time.Second
			if opts.Full {
				dur = 120 * time.Second
			}
			return sweep(configs, func(c config) string { return "deployment=" + c.name }, func(seed uint64, c config) any {
				tb := core.NewTestbed(core.TestbedConfig{
					Seed:        seed,
					IdleTimeout: time.Hour,
					Scheme:      c.scheme,
				})
				b := tb.UEs[0]
				tb.MoveUE(b, retailSpot)
				if err := tb.Attach(b); err != nil {
					panic(err)
				}
				if c.cloud {
					// CLOUD baseline: conventional EPC, AR server in the
					// cloud, default bearer, Naive search.
					b.Frontend.Start(tb.CloudHosts["california"].Node.Addr())
				} else if err := tb.StartRetailApp(b, "electronics"); err != nil {
					panic(err)
				}
				tb.Run(dur)
				st := &b.Frontend.Stats
				return metered(fig13Means{
					match:   st.Match.Mean(),
					compute: st.Compute.Mean(),
					network: st.Network.Mean(),
					total:   st.Total.Mean(),
				}, tb.Eng)
			})
		},
		Assemble: func(_ Options, parts []any) *Result {
			acacia := parts[0].(fig13Means)
			mec := parts[1].(fig13Means)
			cloud := parts[2].(fig13Means)
			tbl := stats.NewTable("End-to-end per-frame latency decomposition (ms) at 720x480",
				"component", "ACACIA", "MEC", "CLOUD")
			tbl.AddRow("Match", acacia.match, mec.match, cloud.match)
			tbl.AddRow("Compute", acacia.compute, mec.compute, cloud.compute)
			tbl.AddRow("Network", acacia.network, mec.network, cloud.network)
			tbl.AddRow("Total", acacia.total, mec.total, cloud.total)
			red := stats.NewTable("Total latency reductions", "comparison", "measured", "paper")
			red.AddRow("ACACIA vs CLOUD", fmt.Sprintf("%.0f%%", 100*(1-acacia.total/cloud.total)), "70%")
			red.AddRow("ACACIA vs MEC", fmt.Sprintf("%.0f%%", 100*(1-acacia.total/mec.total)), "60%")
			red.AddRow("MEC vs CLOUD", fmt.Sprintf("%.0f%%", 100*(1-mec.total/cloud.total)), "25%")
			red.AddRow("Match reduction (ACACIA)", fmt.Sprintf("%.1fx", mec.match/acacia.match), "7.7x")
			red.AddRow("Network reduction vs CLOUD", fmt.Sprintf("%.2fx", cloud.network/acacia.network), "3.15x")
			return &Result{ID: "13", Title: Title("13"), Tables: []*stats.Table{tbl, red}}
		},
	}
}
