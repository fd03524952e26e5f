package acacia

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one benchmark per experiment id; the rows/series print under
// -v via b.Logf) and micro-benchmarks the real computational kernels the
// simulation is built on: wire codecs, TFT classification, flow-table
// processing, descriptor matching, trilateration, and the DCT codec.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig13 -v     # include the regenerated tables

import (
	"fmt"
	"testing"
	"time"

	"acacia/internal/compute"
	"acacia/internal/fault"
	"acacia/internal/geo"
	"acacia/internal/localization"
	"acacia/internal/media"
	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sim"
	"acacia/internal/vision"
)

// benchExperiment runs one experiment per iteration and logs its tables.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := RunExperiment(id, ExperimentOptions{Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// benchRunAll sweeps every experiment per iteration at a given trial
// concurrency, so the sequential and parallel schedules can be compared.
func benchRunAll(b *testing.B, parallel int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		results, err := RunAllExperiments(ExperimentOptions{Seed: uint64(i) + 1, Parallel: parallel})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkRunAllSequential(b *testing.B) { benchRunAll(b, 1) }
func BenchmarkRunAllParallel(b *testing.B)   { benchRunAll(b, 0) }

// One benchmark per figure/table of the evaluation.

func BenchmarkFig3aSURFRuntime(b *testing.B)      { benchExperiment(b, "3a") }
func BenchmarkFig3bMatchRuntime(b *testing.B)     { benchExperiment(b, "3b") }
func BenchmarkFig3cLTERTT(b *testing.B)           { benchExperiment(b, "3c") }
func BenchmarkFig3dULBandwidth(b *testing.B)      { benchExperiment(b, "3d") }
func BenchmarkFig3ePreviewFPS(b *testing.B)       { benchExperiment(b, "3e") }
func BenchmarkFig3fUploadFPS(b *testing.B)        { benchExperiment(b, "3f") }
func BenchmarkFig3gCompetingTraffic(b *testing.B) { benchExperiment(b, "3g") }
func BenchmarkFig3hDBSize(b *testing.B)           { benchExperiment(b, "3h") }
func BenchmarkTableControlOverhead(b *testing.B)  { benchExperiment(b, "overhead") }
func BenchmarkFig6DiscoveryTrace(b *testing.B)    { benchExperiment(b, "6") }
func BenchmarkFig8DataPlane(b *testing.B)         { benchExperiment(b, "8") }
func BenchmarkFig9Localization(b *testing.B)      { benchExperiment(b, "9") }
func BenchmarkFig10aQCIRTT(b *testing.B)          { benchExperiment(b, "10a") }
func BenchmarkFig10bIsolation(b *testing.B)       { benchExperiment(b, "10b") }
func BenchmarkTableCompression(b *testing.B)      { benchExperiment(b, "compression") }
func BenchmarkFig11aSearchSpace(b *testing.B)     { benchExperiment(b, "11a") }
func BenchmarkFig11bMatchCDF(b *testing.B)        { benchExperiment(b, "11b") }
func BenchmarkFig12MultiClient(b *testing.B)      { benchExperiment(b, "12") }
func BenchmarkFig13EndToEnd(b *testing.B)         { benchExperiment(b, "13") }

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationFastPath(b *testing.B)       { benchExperiment(b, "ablation-fastpath") }
func BenchmarkAblationBearerStrategy(b *testing.B) { benchExperiment(b, "ablation-bearer") }
func BenchmarkAblationPipelineStages(b *testing.B) { benchExperiment(b, "ablation-stages") }
func BenchmarkAblationPruneRadius(b *testing.B)    { benchExperiment(b, "ablation-radius") }
func BenchmarkAblationTrilateration(b *testing.B)  { benchExperiment(b, "ablation-solver") }
func BenchmarkAblationQCIPriority(b *testing.B)    { benchExperiment(b, "ablation-qci") }
func BenchmarkAblationLSHIndex(b *testing.B)       { benchExperiment(b, "ablation-index") }

// --- micro-benchmarks of the real kernels ---

func BenchmarkGTPUEncapDecap(b *testing.B) {
	src, dst := pkt.AddrFrom(10, 0, 0, 1), pkt.AddrFrom(10, 0, 0, 2)
	inner := make([]byte, 1400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		outer := pkt.AppendGPDU(nil, src, dst, 0xbeef, len(inner))
		full := append(outer, inner...)
		if _, _, err := pkt.DecapsulateGPDU(full); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGTPv2CreateBearerRoundTrip(b *testing.B) {
	tft := pkt.DedicatedBearerTFT(pkt.AddrFrom(10, 3, 0, 10))
	msg := &pkt.GTPv2Msg{
		Type: pkt.GTPv2CreateBearerRequest, Seq: 7,
		Bearers: []pkt.BearerContext{{
			EBI: 6, TFT: &tft, QoS: &pkt.BearerQoS{QCI: 5, ARP: 2},
			FTEIDs: []pkt.FTEID{{IfaceType: pkt.FTEIDIfaceS1USGW, TEID: 1, Addr: pkt.AddrFrom(10, 3, 0, 1)}},
		}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := msg.Encode(nil)
		var out pkt.GTPv2Msg
		if _, err := out.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTFTClassification(b *testing.B) {
	tft := pkt.DedicatedBearerTFT(pkt.AddrFrom(10, 3, 0, 10))
	flows := make([]pkt.FiveTuple, 16)
	for i := range flows {
		flows[i] = pkt.FiveTuple{
			Src: pkt.AddrFrom(172, 16, 0, 2), Dst: pkt.AddrFrom(10, 3, 0, byte(i)),
			SrcPort: uint16(40000 + i), DstPort: 7000, Proto: pkt.ProtoTCP,
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tft.MatchUplink(flows[i%len(flows)], 0)
	}
}

func BenchmarkOpenFlowFlowModEncode(b *testing.B) {
	msg := &pkt.OFMsg{
		Type: pkt.OFFlowMod, Command: pkt.FlowModAdd, Priority: 100, Cookie: 1,
		Match: pkt.Match{TunnelID: pkt.U64(101), IPv4Dst: pkt.AddrPtr(pkt.AddrFrom(172, 16, 0, 2))},
		Actions: []pkt.Action{
			{Type: pkt.ActionSetTunnel, TunnelID: 201, TunnelDst: pkt.AddrFrom(10, 3, 0, 2)},
			{Type: pkt.ActionOutput, Port: 1},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = msg.Encode(nil)
	}
}

func BenchmarkDescriptorKNNMatch(b *testing.B) {
	obj := vision.GenerateObjectFeatures(1, 200)
	frame := vision.GenerateFrame(obj, vision.DefaultFrameParams(128), sim.NewRNG(2))
	m := vision.NewMatcher(vision.MatcherConfig{}, sim.NewRNG(3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := m.Match(frame, obj)
		if !res.Matched {
			b.Fatal("match failed")
		}
	}
}

func BenchmarkDBSearchPruned(b *testing.B) {
	floor := geo.RetailFloor()
	db := vision.BuildRetailDB(floor, 64)
	target := db.Objects[17]
	frame := vision.GenerateFrame(target.Features(), vision.DefaultFrameParams(96), sim.NewRNG(4))
	m := vision.NewMatcher(vision.MatcherConfig{}, sim.NewRNG(5))
	cells := []int{target.Subsection}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := db.Search(frame, cells, m); res.Best != target {
			b.Fatal("wrong object")
		}
	}
}

func BenchmarkTrilateration(b *testing.B) {
	landmarks := []geo.Point{{X: 3, Y: 5}, {X: 9, Y: 25}, {X: 15, Y: 5}, {X: 21, Y: 15}, {X: 27, Y: 25}, {X: 33, Y: 5}, {X: 39, Y: 20}}
	truth := geo.Point{X: 21, Y: 15}
	ms := make([]localization.Measurement, len(landmarks))
	for i, l := range landmarks {
		ms[i] = localization.Measurement{Landmark: l, Distance: truth.Dist(l) * 1.1}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := localization.Trilaterate(ms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDCTCompress(b *testing.B) {
	frame := media.SyntheticFrame(320, 240, 9)
	b.SetBytes(int64(len(frame.Pix)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := media.Compress(frame, 90); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimEngineScheduling(b *testing.B) {
	eng := sim.NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.Schedule(1, func() {})
		if i%1024 == 1023 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkSimEngineHold is the classic hold model: the queue is pre-filled
// to a fixed depth and every handler re-arms itself at a pseudo-random
// delay, so one op is one pop plus one push at that depth. q64k is the
// metro-frames regime (a frame timer per UE plus packets in flight).
func BenchmarkSimEngineHold(b *testing.B) {
	for _, c := range []struct {
		name  string
		depth int
	}{{"q1k", 1 << 10}, {"q64k", 1 << 16}} {
		b.Run(c.name, func(b *testing.B) {
			eng := sim.NewEngine(1)
			rng := sim.NewRNG(1)
			left := 0
			var fn func()
			fn = func() {
				if left > 0 {
					left--
					eng.Schedule(time.Duration(1+rng.Intn(1000))*time.Microsecond, fn)
				}
			}
			for i := 0; i < c.depth; i++ {
				eng.Schedule(time.Duration(1+rng.Intn(1000))*time.Microsecond, fn)
			}
			// Each of the depth pre-filled events re-arms until left runs
			// out, then the queue drains without re-arming: b.N pops and
			// pushes at full depth, plus the drain.
			left = b.N
			b.ReportAllocs()
			b.ResetTimer()
			eng.Run()
		})
	}
}

// BenchmarkNewTestbed times the standard topology build every testbed trial
// pays (≈ 65 per `-all`); run it with -benchmem. The retail database is
// lazy, so this reads ≈ 0.2 MB and well under a millisecond; an eager
// 105 x 200-descriptor build read ≈ 6.4 MB and ≈ 60 ms here.
func BenchmarkNewTestbed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tb := NewTestbed(TestbedConfig{Seed: uint64(i) + 1}); tb.DB.Len() != 105 {
			b.Fatal("retail database incomplete")
		}
	}
}

func BenchmarkTestbedAttach(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := NewTestbed(TestbedConfig{Seed: uint64(i) + 1})
		if err := tb.Attach(tb.UEs[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailoverRecovery runs the full MEC recovery pipeline once per
// iteration: establish the AR session, crash the serving edge site, and
// wait for the session to resume on the survivor.
func BenchmarkFailoverRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := NewTestbed(TestbedConfig{Seed: uint64(i) + 1, IdleTimeout: time.Hour})
		tb.AddEdgeSite("edge-2")
		tb.EnableFailover(100*time.Millisecond, 2)
		ue := tb.UEs[0]
		if err := tb.Attach(ue); err != nil {
			b.Fatal(err)
		}
		if err := tb.StartRetailApp(ue, "electronics"); err != nil {
			b.Fatal(err)
		}
		tb.Run(5 * time.Second)
		if err := tb.Faults.Apply(FaultPlan{Name: "bench", Events: []FaultEvent{
			{Kind: FaultSiteCrash, Target: "edge-1", At: time.Second},
		}}); err != nil {
			b.Fatal(err)
		}
		tb.Run(10 * time.Second)
		if !ue.DM.Connected(RetailServiceName) {
			b.Fatal("session did not recover")
		}
	}
}

// BenchmarkFaultPlanApply measures the injector machinery itself: a chain
// of links absorbing a 256-event schedule of down windows.
func BenchmarkFaultPlanApply(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(uint64(i) + 1)
		nw := netsim.New(eng)
		in := fault.NewInjector(eng)
		prev := nw.AddNode("n0", pkt.AddrFrom(10, 0, 0, 1))
		for j := 1; j <= 8; j++ {
			n := nw.AddNode(fmt.Sprintf("n%d", j), pkt.AddrFrom(10, 0, 0, byte(1+j)))
			l := nw.ConnectSymmetric(prev, n, netsim.LinkConfig{Propagation: time.Millisecond})
			in.RegisterLink(fmt.Sprintf("l%d", j), l)
			prev = n
		}
		evs := make([]fault.Event, 0, 256)
		for j := 0; j < 256; j++ {
			evs = append(evs, fault.Event{
				Kind: fault.LinkDown, Target: fmt.Sprintf("l%d", 1+j%8),
				At:       time.Duration(j) * 10 * time.Millisecond,
				Duration: 5 * time.Millisecond,
			})
		}
		if err := in.Apply(fault.Plan{Name: "bench", Events: evs}); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
}

func BenchmarkDeviceModelTable(b *testing.B) {
	// Sanity metric surface: device model queries are trivially cheap; the
	// benchmark exists so the calibration table appears in bench output.
	if b.N > 0 {
		var rows string
		for _, d := range compute.Devices() {
			rows += fmt.Sprintf("%s surf=%v match=%v\n",
				d.Name, d.SURFTime(720*480), d.MatchTime(1e9))
		}
		b.Logf("\n%s", rows)
	}
	for i := 0; i < b.N; i++ {
		_ = compute.I7x8.MatchTime(1e9)
	}
}
