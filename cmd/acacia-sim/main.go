// Command acacia-sim regenerates the paper's evaluation: every figure and
// table, or a chosen subset, printed as aligned text tables.
//
// Usage:
//
//	acacia-sim -list
//	acacia-sim -fig 13
//	acacia-sim -fig 3a,3b,overhead
//	acacia-sim -all [-full] [-seed N] [-parallel N] [-progress]
//	acacia-sim -fig overhead -metrics -timeline overhead.json
//	acacia-sim -fig 13 -cpuprofile cpu.pprof
//	acacia-sim -scale -scale-ues 5000 -scale-sites 8
//	acacia-sim -scale -scale-ues 100000 -scale-sites 48 -scale-enbs 2 -scale-capacity -1
//
// Trials run concurrently on up to -parallel workers, each on its own single
// event queue. Output on stdout is byte-identical for every -parallel
// setting.
//
// -scale runs the generated metro scenario standalone (the "scale"
// experiment's scenario): -scale-ues, -scale-sites,
// -scale-enbs, -scale-capacity and -scale-arrival override the preset shape
// (-full selects the 10,000-UE preset; the 100,000-UE line above is the
// largest recorded shape, about half a minute and 1.6 GB, and a shape the
// address plan cannot build is refused) and -seed picks the seed. Unset
// knobs keep their preset values.
// The generated scenario draws no randomness (its determinism scheme is
// tie-free by construction), so -scale output depends only on the shape,
// not the seed.
// -metrics appends each experiment's merged telemetry snapshot to its
// tables; -timeline writes the combined event log, ordered by virtual
// time, as JSON to the named file. -cpuprofile/-memprofile write pprof
// profiles of the run for performance work on the engine itself.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"acacia"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		list       = flag.Bool("list", false, "list experiment ids and exit")
		fig        = flag.String("fig", "", "comma-separated experiment ids to run (e.g. 3a,8,13)")
		all        = flag.Bool("all", false, "run every experiment")
		full       = flag.Bool("full", false, "publication-length runs (slower, tighter statistics)")
		seed       = flag.Uint64("seed", 2016, "simulation seed")
		parallel   = flag.Int("parallel", 0, "max concurrent trials (0 = GOMAXPROCS)")
		progress   = flag.Bool("progress", false, "report per-trial completion on stderr")
		csv        = flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
		metrics    = flag.Bool("metrics", false, "print each experiment's merged telemetry snapshot")
		timeline   = flag.String("timeline", "", "write the combined event timeline as JSON to this file")
		scale      = flag.Bool("scale", false, "run the generated metro-scale scenario standalone")
		scaleUEs   = flag.Int("scale-ues", 0, "scale: UE population (0 = preset)")
		scaleSites = flag.Int("scale-sites", 0, "scale: number of edge sites in the grid (0 = preset)")
		scaleENBs  = flag.Int("scale-enbs", 0, "scale: eNodeBs per site (0 = preset)")
		scaleCap   = flag.Int("scale-capacity", 0, "scale: admission capacity units per site (0 = preset, -1 = unbounded)")
		scaleArr   = flag.String("scale-arrival", "", "scale: arrival profile: uniform, diurnal or flash (\"\" = preset)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "acacia-sim:", err)
		return 1
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "acacia-sim:", err)
				return
			}
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "acacia-sim:", err)
			}
			f.Close()
		}()
	}

	opts := acacia.ExperimentOptions{
		Full: *full, Seed: *seed, SeedSet: true,
		Parallel: *parallel,
	}
	if *progress {
		opts.Progress = func(done, total int, trial string, err error) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "acacia-sim: [%d/%d] %s: %v\n", done, total, trial, err)
				return
			}
			fmt.Fprintf(os.Stderr, "acacia-sim: [%d/%d] %s\n", done, total, trial)
		}
	}
	var snaps []*acacia.MetricsSnapshot
	print := func(r *acacia.ExperimentResult) {
		if r.Metrics != nil {
			snaps = append(snaps, r.Metrics)
		}
		if *csv {
			fmt.Printf("## %s: %s\n", r.ID, r.Title)
			for _, t := range r.Tables {
				fmt.Println(t.CSV())
			}
		} else {
			fmt.Println(r)
		}
		if *metrics && r.Metrics != nil {
			fmt.Print(r.Metrics)
		}
	}
	writeTimeline := func() error {
		if *timeline == "" {
			return nil
		}
		merged := acacia.MergeMetrics(snaps...)
		if merged == nil {
			merged = &acacia.MetricsSnapshot{}
		}
		f, err := os.Create(*timeline)
		if err != nil {
			return err
		}
		if err := merged.WriteTimelineJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	switch {
	case *scale:
		cfg := acacia.DefaultScaleConfig(*full)
		if *scaleUEs > 0 {
			cfg.UEs = *scaleUEs
		}
		if *scaleSites > 0 {
			cfg.Sites = *scaleSites
		}
		if *scaleENBs > 0 {
			cfg.ENBsPerSite = *scaleENBs
		}
		switch {
		case *scaleCap > 0:
			cfg.SiteCapacity = *scaleCap
		case *scaleCap < 0:
			cfg.SiteCapacity = 0 // unbounded admission
		}
		if *scaleArr != "" {
			cfg.Arrival = *scaleArr
		}
		if err := cfg.Validate(); err != nil {
			return fail(err)
		}
		print(acacia.RunScaleScenario(*seed, cfg))
		if err := writeTimeline(); err != nil {
			return fail(err)
		}
	case *list:
		for _, id := range acacia.ExperimentIDs() {
			fmt.Printf("%-18s %s\n", id, acacia.ExperimentTitle(id))
		}
	case *all:
		results, err := acacia.RunAllExperiments(opts)
		for _, r := range results {
			print(r)
		}
		if werr := writeTimeline(); werr != nil {
			return fail(werr)
		}
		if err != nil {
			return fail(err)
		}
	case *fig != "":
		for _, id := range strings.Split(*fig, ",") {
			r, err := acacia.RunExperiment(strings.TrimSpace(id), opts)
			if err != nil {
				return fail(err)
			}
			print(r)
		}
		if err := writeTimeline(); err != nil {
			return fail(err)
		}
	default:
		flag.Usage()
		return 2
	}
	return 0
}
