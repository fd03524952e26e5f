// Command benchmark is the repo's one benchmark: four named workloads, seven
// end-to-end metrics on each, and per-layer attribution measured from
// outside the simulator. README.md in this directory is the reference.
//
//	go run ./benchmark                    # timed pass, every workload
//	go run ./benchmark -traced            # + per-layer pass (profile, spans, probes)
//	go run ./benchmark -only metro-frames -seed 7
//	go run ./benchmark -selfcheck         # two timed passes must agree within the bounds
//	go run ./benchmark -record            # append this commit's rows to ledger.jsonl
//
// The driver's contract form runs one workload and prints one JSON line:
//
//	go run ./benchmark --workload control-churn --seed 3 --seconds 15 --trace 0
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

//go:embed golden.json
var goldenJSON []byte

// golden holds the default-seed fingerprints of the commit that defined the
// benchmark; a speed-only change must leave every one of them unchanged.
type golden struct {
	Seed         uint64            `json:"seed"`
	Fingerprints map[string]string `json:"fingerprints"`
}

// metricDef describes one end-to-end metric. BENCHMARK.json repeats these;
// bench_test.go holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// The time and memory bounds are the contract's ceiling, not the 10 % the
// issue hoped for: on the host this was sized on, ten runs of one commit on
// ten seeds spread 8-14 % (first to third quartile over the median) on
// wall_s, cpu_s, ops_per_s and peak_rss_mb, in phases longer than a run, so
// a tighter bound would reject unchanged code. Allocation counts repeat to
// 0.3 % across seeds and keep the 1 % bound.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.01},
	{"alloc_bytes_per_op", "bytes", "lower", 0.01},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// setupFloorS is the absolute slack -selfcheck allows setup_s on top of its
// relative bound: a few milliseconds of process start do not carry a
// relative comparison.
const setupFloorS = 0.030

// fullReps is the stand-alone pass's repetitions at full size.
var fullReps = map[string]int{wlMetroAttach: 5, wlMetroFrames: 5, wlControlChurn: 7, wlPaperAll: 3}

const (
	minReps         = 3  // floor in contract mode, however short --seconds is
	maxReps         = 12 // ceiling in contract mode
	minSetupSamples = 7  // contract mode tops setup_s samples up to this
)

// tracedExperiments are the paper-all experiments that each take >= 3 % of
// the run today and so get their own per-layer metric; all 31 spans go to
// trace.json.
var tracedExperiments = []string{"3g", "ablation-fastpath", "10b", "8", "ablation-index", "ablation-qci", "3d"}

var churnPhases = []string{"attach", "bind", "handover", "release", "detach"}

// countMetrics are the simulated work counts, in reporting order.
var countMetrics = []string{
	"sim.events", "sim.host_ns_per_event", "netsim.pkts_sent", "netsim.pkts_dropped",
	"sdn.fastpath_hits", "sdn.slowpath_hits", "sdn.fastpath_ratio", "sdn.table_misses", "sdn.ctl_msgs",
	"epc.s1ap_msgs", "epc.gtpv2_msgs", "epc.openflow_msgs",
	"ctl.txn_sent", "ctl.retransmissions", "ctl.timeouts", "epc.handovers", "d2d.broadcasts", "core.frames",
	"metro.attached", "metro.bound", "metro.frames_done", "metro.frames_served",
}

// perLayerNames is every per-layer metric, in reporting order. Each traced
// workload emits all of them; one that does not apply reads 0.
func perLayerNames() []string {
	var names []string
	for _, b := range layerBuckets {
		names = append(names, "share."+b)
	}
	names = append(names, "trace.samples", "trace.overhead_ratio")
	names = append(names, countMetrics...)
	for _, ph := range churnPhases {
		names = append(names, "churn."+ph+"_ns")
	}
	for _, id := range tracedExperiments {
		names = append(names, "exp."+id+".wall_s")
	}
	return append(names, probeNames...)
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "_ns"):
		return "ns"
	case strings.HasPrefix(name, "share.") || strings.HasSuffix(name, "_ratio"):
		return "ratio"
	}
	return "count"
}

// stat summarises one metric over a workload's reps.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func statOf(v []float64) stat {
	if len(v) == 0 {
		return stat{}
	}
	s := sorted(v)
	return stat{Median: median(v), Min: s[0], Max: s[len(s)-1], N: len(v)}
}

// summary is everything the benchmark knows about one workload.
type summary struct {
	Workload           string
	EndToEnd           map[string]stat
	OpsAttempted       int64
	OpsFailed          int64
	Fingerprint        string
	FingerprintChanged bool
	Violations         []string
	// Counts are the simulated work counts of the last untraced rep.
	Counts map[string]float64
	// PerLayer and SpanP99 are filled by the traced pass.
	PerLayer map[string]float64
	SpanP99  map[string]float64
}

// runner spawns children and collects their reports.
type runner struct {
	exe   string
	seed  uint64
	smoke bool
	// dir is the benchmark's own directory: out/ and ledger.jsonl live in it.
	dir string
	// ref times the reference kernel before and after every rep.
	ref    bool
	refMs  []float64
	gold   golden
	stderr io.Writer
}

func (r *runner) outDir() string { return filepath.Join(r.dir, "out") }

// spawn runs one child to completion and returns its report with the
// host-side measurements added.
func (r *runner) spawn(a childArgs) (childReport, error) {
	args := []string{"-child", a.Workload, "-seed", fmt.Sprint(r.seed), "-dir", r.dir}
	if r.smoke {
		args = append(args, "-smoke")
	}
	if a.Traced {
		args = append(args, "-traced")
	}
	if a.SetupOnly {
		args = append(args, "-setup-only")
	}
	if a.BreakCheck {
		args = append(args, "-break-check")
	}
	if r.ref {
		r.refMs = append(r.refMs, refKernelMs())
	}
	var stdout bytes.Buffer
	args = append(args, "-spawned", fmt.Sprint(time.Now().UnixNano()))
	cmd := exec.Command(r.exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdout, cmd.Stderr = &stdout, r.stderr
	err := cmd.Run()
	if r.ref {
		r.refMs = append(r.refMs, refKernelMs())
	}
	if err != nil {
		return childReport{}, fmt.Errorf("child %s: %w", a.Workload, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep childReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return childReport{}, fmt.Errorf("child %s: report: %w", a.Workload, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.CPUS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rep, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// childEnv marks a re-executed process as a child, so the test binary knows
// to run main instead of the tests.
const childEnv = "ACACIA_BENCH_CHILD"

// timedPass runs reps[w] untraced repetitions of every workload,
// round-robin (rep 1 of each, then rep 2, ...) so a slow phase of the host
// is spread over all of them instead of landing on one.
func (r *runner) timedPass(workloads []string, reps map[string]int) (map[string][]childReport, error) {
	out := map[string][]childReport{}
	for rep := 0; ; rep++ {
		ran := false
		for _, w := range workloads {
			if rep >= reps[w] {
				continue
			}
			ran = true
			fmt.Fprintf(r.stderr, "benchmark: %s rep %d/%d\n", w, rep+1, reps[w])
			cr, err := r.spawn(childArgs{Workload: w})
			if err != nil {
				return nil, err
			}
			out[w] = append(out[w], cr)
		}
		if !ran {
			return out, nil
		}
	}
}

// summarize folds a workload's reps (and any extra setup_s samples) into
// its end-to-end metrics and failure counts.
func (r *runner) summarize(w string, reps []childReport, extraSetup []float64) summary {
	s := summary{Workload: w, EndToEnd: map[string]stat{}}
	// Reps of one workload in one invocation must agree on the simulated
	// output; if they do not, none of them can be trusted.
	for _, cr := range reps[1:] {
		if cr.Fingerprint != reps[0].Fingerprint {
			s.Violations = append(s.Violations, fmt.Sprintf("non-deterministic: fingerprints %s and %s", reps[0].Fingerprint, cr.Fingerprint))
			break
		}
	}
	vals := map[string][]float64{}
	for _, cr := range reps {
		s.OpsAttempted += cr.Attempted
		if len(s.Violations) > 0 {
			s.OpsFailed += cr.Attempted
		} else {
			s.OpsFailed += cr.failedOps()
		}
		for _, v := range cr.Violations {
			if len(s.Violations) < 16 {
				s.Violations = append(s.Violations, v)
			}
		}
		ops := math.Max(float64(cr.Ops), 1)
		vals["wall_s"] = append(vals["wall_s"], cr.WallS)
		vals["cpu_s"] = append(vals["cpu_s"], cr.CPUS)
		vals["ops_per_s"] = append(vals["ops_per_s"], float64(cr.Ops)/cr.WallS)
		vals["allocs_per_op"] = append(vals["allocs_per_op"], float64(cr.Mallocs)/ops)
		vals["alloc_bytes_per_op"] = append(vals["alloc_bytes_per_op"], float64(cr.AllocBytes)/ops)
		vals["peak_rss_mb"] = append(vals["peak_rss_mb"], cr.PeakRSSMB)
		vals["setup_s"] = append(vals["setup_s"], cr.SetupS)
	}
	vals["setup_s"] = append(vals["setup_s"], extraSetup...)
	for _, m := range endToEnd {
		s.EndToEnd[m.Name] = statOf(vals[m.Name])
	}
	last := reps[len(reps)-1]
	s.Fingerprint, s.Counts = last.Fingerprint, last.Counts
	if want, ok := r.gold.Fingerprints[w]; ok && !r.smoke && r.seed == r.gold.Seed {
		s.FingerprintChanged = want != s.Fingerprint
	}
	return s
}

// tracedPass fills s.PerLayer: one profiled child with spans on, then the
// probe results shared by every workload.
func (r *runner) tracedPass(s *summary, probes map[string]float64) error {
	fmt.Fprintf(r.stderr, "benchmark: %s traced\n", s.Workload)
	cr, err := r.spawn(childArgs{Workload: s.Workload, Traced: true})
	if err != nil {
		return err
	}
	if cr.Fingerprint != s.Fingerprint {
		s.Violations = append(s.Violations, "traced run changed the simulated output: "+cr.Fingerprint)
		s.OpsFailed = s.OpsAttempted
	}
	pl := map[string]float64{}
	for _, name := range perLayerNames() {
		pl[name] = 0
	}
	for b, share := range cr.Shares {
		pl["share."+b] = share
	}
	pl["trace.samples"] = float64(cr.Samples)
	untraced := s.EndToEnd["wall_s"].Median
	pl["trace.overhead_ratio"] = cr.WallS / untraced
	for name, v := range s.Counts {
		pl[name] = v
	}
	if ev := pl["sim.events"]; ev > 0 {
		pl["sim.host_ns_per_event"] = untraced * 1e9 / ev
	}
	spans, err := readSpans(spansPath(r.outDir(), s.Workload))
	if err != nil {
		return err
	}
	s.SpanP99 = map[string]float64{}
	for name, ns := range perCallNs(spans) {
		switch {
		case strings.HasPrefix(name, "churn."):
			if _, ok := pl[name+"_ns"]; ok {
				pl[name+"_ns"] = median(ns)
				s.SpanP99[name+"_ns"] = quantile(ns, 0.99)
			}
		case strings.HasPrefix(name, "exp."):
			if _, ok := pl[name+".wall_s"]; ok {
				pl[name+".wall_s"] = ns[0] / 1e9
			}
		}
	}
	for name, v := range probes {
		pl[name] = v
	}
	s.PerLayer = pl
	return nil
}

// runProbesChild runs the layer probes in their own child.
func (r *runner) runProbesChild() (map[string]float64, error) {
	fmt.Fprintln(r.stderr, "benchmark: layer probes")
	cr, err := r.spawn(childArgs{Workload: "probes"})
	return cr.Probes, err
}

// mergeTrace gathers every child's spans into out/trace.json.
func (r *runner) mergeTrace(workloads []string) error {
	var all []span
	for _, w := range append(append([]string(nil), workloads...), "probes") {
		spans, err := readSpans(spansPath(r.outDir(), w))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		for i := range spans { // keep ids unique across children
			spans[i].ID += len(all)
			if spans[i].Parent != 0 {
				spans[i].Parent += len(all)
			}
		}
		all = append(all, spans...)
	}
	return writeSpans(filepath.Join(r.outDir(), "trace.json"), all)
}

// --- reporting ---

func printSummary(w io.Writer, s summary) {
	fmt.Fprintf(w, "\n== %s ==\n", s.Workload)
	for _, m := range endToEnd {
		st := s.EndToEnd[m.Name]
		fmt.Fprintf(w, "%-16s %-20s %14.6g %-6s min %.6g max %.6g n %d (%s is better, bound %.0f%%)\n",
			s.Workload, m.Name, st.Median, m.Unit, st.Min, st.Max, st.N, m.Better, m.Bound*100)
	}
	fmt.Fprintf(w, "%-16s %-20s %14d count\n", s.Workload, "ops_attempted", s.OpsAttempted)
	fmt.Fprintf(w, "%-16s %-20s %14d count\n", s.Workload, "ops_failed", s.OpsFailed)
	fmt.Fprintf(w, "%-16s %-20s %14s\n", s.Workload, "fingerprint", s.Fingerprint)
	fmt.Fprintf(w, "%-16s %-20s %14v\n", s.Workload, "fingerprint_changed", s.FingerprintChanged)
	for _, v := range s.Violations {
		fmt.Fprintf(w, "%-16s VIOLATION %s\n", s.Workload, v)
	}
	if s.PerLayer == nil {
		return
	}
	for _, name := range perLayerNames() {
		fmt.Fprintf(w, "%-16s %-40s %16.6g %s", s.Workload, name, s.PerLayer[name], unitOf(name))
		if p99, ok := s.SpanP99[name]; ok {
			fmt.Fprintf(w, "  p99 %.6g", p99)
		}
		fmt.Fprintln(w)
	}
}

// contractLine is the last line of stdout in the driver's contract form.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// --- reference kernel ---

// refKernelMs times a fixed piece of work that touches no repo code: 64k
// pseudo-random keys sifted through a binary heap. Its drift over a run
// tells a noisy host apart from a real regression.
func refKernelMs() float64 {
	const n = 1 << 16
	t0 := time.Now()
	rng := xorshift(0x9e3779b97f4a7c15)
	h := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		h = append(h, rng.next())
		for c := len(h) - 1; c > 0; {
			p := (c - 1) / 2
			if h[p] <= h[c] {
				break
			}
			h[p], h[c] = h[c], h[p]
			c = p
		}
	}
	var sink uint64
	for round := 0; round < 200; round++ {
		for i := 0; i < n; i++ { // replace the minimum and sift down
			h[0] = rng.next()
			for p := 0; ; {
				c := 2*p + 1
				if c >= n {
					break
				}
				if c+1 < n && h[c+1] < h[c] {
					c++
				}
				if h[p] <= h[c] {
					break
				}
				h[p], h[c] = h[c], h[p]
				p = c
			}
		}
		sink ^= h[0]
	}
	runtime.KeepAlive(sink)
	return float64(time.Since(t0)) / 1e6
}

// --- modes ---

type config struct {
	child     childArgs
	only      string
	traced    bool
	selfcheck bool
	record    bool
	// Contract form.
	workload string
	seconds  int
	trace    int
}

func main() {
	var c config
	var seed uint64
	var smoke bool
	var dir string
	flag.Uint64Var(&seed, "seed", 2016, "workload seed: the only input knob")
	flag.StringVar(&c.only, "only", "", "run just this workload")
	flag.BoolVar(&c.traced, "traced", false, "also run the per-layer pass: profile, spans and layer probes")
	flag.BoolVar(&c.selfcheck, "selfcheck", false, "run the timed pass twice and fail if the two disagree beyond the bounds")
	flag.BoolVar(&c.record, "record", false, "append one row per workload to ledger.jsonl (implies -traced)")
	flag.BoolVar(&smoke, "smoke", false, "tiny shapes that exercise every code path in seconds (tests)")
	flag.StringVar(&dir, "dir", "benchmark", "the benchmark's own directory (out/ and ledger.jsonl live in it)")
	flag.StringVar(&c.workload, "workload", "", "contract form: the one workload to run")
	flag.IntVar(&c.seconds, "seconds", 15, "contract form: seconds of timed region to accumulate")
	flag.IntVar(&c.trace, "trace", 0, "contract form: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.StringVar(&c.child.Workload, "child", "", "internal: run one repetition in this process")
	flag.BoolVar(&c.child.SetupOnly, "setup-only", false, "internal: stop after set-up")
	flag.BoolVar(&c.child.BreakCheck, "break-check", false, "internal: violate one correctness check (tests)")
	flag.Int64Var(&c.child.SpawnedNs, "spawned", 0, "internal: parent clock at spawn")
	flag.Parse()

	if c.child.Workload != "" {
		c.child.Seed, c.child.Smoke, c.child.OutDir = seed, smoke, filepath.Join(dir, "out")
		c.child.Traced = c.traced
		if err := runChild(c.child, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	r := &runner{exe: exe, seed: seed, smoke: smoke, dir: dir, stderr: os.Stderr}
	if err := json.Unmarshal(goldenJSON, &r.gold); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: golden.json:", err)
		os.Exit(1)
	}
	code, err := r.run(c, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func (r *runner) run(c config, stdout io.Writer) (int, error) {
	if c.workload != "" {
		return r.contract(c, stdout)
	}
	workloads := workloadNames
	if c.only != "" {
		if err := checkWorkload(c.only); err != nil {
			return 1, err
		}
		workloads = []string{c.only}
	}
	if c.selfcheck {
		return r.selfcheck(workloads, stdout)
	}
	sums, err := r.measure(workloads, c.traced || c.record)
	if err != nil {
		return 1, err
	}
	code := 0
	for _, s := range sums {
		printSummary(stdout, s)
		if s.OpsFailed > 0 {
			code = 1
		}
	}
	if c.record {
		if err := r.record(sums); err != nil {
			return 1, err
		}
	}
	return code, nil
}

// reps is how many times the stand-alone pass repeats each workload.
func (r *runner) reps() map[string]int {
	if r.smoke {
		return map[string]int{wlMetroAttach: 2, wlMetroFrames: 2, wlControlChurn: 2, wlPaperAll: 2}
	}
	return fullReps
}

// measure is the stand-alone pass: the interleaved timed pass, then (if
// traced) the probes and one profiled child per workload.
func (r *runner) measure(workloads []string, traced bool) ([]summary, error) {
	pass, err := r.timedPass(workloads, r.reps())
	if err != nil {
		return nil, err
	}
	var sums []summary
	for _, w := range workloads {
		sums = append(sums, r.summarize(w, pass[w], nil))
	}
	if !traced {
		return sums, nil
	}
	probes, err := r.runProbesChild()
	if err != nil {
		return nil, err
	}
	for i := range sums {
		if err := r.tracedPass(&sums[i], probes); err != nil {
			return nil, err
		}
	}
	return sums, r.mergeTrace(workloads)
}

// checkWorkload rejects an unknown workload name before any child starts.
func checkWorkload(name string) error {
	for _, w := range workloadNames {
		if w == name {
			return nil
		}
	}
	return fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames, ", "))
}

// contract is the driver's form: one workload, one JSON line last.
func (r *runner) contract(c config, stdout io.Writer) (int, error) {
	w := c.workload
	if err := checkWorkload(w); err != nil {
		return 1, err
	}
	line := contractLine{Metrics: map[string]contractMetric{}}
	var s summary
	if c.trace == 0 {
		// Repeat until --seconds of timed region have accumulated.
		var reps []childReport
		var timed float64
		for len(reps) < minReps || (timed < float64(c.seconds) && len(reps) < maxReps) {
			cr, err := r.spawn(childArgs{Workload: w})
			if err != nil {
				return 1, err
			}
			reps = append(reps, cr)
			timed += cr.WallS
		}
		// setup_s is small and noisy next to the timed region; top its
		// samples up with children that stop after set-up.
		var extra []float64
		for len(reps)+len(extra) < minSetupSamples {
			cr, err := r.spawn(childArgs{Workload: w, SetupOnly: true})
			if err != nil {
				return 1, err
			}
			extra = append(extra, cr.SetupS)
		}
		s = r.summarize(w, reps, extra)
		for _, m := range endToEnd {
			line.Metrics[m.Name] = contractMetric{s.EndToEnd[m.Name].Median, m.Unit}
		}
	} else {
		cr, err := r.spawn(childArgs{Workload: w})
		if err != nil {
			return 1, err
		}
		s = r.summarize(w, []childReport{cr}, nil)
		probes, err := r.runProbesChild()
		if err != nil {
			return 1, err
		}
		if err := r.tracedPass(&s, probes); err != nil {
			return 1, err
		}
		if err := r.mergeTrace([]string{w}); err != nil {
			return 1, err
		}
		for _, name := range perLayerNames() {
			line.Metrics[name] = contractMetric{s.PerLayer[name], unitOf(name)}
		}
	}
	printSummary(stdout, s)
	line.Correct = s.OpsFailed == 0
	line.Attempted, line.Failed = s.OpsAttempted, s.OpsFailed
	out, err := json.Marshal(line)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0, nil
}

// selfcheck runs the timed pass twice and holds the two sets of medians to
// the benchmark's own bounds.
func (r *runner) selfcheck(workloads []string, stdout io.Writer) (int, error) {
	r.ref = true
	reps := r.reps()
	var sets [2]map[string]summary
	for i := range sets {
		pass, err := r.timedPass(workloads, reps)
		if err != nil {
			return 1, err
		}
		sets[i] = map[string]summary{}
		for _, w := range workloads {
			sets[i][w] = r.summarize(w, pass[w], nil)
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-16s %-20s %14s %14s %9s %7s\n", "workload", "metric", "median-1", "median-2", "diff", "bound")
	for _, w := range workloads {
		a, b := sets[0][w], sets[1][w]
		for _, m := range endToEnd {
			ma, mb := a.EndToEnd[m.Name].Median, b.EndToEnd[m.Name].Median
			diff := (mb - ma) / ma
			allowed := m.Bound * ma
			if m.Name == "setup_s" {
				allowed = math.Max(allowed, setupFloorS)
			}
			verdict := "ok"
			if math.Abs(mb-ma) > allowed {
				verdict, code = "BREACH", 1
			}
			fmt.Fprintf(stdout, "%-16s %-20s %14.6g %14.6g %+8.2f%% %6.0f%% %s\n", w, m.Name, ma, mb, diff*100, m.Bound*100, verdict)
		}
		if a.Fingerprint != b.Fingerprint {
			fmt.Fprintf(stdout, "%-16s fingerprint %s vs %s BREACH\n", w, a.Fingerprint, b.Fingerprint)
			code = 1
		}
		for _, name := range countMetrics {
			if a.Counts[name] != b.Counts[name] {
				fmt.Fprintf(stdout, "%-16s %-20s %14.6g %14.6g BREACH (simulated count moved)\n", w, name, a.Counts[name], b.Counts[name])
				code = 1
			}
		}
		if failed := a.OpsFailed + b.OpsFailed; failed > 0 {
			fmt.Fprintf(stdout, "%-16s ops_failed %d BREACH\n", w, failed)
			code = 1
		}
	}
	ref := statOf(r.refMs)
	fmt.Fprintf(stdout, "host.ref_ms min %.1f median %.1f max %.1f n %d\n", ref.Min, ref.Median, ref.Max, ref.N)
	return code, nil
}

// ledgerRow is one line of ledger.jsonl: the append-only trajectory of the
// benchmark across commits, keyed by (commit, cores, Go, seed, workload).
type ledgerRow struct {
	Commit      string             `json:"commit"`
	NProc       int                `json:"nproc"`
	Go          string             `json:"go"`
	Seed        uint64             `json:"seed"`
	Workload    string             `json:"workload"`
	EndToEnd    map[string]stat    `json:"end_to_end"`
	Shares      map[string]float64 `json:"shares"`
	Fingerprint string             `json:"fingerprint"`
}

func (r *runner) record(sums []summary) error {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	f, err := os.OpenFile(filepath.Join(r.dir, "ledger.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range sums {
		row := ledgerRow{
			Commit: commit, NProc: runtime.NumCPU(), Go: runtime.Version(), Seed: r.seed,
			Workload: s.Workload, EndToEnd: s.EndToEnd, Shares: map[string]float64{}, Fingerprint: s.Fingerprint,
		}
		for _, b := range layerBuckets {
			row.Shares["share."+b] = s.PerLayer["share."+b]
		}
		if err := enc.Encode(row); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
