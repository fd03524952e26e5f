package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The benchmark re-executes its own binary for every repetition; under
// `go test` that binary is the test binary, so a marked child runs main
// instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func smokeRunner(t *testing.T) *runner {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{exe: exe, seed: 2016, smoke: true, dir: t.TempDir(), stderr: io.Discard}
	if err := json.Unmarshal(goldenJSON, &r.gold); err != nil {
		t.Fatalf("golden.json: %v", err)
	}
	return r
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs the whole stand-alone pass (timed, probes, traced) at smoke
// size and checks that every end-to-end and per-layer metric is emitted
// exactly once per workload with a finite value and a legal name.
func TestSmoke(t *testing.T) {
	r := smokeRunner(t)
	sums, err := r.measure(workloadNames, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != len(workloadNames) {
		t.Fatalf("%d summaries, want %d", len(sums), len(workloadNames))
	}
	var out bytes.Buffer
	for _, s := range sums {
		printSummary(&out, s)
		if s.OpsFailed != 0 || s.OpsAttempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", s.Workload, s.OpsFailed, s.OpsAttempted, s.Violations)
		}
		for _, m := range endToEnd {
			st, ok := s.EndToEnd[m.Name]
			if !ok || st.N == 0 || math.IsNaN(st.Median) || math.IsInf(st.Median, 0) || st.Median <= 0 {
				t.Errorf("%s: end-to-end %s = %+v, want a finite positive median", s.Workload, m.Name, st)
			}
		}
		if len(s.PerLayer) != len(perLayerNames()) {
			t.Errorf("%s: %d per-layer metrics, want %d", s.Workload, len(s.PerLayer), len(perLayerNames()))
		}
		var shares float64
		for _, name := range perLayerNames() {
			v, ok := s.PerLayer[name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer %s = %v (present %v), want finite", s.Workload, name, v, ok)
			}
			if strings.HasPrefix(name, "share.") {
				shares += v
			}
		}
		if s.PerLayer["trace.samples"] > 0 && math.Abs(shares-1) > 0.001 {
			t.Errorf("%s: shares sum to %v, want 1", s.Workload, shares)
		}
	}
	for _, name := range probeNames {
		if sums[0].PerLayer[name] <= 0 {
			t.Errorf("probe %s = %v, want > 0", name, sums[0].PerLayer[name])
		}
	}
	for _, ph := range churnPhases {
		if v := sums[2].PerLayer["churn."+ph+"_ns"]; v <= 0 {
			t.Errorf("control-churn: churn.%s_ns = %v, want > 0", ph, v)
		}
	}

	// The printed report names every metric once per workload.
	seen := map[string]int{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] != "==" && f[1] != "VIOLATION" {
			seen[f[0]+" "+f[1]]++
		}
	}
	var names []string
	for _, m := range endToEnd {
		names = append(names, m.Name)
	}
	names = append(names, "ops_attempted", "ops_failed")
	names = append(names, perLayerNames()...)
	for _, w := range workloadNames {
		for _, name := range names {
			if !metricNameRE.MatchString(name) {
				t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", name)
			}
			if n := seen[w+" "+name]; n != 1 {
				t.Errorf("%s %s printed %d times, want once", w, name, n)
			}
		}
	}

	spans, err := readSpans(r.outDir() + "/trace.json")
	if err != nil || len(spans) == 0 {
		t.Errorf("trace.json: %d spans, err %v", len(spans), err)
	}
}

// TestViolationIsCountedNotFatal breaks one check per workload (the expected
// population is off by one) and requires the rep to finish, report the
// violation and count every op as failed.
func TestViolationIsCountedNotFatal(t *testing.T) {
	r := smokeRunner(t)
	for _, w := range workloadNames {
		cr, err := r.spawn(childArgs{Workload: w, BreakCheck: true})
		if err != nil {
			t.Fatalf("%s: a violated check aborted the rep: %v", w, err)
		}
		if len(cr.Violations) == 0 || cr.Attempted == 0 {
			t.Fatalf("%s: violations %v, attempted %d", w, cr.Violations, cr.Attempted)
		}
		s := r.summarize(w, []childReport{cr}, nil)
		if s.OpsFailed != s.OpsAttempted {
			t.Errorf("%s: ops_failed %d, want all %d", w, s.OpsFailed, s.OpsAttempted)
		}
	}
}

// TestContractLine runs the driver's form for one workload in both trace
// modes and checks the last line of stdout.
func TestContractLine(t *testing.T) {
	r := smokeRunner(t)
	for trace, want := range [][]string{nil, perLayerNames()} {
		if trace == 0 {
			for _, m := range endToEnd {
				want = append(want, m.Name)
			}
		}
		var out bytes.Buffer
		code, err := r.contract(config{workload: wlControlChurn, seconds: 0, trace: trace}, &out)
		if err != nil || code != 0 {
			t.Fatalf("trace %d: code %d, err %v", trace, code, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line contractLine
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace %d: last line is not the contract object: %v", trace, err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("trace %d: correct %v attempted %d failed %d", trace, line.Correct, line.Attempted, line.Failed)
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(line.Metrics), len(want))
		}
		for _, name := range want {
			if m, ok := line.Metrics[name]; !ok || m.Unit == "" {
				t.Errorf("trace %d: metric %s missing or without unit", trace, name)
			}
		}
	}
}

// TestManifestMatchesProgram holds BENCHMARK.json to the names, units,
// directions and bounds the program reports.
func TestManifestMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Paths) != 1 || man.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", man.Paths)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", man.RunSeconds)
	}
	if len(man.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(man.Workloads), len(workloadNames))
	}
	for i, w := range man.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d = %q (why %d chars), want %q", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	if len(man.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(man.EndToEnd), len(endToEnd))
	}
	for i, m := range man.EndToEnd {
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, m, want)
		}
	}
	names := perLayerNames()
	if len(man.PerLayer) != len(names) {
		t.Fatalf("%d per-layer metrics, want %d", len(man.PerLayer), len(names))
	}
	for i, m := range man.PerLayer {
		if m.Name != names[i] || m.Unit != unitOf(names[i]) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer[%d] = %+v, want %s in %s", i, m, names[i], unitOf(names[i]))
		}
	}
}
