package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"acacia/internal/exec"
)

// detSubset spans all five runner files (motivation, micro, app,
// robustness, ablation) with multi-trial experiments, while staying
// affordable for CI. robust-failover keeps a fault plan active during the
// parallel-vs-sequential comparison, so failure injection itself is under
// the byte-identical contract.
var detSubset = []string{"3c", "3d", "9", "10a", "13", "many-site", "robust-failover", "ablation-qci", "ablation-stages"}

func renderSubset(t *testing.T, opts Options) string {
	t.Helper()
	exps := make([]*Experiment, 0, len(detSubset))
	for _, id := range detSubset {
		e, ok := registry[id]
		if !ok {
			t.Fatalf("unknown subset id %q", id)
		}
		exps = append(exps, e)
	}
	results, err := runExperiments(opts, exps)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range results {
		b.WriteString(r.String())
		// Include the merged telemetry snapshot (and its timeline) so the
		// determinism tests below cover the -metrics/-timeline output too.
		if r.Metrics != nil {
			b.WriteString(r.Metrics.String())
			if err := r.Metrics.WriteTimelineJSON(&b); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.String()
}

// TestDeterministicAcrossRuns checks two same-seed sequential runs render
// byte-identical output.
func TestDeterministicAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment sweep")
	}
	a := renderSubset(t, Options{Parallel: 1})
	b := renderSubset(t, Options{Parallel: 1})
	if a != b {
		t.Errorf("same-seed sequential runs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestParallelMatchesSequential checks the tentpole guarantee: scheduling
// trials on many workers renders byte-identical output to one worker.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment sweep")
	}
	seq := renderSubset(t, Options{Parallel: 1})
	par := renderSubset(t, Options{Parallel: 8})
	if seq != par {
		t.Errorf("parallel output differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

func TestBaseSeed(t *testing.T) {
	cases := []struct {
		opts Options
		want uint64
	}{
		{Options{}, DefaultSeed},
		{Options{Seed: 7}, 7},
		{Options{Seed: 0, SeedSet: true}, 0},
		{Options{Seed: DefaultSeed}, DefaultSeed},
	}
	for _, c := range cases {
		if got := c.opts.BaseSeed(); got != c.want {
			t.Errorf("BaseSeed(%+v) = %d, want %d", c.opts, got, c.want)
		}
	}
}

// TestSeedZeroReachable checks an explicit seed 0 is honored rather than
// silently aliased to the default.
func TestSeedZeroReachable(t *testing.T) {
	zero, err := Run("9", Options{Seed: 0, SeedSet: true})
	if err != nil {
		t.Fatal(err)
	}
	def, err := Run("9", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if zero.String() == def.String() {
		t.Error("seed 0 produced the default-seed output: explicit zero is still aliased")
	}
}

func TestSubSeedSeparation(t *testing.T) {
	if subSeed(1, "ab", "c") == subSeed(1, "a", "bc") {
		t.Error("label concatenations collide")
	}
	if subSeed(1, "x") == subSeed(2, "x") {
		t.Error("base seed ignored")
	}
	if subSeed(1, "x") != subSeed(1, "x") {
		t.Error("subSeed not deterministic")
	}
}

// TestPanickingTrialSurfacesError runs a synthetic experiment pair through
// the shared scheduler: the broken experiment must surface as an error that
// names the failing trial, its sibling trials must still run, and the
// healthy experiment must still produce its result.
func TestPanickingTrialSurfacesError(t *testing.T) {
	var siblings atomic.Int32
	mk := func(id string, boom bool) *Experiment {
		return &Experiment{
			ID:    id,
			Title: "synthetic " + id,
			Trials: func(Options) []Trial {
				var ts []Trial
				for i := 0; i < 3; i++ {
					i := i
					ts = append(ts, Trial{
						Key: fmt.Sprintf("t%d", i),
						Run: func(seed uint64) any {
							if boom && i == 1 {
								panic("synthetic failure")
							}
							siblings.Add(1)
							return seed
						},
					})
				}
				return ts
			},
			Assemble: func(_ Options, parts []any) *Result {
				return &Result{ID: id, Title: "synthetic " + id}
			},
		}
	}
	results, err := runExperiments(Options{Parallel: 2}, []*Experiment{mk("broken", true), mk("healthy", false)})
	if err == nil {
		t.Fatal("panicking trial produced no error")
	}
	if !strings.Contains(err.Error(), "broken") || !strings.Contains(err.Error(), "t1") || !strings.Contains(err.Error(), "synthetic failure") {
		t.Errorf("error does not identify the failing trial: %v", err)
	}
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Errorf("error chain lacks *exec.PanicError: %v", err)
	}
	if got := siblings.Load(); got != 5 {
		t.Errorf("%d non-panicking trials ran, want 5 (siblings must survive)", got)
	}
	if len(results) != 1 || results[0].ID != "healthy" {
		t.Errorf("healthy experiment lost: results = %+v", results)
	}
}

// TestTrialKeysValidated checks malformed declarations are rejected up
// front rather than silently misassembled.
func TestTrialKeysValidated(t *testing.T) {
	if err := checkTrialKeys("x", nil); err == nil {
		t.Error("empty trial list accepted")
	}
	if err := checkTrialKeys("x", []Trial{{Key: ""}}); err == nil {
		t.Error("empty key accepted")
	}
	if err := checkTrialKeys("x", []Trial{{Key: "a"}, {Key: "a"}}); err == nil {
		t.Error("duplicate key accepted")
	}
	if err := checkTrialKeys("x", []Trial{{Key: "a"}, {Key: "b"}}); err != nil {
		t.Errorf("valid keys rejected: %v", err)
	}
}

// TestProgressReportsEveryTrial checks the Progress callback sees each
// trial exactly once with a complete done count.
func TestProgressReportsEveryTrial(t *testing.T) {
	seen := map[string]bool{}
	var last, total int
	_, err := Run("10a", Options{Progress: func(done, n int, trial string, err error) {
		seen[trial] = true
		last, total = done, n
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 || last != total || len(seen) != total {
		t.Errorf("progress saw %d trials, last done %d/%d", len(seen), last, total)
	}
	trials := make([]string, 0, len(seen))
	for trial := range seen {
		trials = append(trials, trial)
	}
	sort.Strings(trials)
	for _, trial := range trials {
		if !strings.HasPrefix(trial, "10a/") {
			t.Errorf("trial name %q lacks experiment prefix", trial)
		}
	}
}

// TestTrialStartsFromCollectedHeap checks every trial runs after a forced
// GC, so a trial's memory peak does not depend on the garbage earlier
// trials left.
func TestTrialStartsFromCollectedHeap(t *testing.T) {
	var forced []uint32
	var ts []Trial
	for i := 0; i < 4; i++ {
		ts = append(ts, Trial{Key: fmt.Sprint("t", i), Run: func(uint64) any {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			forced = append(forced, m.NumForcedGC)
			return nil
		}})
	}
	e := &Experiment{
		ID:       "gc",
		Trials:   func(Options) []Trial { return ts },
		Assemble: func(Options, []any) *Result { return &Result{ID: "gc"} },
	}
	if _, err := runExperiments(Options{Parallel: 1}, []*Experiment{e}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(forced); i++ {
		if forced[i] <= forced[i-1] {
			t.Fatalf("no forced GC between trials %d and %d: NumForcedGC %v", i-1, i, forced)
		}
	}
}
