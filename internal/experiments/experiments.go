// Package experiments regenerates every table and figure of the paper's
// evaluation: each experiment builds the workloads on the simulation
// substrates, runs them, and prints the same rows/series the paper reports.
// Absolute numbers come from the calibrated models; the shapes — who wins,
// by what factor, where crossovers fall — are the reproduction targets
// (see EXPERIMENTS.md for paper-vs-measured values).
//
// Execution model: every experiment is declared as a set of independent
// Trials — one per parameter point or replica — plus an Assemble step that
// combines the per-trial partial results into the printed tables. Each
// trial constructs its own testbed/engine from a seed forked from the run's
// base seed and the trial's stable key, so trials share no mutable state
// and can run concurrently. Run and RunAll schedule trials on the bounded
// worker pool in internal/exec and reassemble results in declaration order,
// which makes parallel output byte-identical to sequential output for the
// same Options.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"acacia/internal/exec"
	"acacia/internal/stats"
	"acacia/internal/telemetry"
)

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*stats.Table
	// Notes carry paper-vs-measured commentary.
	Notes []string
	// Metrics is the merged telemetry snapshot of the experiment's trials
	// (nil when no trial captured one). Per-trial snapshots are merged in
	// declaration order, so this field is byte-identical between parallel
	// and sequential runs.
	Metrics *telemetry.Snapshot
}

// String renders the full result.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Metered wraps a trial's partial result together with the telemetry
// snapshot of the engine that produced it. runExperiments unwraps it before
// Assemble sees the parts and merges the snapshots (in trial declaration
// order) into Result.Metrics — the plain-data hand-off that carries
// per-trial telemetry across the worker-pool boundary.
type Metered struct {
	Part any
	Snap *telemetry.Snapshot
}

// metered wraps part with a final snapshot of eng's registry.
func metered(part any, eng interface {
	Metrics() *telemetry.Registry
}) Metered {
	return Metered{Part: part, Snap: eng.Metrics().Snapshot()}
}

// DefaultSeed is the base seed selected when Options leaves Seed unset.
const DefaultSeed = 2016

// Options tune experiment execution; the zero value selects quick settings
// suitable for tests, Full selects publication-length runs.
type Options struct {
	Full bool
	// Seed is the run's base simulation seed. The zero value selects
	// DefaultSeed unless SeedSet is true; see BaseSeed.
	Seed uint64
	// SeedSet marks Seed as explicitly chosen, so a caller can run with
	// seed 0 (otherwise indistinguishable from "unset").
	SeedSet bool
	// Parallel bounds how many trials run concurrently; 0 or negative
	// selects GOMAXPROCS. Output is byte-identical at every setting:
	// trials are seeded from their keys, not from scheduling order, and
	// results are reassembled in declaration order.
	Parallel int
	// Progress, when non-nil, is called serially after each trial
	// completes. done counts finished trials including the reported one;
	// trial is "<experiment id>/<trial key>". err is nil unless the trial
	// failed (a recovered panic).
	Progress func(done, total int, trial string, err error)
}

// BaseSeed resolves the run's base seed in one place: an explicitly chosen
// seed (SeedSet) is used verbatim, otherwise the zero value selects
// DefaultSeed. Every trial seed is forked from this value.
func (o Options) BaseSeed() uint64 {
	if o.Seed == 0 && !o.SeedSet {
		return DefaultSeed
	}
	return o.Seed
}

// addRows appends one table row per trial result (each a []any of cells).
func addRows(tbl *stats.Table, parts []any) {
	for _, p := range parts {
		tbl.AddRow(p.([]any)...)
	}
}

// sweep declares one trial per parameter point, in order: key names a
// point's trial and run measures it.
func sweep[P any](points []P, key func(P) string, run func(seed uint64, p P) any) []Trial {
	trials := make([]Trial, 0, len(points))
	for _, p := range points {
		trials = append(trials, Trial{Key: key(p), Run: func(seed uint64) any { return run(seed, p) }})
	}
	return trials
}

// grid is sweep over every (a, b) pair, a-major.
func grid[A, B any](as []A, bs []B, key func(A, B) string, run func(seed uint64, a A, b B) any) []Trial {
	var trials []Trial
	for _, a := range as {
		for _, b := range bs {
			trials = append(trials, Trial{Key: key(a, b), Run: func(seed uint64) any { return run(seed, a, b) }})
		}
	}
	return trials
}

// must panics on a set-up error: trial configurations are fixed, so one is
// a bug.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// subSeed derives a deterministic seed from base and labels without
// consuming any RNG state, so two trials asking for the same labeled stream
// (a shared calibration campaign, a per-frame generator) get identical
// seeds no matter which trial runs first. The labels are FNV-1a hashed with
// a separator so ("ab","c") and ("a","bc") differ.
func subSeed(base uint64, labels ...string) uint64 {
	h := uint64(14695981039346656037)
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			h ^= uint64(l[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	return base ^ h
}

// trialSeed forks the seed for one trial from the run's base seed and the
// trial's stable identity (experiment id + key). Trials therefore draw
// independent randomness that does not depend on how many sibling trials
// exist or in which order they are scheduled.
func trialSeed(base uint64, expID, key string) uint64 {
	return subSeed(base, "trial", expID, key)
}

// Trial is one independent unit of an experiment: a single parameter point
// or replica. Trials run in isolation — each constructs whatever testbed or
// engine it needs from the seed it is handed — and return a partial result
// for the experiment's Assemble step.
type Trial struct {
	// Key identifies the trial within its experiment. It must be unique
	// and stable across runs: it is both the trial's seed-fork label and
	// its position marker for deterministic reassembly.
	Key string
	// Run executes the trial. seed is forked from the run's base seed and
	// the trial key; implementations must derive all randomness from it
	// (directly or via sim.NewEngine/sim.NewRNG) and share no mutable
	// state with other trials.
	Run func(seed uint64) any
}

// Experiment declares one figure/table of the evaluation as independent
// trials plus a deterministic assembly step.
type Experiment struct {
	ID    string
	Title string
	// Trials returns the trial list for an options set, in assembly order.
	Trials func(opts Options) []Trial
	// Assemble combines the per-trial outputs into the final result;
	// parts[i] is the value returned by Trials(opts)[i].
	Assemble func(opts Options, parts []any) *Result
}

// registry maps experiment ids to declarations, with a stable presentation
// order.
var (
	registry = map[string]*Experiment{}
	order    []string
)

// presentation is the paper's order; registration order (Go init order
// across files) is alphabetical by file and not meaningful.
var presentation = []string{
	"3a", "3b", "3c", "3d", "3e", "3f", "3g", "3h", "overhead", "control-loss",
	"robust-failover", "mobility-continuity",
	"6", "8", "9", "10a", "10b",
	"compression", "11a", "11b", "12", "13", "many-site", "scale",
	"ablation-fastpath", "ablation-bearer", "ablation-stages",
	"ablation-radius", "ablation-solver", "ablation-qci", "ablation-index",
}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	if e.Trials == nil || e.Assemble == nil {
		panic("experiments: incomplete declaration for " + e.ID)
	}
	exp := e
	registry[e.ID] = &exp
	order = append(order, e.ID)
}

// registerSolo declares an experiment that has no useful decomposition (a
// pure table, or a single measurement run) as one trial.
func registerSolo(id, title string, run func(opts Options, seed uint64) *Result) {
	register(Experiment{
		ID:    id,
		Title: title,
		Trials: func(opts Options) []Trial {
			return []Trial{{Key: "all", Run: func(seed uint64) any { return run(opts, seed) }}}
		},
		Assemble: func(_ Options, parts []any) *Result { return parts[0].(*Result) },
	})
}

// IDs returns all experiment ids in presentation order; experiments not in
// the canonical list (if any are added) follow in registration order.
func IDs() []string {
	seen := map[string]bool{}
	var out []string
	for _, id := range presentation {
		if _, ok := registry[id]; ok {
			out = append(out, id)
			seen[id] = true
		}
	}
	for _, id := range order {
		if !seen[id] {
			out = append(out, id)
		}
	}
	return out
}

// Title returns the registered title for an id.
func Title(id string) string {
	if e, ok := registry[id]; ok {
		return e.Title
	}
	return ""
}

// Run executes one experiment by id: its trials are scheduled on the
// worker pool (bounded by opts.Parallel) and the result assembled in trial
// order. A panicking trial surfaces as an error; sibling trials still run.
func Run(id string, opts Options) (*Result, error) {
	e, ok := registry[id]
	if !ok {
		var known []string
		known = append(known, order...)
		sort.Strings(known)
		return nil, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(known, ", "))
	}
	results, err := runExperiments(opts, []*Experiment{e})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunAll executes every experiment in presentation order, scheduling the
// trials of all experiments on one shared worker pool. Results come back in
// presentation order. Experiments with failed trials are omitted from the
// result slice; their errors are joined into the returned error, so one
// broken experiment does not lose the rest of the sweep.
func RunAll(opts Options) ([]*Result, error) {
	exps := make([]*Experiment, 0, len(registry))
	for _, id := range IDs() {
		exps = append(exps, registry[id])
	}
	return runExperiments(opts, exps)
}

// runExperiments flattens the experiments' trials into one task list, runs
// it on the bounded pool, and reassembles per-experiment results in
// declaration order — the single code path behind Run and RunAll.
func runExperiments(opts Options, exps []*Experiment) ([]*Result, error) {
	base := opts.BaseSeed()
	type span struct {
		exp    *Experiment
		trials []Trial
		lo     int // index of the experiment's first task
	}
	var (
		spans []span
		tasks []exec.Task[any]
	)
	for _, e := range exps {
		trials := e.Trials(opts)
		if err := checkTrialKeys(e.ID, trials); err != nil {
			return nil, err
		}
		spans = append(spans, span{exp: e, trials: trials, lo: len(tasks)})
		for _, t := range trials {
			tasks = append(tasks, exec.Task[any]{
				Key: e.ID + "/" + t.Key,
				Run: func() (any, error) {
					// Start each trial from a collected heap, so its
					// memory peak does not hang on the GC cycle earlier
					// trials left running (DESIGN.md, "Collection").
					runtime.GC()
					return t.Run(trialSeed(base, e.ID, t.Key)), nil
				},
			})
		}
	}

	var progress func(done, total int, o exec.Outcome[any])
	if opts.Progress != nil {
		progress = func(done, total int, o exec.Outcome[any]) {
			opts.Progress(done, total, o.Key, o.Err)
		}
	}
	outs := exec.RunProgress(opts.Parallel, tasks, progress)

	var (
		results []*Result
		errs    []error
	)
	for _, sp := range spans {
		parts := make([]any, len(sp.trials))
		snaps := make([]*telemetry.Snapshot, 0, len(sp.trials))
		var expErrs []error
		for i := range sp.trials {
			o := outs[sp.lo+i]
			if o.Err != nil {
				expErrs = append(expErrs, o.Err)
				continue
			}
			// Unwrap Metered trial results: Assemble sees the bare part,
			// while the snapshots merge (in declaration order) into
			// Result.Metrics below.
			if m, ok := o.Value.(Metered); ok {
				parts[i] = m.Part
				if m.Snap != nil {
					snaps = append(snaps, m.Snap)
				}
				continue
			}
			parts[i] = o.Value
		}
		if len(expErrs) > 0 {
			errs = append(errs, fmt.Errorf("experiments: %s: %w", sp.exp.ID, errors.Join(expErrs...)))
			continue
		}
		r, err := assemble(sp.exp, opts, parts)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if r != nil && len(snaps) > 0 {
			if r.Metrics != nil {
				// Assemble set its own snapshot (e.g. a registry delta);
				// fold the trial snapshots in after it.
				snaps = append([]*telemetry.Snapshot{r.Metrics}, snaps...)
			}
			r.Metrics = telemetry.MergeSnapshots(snaps...)
		}
		results = append(results, r)
	}
	return results, errors.Join(errs...)
}

// assemble runs the experiment's Assemble step, converting a panic there
// into an error so a broken assembly cannot kill a multi-experiment sweep.
func assemble(e *Experiment, opts Options, parts []any) (r *Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("experiments: %s: assemble panicked: %v", e.ID, rec)
		}
	}()
	return e.Assemble(opts, parts), nil
}

func checkTrialKeys(id string, trials []Trial) error {
	if len(trials) == 0 {
		return fmt.Errorf("experiments: %s declares no trials", id)
	}
	seen := map[string]bool{}
	for _, t := range trials {
		if t.Key == "" {
			return fmt.Errorf("experiments: %s has a trial with an empty key", id)
		}
		if seen[t.Key] {
			return fmt.Errorf("experiments: %s has duplicate trial key %q", id, t.Key)
		}
		seen[t.Key] = true
	}
	return nil
}
