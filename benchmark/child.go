package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// childArgs select what one child process does. Every repetition of every
// workload runs in a fresh child so no rep inherits heap, pools or GC
// pacing from another.
type childArgs struct {
	Workload string
	Seed     uint64
	Smoke    bool
	// Traced runs the timed region under runtime/pprof with spans on.
	Traced bool
	// SetupOnly stops after set-up: an extra setup_s sample.
	SetupOnly bool
	// BreakCheck deliberately violates one correctness check.
	BreakCheck bool
	// SpawnedNs is the parent's wall clock just before it started the
	// child; setup_s counts from there.
	SpawnedNs int64
	// OutDir receives the traced child's profile and spans.
	OutDir string
}

// childReport is the one JSON line a child prints.
type childReport struct {
	Workload    string             `json:"workload"`
	SetupS      float64            `json:"setup_s"`
	WallS       float64            `json:"wall_s"`
	Mallocs     uint64             `json:"mallocs"`
	AllocBytes  uint64             `json:"alloc_bytes"`
	Ops         int64              `json:"ops"`
	Attempted   int64              `json:"attempted"`
	Violations  []string           `json:"violations,omitempty"`
	Fingerprint string             `json:"fingerprint"`
	Counts      map[string]float64 `json:"counts,omitempty"`
	// Traced children only.
	Samples int64              `json:"samples,omitempty"`
	Shares  map[string]float64 `json:"shares,omitempty"`
	// Probe children only.
	Probes map[string]float64 `json:"probes,omitempty"`

	// Filled in by the parent from the child's rusage.
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// failedOps is how many of the rep's ops count as failed: a violated check
// fails all of them, since no number from that rep can be trusted.
func (r *childReport) failedOps() int64 {
	if len(r.Violations) > 0 {
		return r.Attempted
	}
	return 0
}

func shapeFor(seed uint64, smoke bool) shape {
	if smoke {
		return smokeShape(seed)
	}
	return fullShape(seed)
}

// runChild does one repetition in this process and writes its report to w.
func runChild(a childArgs, w io.Writer) error {
	sh := shapeFor(a.Seed, a.Smoke)
	if a.Workload == "probes" {
		tr := newTracer("probes")
		probes, err := runProbes(a.Seed, sh, tr)
		if err != nil {
			return err
		}
		rep := childReport{Workload: "probes", Probes: probes}
		if err := writeSpans(spansPath(a.OutDir, "probes"), tr.spans); err != nil {
			return err
		}
		return json.NewEncoder(w).Encode(rep)
	}

	timed, err := prepare(a.Workload, a.Seed, sh, a.Traced, a.BreakCheck)
	if err != nil {
		return err
	}
	// Start the timed region from a collected heap so set-up garbage is
	// charged to set-up.
	runtime.GC()
	rep := childReport{Workload: a.Workload}
	entered := time.Now()
	if a.SpawnedNs > 0 {
		rep.SetupS = float64(entered.UnixNano()-a.SpawnedNs) / 1e9
	}
	if a.SetupOnly {
		return json.NewEncoder(w).Encode(rep)
	}

	var tr *tracer
	var prof bytes.Buffer
	if a.Traced {
		tr = newTracer(a.Workload)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res := timed(tr)
	rep.WallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	if a.Traced {
		pprof.StopCPUProfile()
	}

	rep.Mallocs = m1.Mallocs - m0.Mallocs
	rep.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	rep.Ops, rep.Attempted = res.Ops, res.Attempted
	rep.Violations, rep.Fingerprint, rep.Counts = res.Violations, res.Fingerprint, res.Counts

	if a.Traced {
		att, err := attribute(prof.Bytes())
		if err != nil {
			return err
		}
		rep.Samples, rep.Shares = att.Samples, att.Shares
		if err := os.MkdirAll(a.OutDir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(a.OutDir, a.Workload+".pprof"), prof.Bytes(), 0o644); err != nil {
			return err
		}
		if err := writeSpans(spansPath(a.OutDir, a.Workload), tr.spans); err != nil {
			return err
		}
	}
	return json.NewEncoder(w).Encode(rep)
}

func spansPath(outDir, workload string) string {
	return filepath.Join(outDir, "spans."+workload+".json")
}
