package experiments

import (
	"strings"
	"testing"
)

// renderWithMetrics renders an experiment the way cmd/acacia-sim does with
// -metrics: result tables plus the merged telemetry table.
func renderWithMetrics(t *testing.T, id string, opts Options) string {
	t.Helper()
	r, err := Run(id, opts)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(r.String())
	if r.Metrics != nil {
		b.WriteString(r.Metrics.String())
	}
	return b.String()
}

// TestManySiteModesIdentical asserts the many-site experiment's own verdict:
// the windowed execution must reproduce the sequential run exactly
// (counters, state checksums, merged telemetry).
func TestManySiteModesIdentical(t *testing.T) {
	out := renderWithMetrics(t, "many-site", Options{})
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("partitioned modes diverged from sequential:\n%s", out)
	}
	if strings.Count(out, "IDENTICAL") != 1 {
		t.Fatalf("expected exactly one IDENTICAL verdict:\n%s", out)
	}
}

// TestIntraParallelExperimentOutputIdentical is the ISSUE's regression gate
// for an existing experiment: figure 13 rendered with the partitioned
// engine must be byte-identical to the single-queue rendering, including the
// merged telemetry table.
func TestIntraParallelExperimentOutputIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig13 sweep")
	}
	seq := renderWithMetrics(t, "13", Options{})
	par := renderWithMetrics(t, "13", Options{IntraParallel: 2})
	if seq != par {
		t.Errorf("IntraParallel=2 output differs from sequential:\n--- sequential ---\n%s\n--- partitioned ---\n%s", seq, par)
	}
}

// TestMobilityContinuityOutputIdentical gates the first scenario where a
// live session migrates between partitions: the mobility-continuity
// experiment — cross-site handover, MRS relocation and the CI-to-CI state
// transfer all crossing the partition boundary — must render byte-identical
// under the single queue and the windowed engine. Any positive IntraParallel
// is the one partitioned mode; 1 and 2 are both run because the benchmark's
// cluster.* probe sets 0/1/2 and requires equal fingerprints.
func TestMobilityContinuityOutputIdentical(t *testing.T) {
	seq := renderWithMetrics(t, "mobility-continuity", Options{})
	for _, n := range []int{1, 2} {
		par := renderWithMetrics(t, "mobility-continuity", Options{IntraParallel: n})
		if seq != par {
			t.Errorf("IntraParallel=%d output differs from sequential:\n--- sequential ---\n%s\n--- partitioned ---\n%s", n, seq, par)
		}
	}
}

// TestMobilityContinuityStateColumn pins the migrated state size per
// DB-feature setting to the values the eager database produced: the lazy
// database (vision.BuildRetailDB) answers feature counts without generating
// descriptors, and the state a migration ships must still be sized by them.
func TestMobilityContinuityStateColumn(t *testing.T) {
	r, err := Run("mobility-continuity", Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{{"50", "199.6"}, {"200", "797.3"}, {"400", "1594.2"}}
	rows := r.Tables[0].Rows
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if rows[i][0] != w[0] || rows[i][1] != w[1] {
			t.Errorf("row %d: features/obj, state (KB) = %s, %s; want %s, %s", i, rows[i][0], rows[i][1], w[0], w[1])
		}
	}
}
