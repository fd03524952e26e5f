package experiments

import (
	"strconv"
	"strings"
	"testing"

	"acacia/internal/epc"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"3a", "3b", "3c", "3d", "3e", "3f", "3g", "3h", "overhead", "control-loss",
		"robust-failover", "mobility-continuity",
		"6", "8", "9", "10a", "10b",
		"compression", "11a", "11b", "12", "13", "many-site", "scale",
		"ablation-fastpath", "ablation-bearer", "ablation-stages", "ablation-radius", "ablation-solver", "ablation-qci", "ablation-index",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registered %d experiments, want %d: %v", len(got), len(want), got)
	}
	have := map[string]bool{}
	for _, id := range got {
		have[id] = true
		if Title(id) == "" {
			t.Errorf("experiment %q has no title", id)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("unknown id accepted")
	}
}

// cell fetches a table cell by row/col index, parsing floats.
func cell(t *testing.T, r *Result, table, row, col int) float64 {
	t.Helper()
	tb := r.Tables[table]
	raw := tb.Rows[row][col]
	raw = strings.TrimSuffix(raw, "%")
	raw = strings.TrimSuffix(raw, "x")
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		t.Fatalf("cell[%d][%d][%d] = %q not numeric", table, row, col, raw)
	}
	return v
}

func TestFig3aShape(t *testing.T) {
	r, err := Run("3a", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Phone 320x240 = 2 s; each device column strictly faster left-to-right.
	if got := cell(t, r, 0, 0, 2); got != 2 {
		t.Errorf("phone anchor = %v, want 2 s", got)
	}
	for row := 0; row < len(r.Tables[0].Rows); row++ {
		prev := cell(t, r, 0, row, 2)
		for col := 3; col <= 5; col++ {
			v := cell(t, r, 0, row, col)
			if v >= prev {
				t.Errorf("row %d: device col %d (%v) not faster than previous (%v)", row, col, v, prev)
			}
			prev = v
		}
	}
}

func TestFig3bSpeedupsMatchPaper(t *testing.T) {
	r, err := Run("3b", Options{})
	if err != nil {
		t.Fatal(err)
	}
	speed := r.Tables[1]
	for i, want := range []float64{223, 852, 3284} {
		got, _ := strconv.ParseFloat(speed.Rows[i][1], 64)
		if got < want*0.95 || got > want*1.05 {
			t.Errorf("%s speedup = %v, want ≈%v", speed.Rows[i][0], got, want)
		}
	}
}

func TestFig3cOrdering(t *testing.T) {
	r, err := Run("3c", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ca := cell(t, r, 0, 0, 3)
	or := cell(t, r, 0, 1, 3)
	va := cell(t, r, 0, 2, 3)
	if !(ca < or && or < va) {
		t.Errorf("median ordering CA=%v OR=%v VA=%v", ca, or, va)
	}
	// Paper: California median ≈70 ms.
	if ca < 55 || ca > 90 {
		t.Errorf("California median = %v ms, want ≈70", ca)
	}
}

func TestFig3dBandwidth(t *testing.T) {
	r, err := Run("3d", Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := 13.0
	for row := 0; row < 3; row++ {
		exc := cell(t, r, 0, row, 1)
		fair := cell(t, r, 0, row, 2)
		if exc <= fair {
			t.Errorf("row %d: excellent (%v) <= fair (%v)", row, exc, fair)
		}
		// Paper: California peaks ≈12 Mbps; farther regions achieve less
		// (longer RTTs slow the window ramp).
		if exc > prev+0.5 {
			t.Errorf("row %d: throughput %v rose with distance (prev %v)", row, exc, prev)
		}
		prev = exc
	}
	if ca := cell(t, r, 0, 0, 1); ca < 10 || ca > 12.5 {
		t.Errorf("California excellent = %v Mbps, want ≈12", ca)
	}
	if va := cell(t, r, 0, 2, 1); va < 5 {
		t.Errorf("Virginia excellent = %v Mbps, implausibly low", va)
	}
}

func TestFig3fShape(t *testing.T) {
	r, err := Run("3f", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	// Raw at 12 Mbps < 1 FPS (last row, last col); JPEG 90 ≈ 8.
	rawFPS := cell(t, r, 0, len(tb.Rows)-1, 3)
	if rawFPS >= 1 {
		t.Errorf("raw FPS = %v, want < 1", rawFPS)
	}
	jpeg90 := cell(t, r, 0, 2, 3)
	if jpeg90 < 7 || jpeg90 > 9 {
		t.Errorf("JPEG 90 FPS = %v, want ≈8", jpeg90)
	}
}

func TestOverheadMatchesPaperCounts(t *testing.T) {
	r, err := Run("overhead", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	for i, want := range []float64{7, 4, 4, 15} {
		got := cell(t, r, 0, i, 1)
		if got != want {
			t.Errorf("%s messages = %v, want %v", tb.Rows[i][0], got, want)
		}
	}
}

func TestControlLossShape(t *testing.T) {
	r, err := Run("control-loss", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	if len(tb.Rows) != 5 {
		t.Fatalf("control-loss has %d rows, want 5 loss rates", len(tb.Rows))
	}
	// Loss-free baseline: both procedures complete without retransmissions.
	if tb.Rows[0][1] != "ok" || tb.Rows[0][2] != "ok" {
		t.Errorf("loss-free row = %v, want attach/bearer ok", tb.Rows[0])
	}
	if got := cell(t, r, 0, 0, 3); got != 0 {
		t.Errorf("loss-free retransmissions = %v, want 0", got)
	}
	// Injected loss must exercise the recovery machinery somewhere.
	var retrans float64
	for i := 1; i < len(tb.Rows); i++ {
		retrans += cell(t, r, 0, i, 3)
	}
	if retrans == 0 {
		t.Error("no retransmissions across any lossy trial")
	}
	// Every row terminated: no procedure may hang regardless of loss.
	for i, row := range tb.Rows {
		if row[2] == "HUNG" {
			t.Errorf("row %d: bearer activation hung under loss", i)
		}
	}
	if r.Metrics == nil {
		t.Fatal("control-loss carries no metrics snapshot")
	}
	if _, ok := r.Metrics.Get("epc/txn/sent"); !ok {
		t.Error("metrics lack the epc/txn/sent counter")
	}
}

func TestMeasureCycleMatchesEPCBudget(t *testing.T) {
	msgs, bytes, delta := measureCycle(DefaultSeed)
	if msgs[epc.ProtoS1AP] != 7 || msgs[epc.ProtoGTPv2] != 4 || msgs[epc.ProtoOpenFlow] != 4 {
		t.Errorf("cycle messages = %v", msgs)
	}
	var total uint64
	for _, b := range bytes {
		total += b
	}
	if total < 900 || total > 4500 {
		t.Errorf("cycle bytes = %d", total)
	}
	// The counts are read from the unified registry delta; cross-check the
	// paper's §4 message counts directly against the snapshot, and confirm
	// the cycle left its state transitions on the timeline.
	if delta == nil {
		t.Fatal("measureCycle returned no registry delta")
	}
	if got := delta.CounterValue("epc/s1ap/msgs"); got != 7 {
		t.Errorf("registry epc/s1ap/msgs delta = %d, want 7", got)
	}
	if got := delta.CounterValue("epc/gtpv2/msgs"); got != 4 {
		t.Errorf("registry epc/gtpv2/msgs delta = %d, want 4", got)
	}
	if got := delta.CounterValue("sdn/controller/sent"); got != 4 {
		t.Errorf("registry sdn/controller/sent delta = %d, want 4", got)
	}
	states := map[string]bool{}
	tl := delta.Events
	for i := 0; i < tl.Len(); i++ {
		e := tl.At(i)
		if e.Name == "state" {
			states[e.Detail] = true
		}
	}
	for _, want := range []string{"idle", "promoting", "connected"} {
		if !states[want] {
			t.Errorf("timeline lacks a %q session-state event over the cycle (got %v)", want, states)
		}
	}
}

func TestFig8Ordering(t *testing.T) {
	r, err := Run("8", Options{})
	if err != nil {
		t.Fatal(err)
	}
	avg := r.Tables[1]
	openepc, _ := strconv.ParseFloat(avg.Rows[0][1], 64)
	acacia, _ := strconv.ParseFloat(avg.Rows[1][1], 64)
	ideal, _ := strconv.ParseFloat(avg.Rows[2][1], 64)
	if !(openepc < acacia && acacia <= ideal*1.01) {
		t.Errorf("ordering: openepc=%v acacia=%v ideal=%v", openepc, acacia, ideal)
	}
	if acacia < 0.85*ideal {
		t.Errorf("ACACIA (%v) should track ideal (%v)", acacia, ideal)
	}
}

func TestFig9ErrorDecreasesWithLandmarks(t *testing.T) {
	r, err := Run("9", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	first := cell(t, r, 0, 0, 2)             // mean error with 3 landmarks
	last := cell(t, r, 0, len(tb.Rows)-1, 2) // with 7
	if last >= first {
		t.Errorf("mean error did not improve: 3 landmarks %v vs 7 landmarks %v", first, last)
	}
	if last > 5 {
		t.Errorf("7-landmark mean error = %v m, paper ≈3 m", last)
	}
	// Best-worst spread shrinks with more landmarks.
	spreadFirst := cell(t, r, 0, 0, 3) - cell(t, r, 0, 0, 1)
	spreadLast := cell(t, r, 0, len(tb.Rows)-1, 3) - cell(t, r, 0, len(tb.Rows)-1, 1)
	if spreadLast >= spreadFirst {
		t.Errorf("best/worst spread did not shrink: %v vs %v", spreadFirst, spreadLast)
	}
}

func TestFig11aShape(t *testing.T) {
	r, err := Run("11a", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	for row := range tb.Rows {
		acacia := cell(t, r, 0, row, 1)
		rxp := cell(t, r, 0, row, 2)
		naive := cell(t, r, 0, row, 3)
		if !(acacia < rxp && rxp < naive) {
			t.Errorf("row %d ordering: %v %v %v", row, acacia, rxp, naive)
		}
		speedup := cell(t, r, 0, row, 4)
		if speedup < 3.5 || speedup > 11 {
			t.Errorf("row %d speedup = %v, paper up to 5.02x", row, speedup)
		}
	}
	// Accuracy table: ACACIA and Naive full coverage; rxPower may miss.
	acc := r.Tables[1]
	for _, row := range acc.Rows {
		fn, _ := strconv.ParseFloat(row[2], 64)
		switch row[0] {
		case "ACACIA", "Naive":
			if fn != 0 {
				t.Errorf("%s false negatives = %v", row[0], fn)
			}
		case "rxPower":
			if fn < 1 {
				t.Errorf("rxPower false negatives = %v, paper reports boundary misses", fn)
			}
		}
	}
}

func TestFig12Scaling(t *testing.T) {
	r, err := Run("12", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tblIdx := range []int{0, 1} {
		tb := r.Tables[tblIdx]
		for col := 1; col <= 3; col++ {
			one := cell(t, r, tblIdx, 0, col)
			eight := cell(t, r, tblIdx, 3, col)
			ratio := eight / one
			// Unequal per-round job sizes let concurrency fluctuate around
			// 8, so allow some spread about the ideal 8x.
			if ratio < 5 || ratio > 10 {
				t.Errorf("%s col %d: 8-client/1-client = %.2f, want ≈8 (processor sharing)", tb.Title, col, ratio)
			}
		}
	}
}

func TestFig13Reductions(t *testing.T) {
	r, err := Run("13", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	get := func(row, col int) float64 { return cell(t, r, 0, row, col) }
	_ = tb
	acaciaTotal, mecTotal, cloudTotal := get(3, 1), get(3, 2), get(3, 3)
	if !(acaciaTotal < mecTotal && mecTotal < cloudTotal) {
		t.Fatalf("totals: acacia=%v mec=%v cloud=%v", acaciaTotal, mecTotal, cloudTotal)
	}
	redVsCloud := 1 - acaciaTotal/cloudTotal
	if redVsCloud < 0.55 || redVsCloud > 0.85 {
		t.Errorf("ACACIA vs CLOUD reduction = %.0f%%, paper 70%%", redVsCloud*100)
	}
	redVsMEC := 1 - acaciaTotal/mecTotal
	if redVsMEC < 0.45 || redVsMEC > 0.85 {
		t.Errorf("ACACIA vs MEC reduction = %.0f%%, paper 60%%", redVsMEC*100)
	}
	// Match dominates the MEC/CLOUD bars; network is where CLOUD loses.
	if get(0, 1) >= get(0, 2) {
		t.Error("ACACIA match not below MEC match")
	}
	if get(2, 3) <= get(2, 1) {
		t.Error("CLOUD network not above ACACIA network")
	}
}

func TestAblationRadiusCoverage(t *testing.T) {
	r, err := Run("ablation-radius", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	// Candidates grow with radius; the default 6 m achieves full coverage.
	prev := 0.0
	for row := range tb.Rows {
		c := cell(t, r, 0, row, 1)
		if c < prev {
			t.Errorf("candidates shrank at row %d", row)
		}
		prev = c
	}
	// Tight radii lose coverage under ~3 m localization error; by 9 m the
	// true cell is always included.
	if cov := cell(t, r, 0, 0, 2); cov > 95 {
		t.Errorf("coverage at 2 m = %v%%, expected losses", cov)
	}
	if cov := cell(t, r, 0, 3, 2); cov < 99 {
		t.Errorf("coverage at 9 m = %v%%, want 100", cov)
	}
}

func TestAblationQCIPriority(t *testing.T) {
	r, err := Run("ablation-qci", Options{})
	if err != nil {
		t.Fatal(err)
	}
	q5 := cell(t, r, 0, 0, 1)
	q9 := cell(t, r, 0, 2, 1)
	if q5 >= q9/2 {
		t.Errorf("QCI 5 median %v not well below QCI 9 %v under load", q5, q9)
	}
	if q5 > 20 {
		t.Errorf("QCI 5 median %v ms should stay near the unloaded RTT", q5)
	}
}

func TestAblationSolver(t *testing.T) {
	r, err := Run("ablation-solver", Options{})
	if err != nil {
		t.Fatal(err)
	}
	gn := cell(t, r, 0, 0, 1)
	weighted := cell(t, r, 0, 1, 1)
	lin := cell(t, r, 0, 2, 1)
	if gn > lin*1.05 {
		t.Errorf("Gauss-Newton (%v) worse than linear (%v)", gn, lin)
	}
	if weighted > gn*1.05 {
		t.Errorf("weighted solver (%v) worse than unweighted (%v)", weighted, gn)
	}
}

func TestAblationStagesMonotoneWork(t *testing.T) {
	r, err := Run("ablation-stages", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratioWork := cell(t, r, 0, 0, 3)
	symWork := cell(t, r, 0, 1, 3)
	if symWork <= ratioWork {
		t.Error("symmetry stage did not add work")
	}
	// Full pipeline keeps true positives high.
	tp := cell(t, r, 0, 2, 1)
	if tp < cell(t, r, 0, 2, 2) {
		t.Error("full pipeline: fewer true positives than false matches")
	}
}

func TestResultString(t *testing.T) {
	r, err := Run("3e", Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	if !strings.Contains(s, "3e") || !strings.Contains(s, "1920x1080") {
		t.Errorf("render: %q", s)
	}
}

func TestAblationIndexShape(t *testing.T) {
	r, err := Run("ablation-index", Options{})
	if err != nil {
		t.Fatal(err)
	}
	brute := cell(t, r, 0, 0, 2)
	geoPruned := cell(t, r, 0, 1, 2)
	lsh5 := cell(t, r, 0, 2, 2)
	if !(lsh5 < geoPruned && geoPruned < brute) {
		t.Errorf("work ordering: lsh5=%v geo=%v brute=%v", lsh5, geoPruned, brute)
	}
	// Recall stays high for every strategy on clean frames.
	for row := 0; row < 3; row++ {
		if rec := cell(t, r, 0, row, 1); rec < 80 {
			t.Errorf("row %d recall = %v%%", row, rec)
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
