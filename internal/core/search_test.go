package core

import (
	"testing"

	"acacia/internal/d2d"
	"acacia/internal/geo"
	"acacia/internal/localization"
	"acacia/internal/sim"
	"acacia/internal/vision"
)

// TestSearchSpaceRules pins the semantics of the AR search rules the
// back-end and the Fig. 11/12 evaluations share: when a scheme falls back
// to the whole database, what a search covers, and how many objects it
// compares.
func TestSearchSpaceRules(t *testing.T) {
	floor := geo.RetailFloor()
	db := vision.BuildRetailDB(floor, DBObjectFeatures)
	spot := floor.Checkpoints[0].Pos

	for _, c := range []struct {
		name      string
		scheme    Scheme
		hasEst    bool
		strongest []string
	}{
		{"ACACIA without an estimate", SchemeACACIA, false, []string{"L1", "L2"}},
		{"rxPower without landmarks", SchemeRxPower, true, nil},
		{"rxPower with unknown landmarks", SchemeRxPower, true, []string{"", "L99"}},
		{"Naive", SchemeNaive, true, []string{"L1", "L2"}},
	} {
		if cells := SearchSpace(floor, c.scheme, spot, c.hasEst, c.strongest); cells != nil {
			t.Errorf("%s: searches %v, want the whole database (nil)", c.name, cells)
		}
	}

	// The whole database: 105 objects, covering every position on the floor
	// (the upper edge reached through Clamp) and none off it.
	if n, want := CandidateCount(floor, nil), len(db.Objects); n != 105 || n != want {
		t.Errorf("a nil search counts %d candidates, want 105 (the retail DB holds %d)", n, want)
	}
	for x := 0.0; x <= floor.Bounds.Max.X; x += 1.5 {
		for y := 0.0; y <= floor.Bounds.Max.Y; y += 1.5 {
			if p := floor.Bounds.Clamp(geo.Point{X: x, Y: y}); !Covers(floor, nil, p) {
				t.Fatalf("a nil search does not cover %v", p)
			}
		}
	}
	if Covers(floor, nil, geo.Point{X: -1, Y: -1}) {
		t.Error("a search covers a position off the floor")
	}

	// ACACIA at an exact checkpoint position covers its subsection within
	// the paper's 2-6 of 21 cells, and counts what the DB holds there.
	for _, cp := range floor.Checkpoints {
		cells := SearchSpace(floor, SchemeACACIA, cp.Pos, true, nil)
		if !Covers(floor, cells, cp.Pos) {
			t.Errorf("%s: ACACIA search %v misses the checkpoint's own subsection", cp.Name, cells)
		}
		if len(cells) < 2 || len(cells) > 6 {
			t.Errorf("%s: ACACIA searches %d cells, want 2-6", cp.Name, len(cells))
		}
		if n, want := CandidateCount(floor, cells), len(db.InSubsections(cells)); n != want {
			t.Errorf("%s: %d candidates counted, the DB holds %d in %v", cp.Name, n, want, cells)
		}
	}

	// rxPower prunes to whole sections: L4 advertises electronics, two
	// columns of three cells.
	cells := SearchSpace(floor, SchemeRxPower, spot, false, []string{"L4"})
	if n := CandidateCount(floor, cells); len(cells) != 6 || n != 30 {
		t.Errorf("rxPower on L4 searches %v (%d candidates), want 6 electronics cells (30)", cells, n)
	}
	if Covers(floor, cells, spot) {
		t.Errorf("rxPower on L4 covers %v, a food checkpoint", spot)
	}
}

// TestMatchMACsCountsTheMatcher ties the cost model every experiment and
// the back-end charge to the matcher it stands for: matching a frame of an
// object under the ratio and symmetry stages counts exactly MatchMACs of
// one object. The frame shows the object, so the ratio stage keeps
// candidates and the reverse scan runs.
func TestMatchMACsCountsTheMatcher(t *testing.T) {
	obj := vision.GenerateObjectFeatures(7, DBObjectFeatures)
	frame := vision.GenerateFrame(obj, vision.DefaultFrameParams(300), sim.NewRNG(8))
	ratio := vision.NewMatcher(vision.MatcherConfig{Stages: vision.StageRatio}, sim.NewRNG(9)).Match(frame, obj)
	if len(ratio.Correspondences) == 0 {
		t.Fatal("the ratio stage kept no candidate: the reverse scan would not run")
	}
	m := vision.NewMatcher(vision.MatcherConfig{Stages: vision.StageRatio | vision.StageSymmetry}, sim.NewRNG(9))
	got := m.Match(frame, obj).MACs
	if want := MatchMACs(float64(frame.Len()), float64(obj.Len()), 1); got != want {
		t.Errorf("the matcher counted %g MACs, MatchMACs models %g", got, want)
	}
}

// TestLandmarkRangesEstimateThePosition runs the ranging and estimate rules
// on shadowing-free readings: every checkpoint is recovered within half a
// meter, an unknown landmark gives no range, two ranges fix no position,
// and exact ranges to a point off the floor give an estimate on it.
func TestLandmarkRangesEstimateThePosition(t *testing.T) {
	floor := geo.RetailFloor()
	fit := CalibrateFromChannel(d2d.DefaultPathLoss)
	if _, ok := LandmarkRange(floor, fit, "L99", -60); ok {
		t.Error("an unknown landmark gave a range")
	}
	off := geo.Point{X: 100, Y: 100}
	var far []localization.Measurement
	for _, l := range floor.Landmarks {
		far = append(far, localization.Measurement{Landmark: l.Pos, Distance: l.Pos.Dist(off)})
	}
	if est, ok := EstimatePosition(floor, far); !ok || !floor.Bounds.Contains(est) {
		t.Errorf("ranges to %v estimate %v (ok %v), want a point on the floor", off, est, ok)
	}
	for _, cp := range floor.Checkpoints {
		var ms []localization.Measurement
		for _, l := range floor.Landmarks {
			m, ok := LandmarkRange(floor, fit, l.Name, d2d.DefaultPathLoss.MeanRxPower(l.Pos.Dist(cp.Pos)))
			if !ok || m.Landmark != l.Pos {
				t.Fatalf("%s: range to %s = %+v, %v", cp.Name, l.Name, m, ok)
			}
			ms = append(ms, m)
		}
		if est, ok := EstimatePosition(floor, ms); !ok || est.Dist(cp.Pos) > 0.5 || !floor.Bounds.Contains(est) {
			t.Errorf("%s at %v: estimate %v (ok %v)", cp.Name, cp.Pos, est, ok)
		}
		if _, ok := EstimatePosition(floor, ms[:2]); ok {
			t.Errorf("%s: two ranges fixed a position", cp.Name)
		}
	}
}
