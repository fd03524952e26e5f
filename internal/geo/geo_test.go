package geo

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestPointDist(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := (Point{1, 1}).Dist(Point{1, 1}); d != 0 {
		t.Errorf("self distance = %v", d)
	}
}

func TestDistSymmetryAndTriangle(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1000)
		}
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		if math.Abs(a.Dist(b)-b.Dist(a)) > 1e-9 {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 20}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != (Point{5, 10}) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{Min: Point{0, 0}, Max: Point{6, 10}}
	if !r.Contains(Point{0, 0}) {
		t.Error("min corner should be inside")
	}
	if r.Contains(Point{6, 10}) {
		t.Error("max corner should be outside")
	}
	if !r.Contains(Point{3, 5}) {
		t.Error("center should be inside")
	}
	if r.Center() != (Point{3, 5}) {
		t.Errorf("Center = %v", r.Center())
	}
}

func TestClampResultsAreContained(t *testing.T) {
	r := Rect{Min: Point{0, 0}, Max: Point{6, 10}}
	pts := []Point{
		{-1, -1}, {7, 11}, {6, 10}, {6, 5}, {3, 10},
		{3, 5}, {0, 0}, {100, -100}, {5.999, 9.999},
	}
	for _, pt := range pts {
		c := r.Clamp(pt)
		if !r.Contains(c) {
			t.Errorf("Clamp(%v) = %v not Contained by %v", pt, c, r)
		}
	}
	// Interior points pass through unchanged.
	if got := r.Clamp(Point{3, 5}); got != (Point{3, 5}) {
		t.Errorf("interior point moved: %v", got)
	}
}

func TestClampedBoundaryEstimateStaysOnFloor(t *testing.T) {
	// A localization estimate clamped to the floor boundary must still map
	// to a subsection/section: the Max edge previously fell outside every
	// max-exclusive cell.
	f := RetailFloor()
	est := f.Bounds.Clamp(Point{RetailWidth + 3, RetailHeight + 3})
	if ss := f.SubsectionAt(est); ss == nil {
		t.Fatalf("clamped estimate %v in no subsection", est)
	}
	if sec := f.SectionAt(est); sec == "" {
		t.Fatalf("clamped estimate %v in no section", sec)
	}
	if ids := f.SubsectionsNear(est, 0); len(ids) == 0 {
		t.Fatal("clamped estimate prunes to zero subsections")
	}
}

func TestWalkerPosAndDuration(t *testing.T) {
	w := Walker{Path: Path{Waypoints: []Point{{0, 0}, {20, 0}}}, Speed: 2}
	if d := w.Duration(); d != 10*time.Second {
		t.Errorf("Duration = %v", d)
	}
	if p := w.PosAt(0); p != (Point{0, 0}) {
		t.Errorf("PosAt(0) = %v", p)
	}
	if p := w.PosAt(5 * time.Second); p != (Point{10, 0}) {
		t.Errorf("PosAt(5s) = %v", p)
	}
	if p := w.PosAt(time.Hour); p != (Point{20, 0}) {
		t.Errorf("PosAt(beyond) = %v", p)
	}
	if (Walker{Path: Path{Waypoints: []Point{{0, 0}, {20, 0}}}}).Duration() != 0 {
		t.Error("zero-speed walker has nonzero duration")
	}
}

func TestWalkerCrossings(t *testing.T) {
	// Walk 0→20 at 2 m/s with a midline at x=10: one crossing at t=5s.
	w := Walker{Path: Path{Waypoints: []Point{{0, 0}, {20, 0}}}, Speed: 2}
	cr := w.Crossings(MidlineCell(10), 250*time.Millisecond)
	if len(cr) != 1 {
		t.Fatalf("crossings = %v, want 1", cr)
	}
	if cr[0].From != 0 || cr[0].To != 1 {
		t.Errorf("crossing cells = %d→%d", cr[0].From, cr[0].To)
	}
	if diff := cr[0].At - 5*time.Second; diff < 0 || diff > 2*time.Millisecond {
		t.Errorf("crossing at %v, want ~5s", cr[0].At)
	}
	if p := w.PosAt(cr[0].At); p.X < 10 {
		t.Errorf("crossing pos %v still west of midline", p)
	}
	// There and back: two crossings, second one returns to cell 0.
	w2 := Walker{Path: Path{Waypoints: []Point{{0, 0}, {20, 0}, {0, 0}}}, Speed: 2}
	cr2 := w2.Crossings(MidlineCell(10), 250*time.Millisecond)
	if len(cr2) != 2 || cr2[1].From != 1 || cr2[1].To != 0 {
		t.Fatalf("round-trip crossings = %v", cr2)
	}
	// Determinism: same inputs, same output.
	again := w2.Crossings(MidlineCell(10), 250*time.Millisecond)
	if len(again) != len(cr2) || again[0] != cr2[0] || again[1] != cr2[1] {
		t.Error("crossings not deterministic")
	}
}

func TestWalkerCrossingsDegenerate(t *testing.T) {
	if cr := (Walker{}).Crossings(MidlineCell(10), time.Second); cr != nil {
		t.Errorf("empty walker crossings = %v", cr)
	}
	w := Walker{Path: Path{Waypoints: []Point{{0, 0}, {5, 0}}}, Speed: 1}
	if cr := w.Crossings(MidlineCell(10), time.Second); cr != nil {
		t.Errorf("no-crossing walk reported %v", cr)
	}
}

func TestRetailFloorStructure(t *testing.T) {
	f := RetailFloor()
	if got := len(f.Subsections); got != 21 {
		t.Errorf("subsections = %d, want 21", got)
	}
	if got := len(f.Sections); got != 5 {
		t.Errorf("sections = %d, want 5", got)
	}
	if got := len(f.Landmarks); got != 7 {
		t.Errorf("landmarks = %d, want 7", got)
	}
	if got := len(f.Checkpoints); got != 24 {
		t.Errorf("checkpoints = %d, want 24", got)
	}
}

func TestRetailFloorPartitionIsExhaustiveAndDisjoint(t *testing.T) {
	f := RetailFloor()
	// Sample a grid of points: each in-bounds point lies in exactly one
	// subsection.
	for x := 0.5; x < RetailWidth; x += 1.0 {
		for y := 0.5; y < RetailHeight; y += 1.0 {
			n := 0
			for i := range f.Subsections {
				if f.Subsections[i].Bounds.Contains(Point{x, y}) {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("point (%v,%v) in %d subsections", x, y, n)
			}
		}
	}
}

func TestRetailFloorEverySectionHasSubsections(t *testing.T) {
	f := RetailFloor()
	count := map[string]int{}
	for _, ss := range f.Subsections {
		count[ss.Section]++
	}
	for _, s := range f.Sections {
		if count[s] == 0 {
			t.Errorf("section %q has no subsections", s)
		}
	}
	total := 0
	for _, c := range count {
		total += c
	}
	if total != 21 {
		t.Errorf("subsection total = %d", total)
	}
}

func TestLandmarksAndCheckpointsInBounds(t *testing.T) {
	f := RetailFloor()
	for _, l := range f.Landmarks {
		if !f.Bounds.Contains(l.Pos) {
			t.Errorf("landmark %s at %v out of bounds", l.Name, l.Pos)
		}
		if f.SectionAt(l.Pos) != l.Section {
			t.Errorf("landmark %s section %q, floor says %q", l.Name, l.Section, f.SectionAt(l.Pos))
		}
	}
	for _, c := range f.Checkpoints {
		if !f.Bounds.Contains(c.Pos) {
			t.Errorf("checkpoint %s at %v out of bounds", c.Name, c.Pos)
		}
		if f.SubsectionAt(c.Pos) == nil {
			t.Errorf("checkpoint %s in no subsection", c.Name)
		}
	}
}

func TestSubsectionAtOutside(t *testing.T) {
	f := RetailFloor()
	if f.SubsectionAt(Point{-1, -1}) != nil {
		t.Error("out-of-bounds point mapped to a subsection")
	}
	if f.SectionAt(Point{999, 999}) != "" {
		t.Error("out-of-bounds point mapped to a section")
	}
}

func TestSubsectionsNear(t *testing.T) {
	f := RetailFloor()
	pt := Point{3, 5} // center of subsection 0
	ids := f.SubsectionsNear(pt, 0)
	if len(ids) != 1 || ids[0] != 0 {
		t.Errorf("radius 0 ids = %v, want [0]", ids)
	}
	// Paper: ACACIA searches 2-6 subsections out of 21 with ~3 m accuracy.
	ids = f.SubsectionsNear(pt, 6)
	if len(ids) < 2 || len(ids) > 6 {
		t.Errorf("radius 6 ids = %v, want 2..6 cells", ids)
	}
	// Larger radius covers more cells, never fewer.
	more := f.SubsectionsNear(pt, 12)
	if len(more) < len(ids) {
		t.Errorf("radius 12 returned fewer cells (%d) than radius 6 (%d)", len(more), len(ids))
	}
}

func TestSubsectionsOfSections(t *testing.T) {
	f := RetailFloor()
	food := f.SubsectionsOfSections("food")
	if len(food) != 6 { // 2 columns x 3 rows
		t.Errorf("food subsections = %d, want 6", len(food))
	}
	both := f.SubsectionsOfSections("food", "toys")
	if len(both) != 9 {
		t.Errorf("food+toys subsections = %d, want 9", len(both))
	}
	if len(f.SubsectionsOfSections("nonexistent")) != 0 {
		t.Error("unknown section returned cells")
	}
}

func TestFloorLookups(t *testing.T) {
	f := RetailFloor()
	if f.Landmark("L1") == nil || f.Landmark("L7") == nil {
		t.Error("missing landmark lookups")
	}
	if f.Landmark("L99") != nil {
		t.Error("phantom landmark")
	}
	if f.Checkpoint("C24") == nil {
		t.Error("missing checkpoint C24")
	}
	if f.Checkpoint("C25") != nil {
		t.Error("phantom checkpoint")
	}
}

func TestPathLengthAndAt(t *testing.T) {
	p := Path{Waypoints: []Point{{0, 0}, {10, 0}, {10, 10}}}
	if p.Length() != 20 {
		t.Errorf("Length = %v", p.Length())
	}
	if got := p.At(0); got != (Point{0, 0}) {
		t.Errorf("At(0) = %v", got)
	}
	if got := p.At(5); got != (Point{5, 0}) {
		t.Errorf("At(5) = %v", got)
	}
	if got := p.At(15); got != (Point{10, 5}) {
		t.Errorf("At(15) = %v", got)
	}
	if got := p.At(100); got != (Point{10, 10}) {
		t.Errorf("At(beyond) = %v", got)
	}
	if got := p.At(-5); got != (Point{0, 0}) {
		t.Errorf("At(negative) = %v", got)
	}
}

func TestEmptyPath(t *testing.T) {
	var p Path
	if p.Length() != 0 {
		t.Error("empty path length")
	}
	if p.At(5) != (Point{}) {
		t.Error("empty path At")
	}
}

func TestThreeLandmarkFloor(t *testing.T) {
	f := ThreeLandmarkFloor()
	if len(f.Landmarks) != 3 || len(f.Checkpoints) != 4 {
		t.Fatalf("landmarks=%d checkpoints=%d", len(f.Landmarks), len(f.Checkpoints))
	}
	path := Fig6WalkPath()
	if path.Length() != 50 {
		t.Errorf("walk length = %v, want 50", path.Length())
	}
	// The walk starts near landmark 1 and ends near landmark 3.
	if f.Landmarks[0].Pos.Dist(path.At(0)) > 2 {
		t.Error("walk does not start at landmark 1")
	}
	if f.Landmarks[2].Pos.Dist(path.At(path.Length())) > 2 {
		t.Error("walk does not end at landmark 3")
	}
}
