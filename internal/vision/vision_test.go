package vision

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"acacia/internal/geo"
	"acacia/internal/sim"
)

func TestDescriptorDistSq(t *testing.T) {
	var a, b Descriptor
	a[0], b[1] = 1, 1
	if d := a.DistSq(&a); d != 0 {
		t.Errorf("self distance = %v", d)
	}
	if d := a.DistSq(&b); d != 2 {
		t.Errorf("orthogonal unit distance² = %v, want 2", d)
	}
}

// TestKNNMatchesDistSq checks the paired 2-NN scan against a plain DistSq
// scan, bit for bit, over odd and even train counts, with one knn reused
// across sizes as a Matcher reuses it.
func TestKNNMatchesDistSq(t *testing.T) {
	rng := sim.NewRNG(7)
	descs := func(n int) []Descriptor {
		out := make([]Descriptor, n)
		for i := range out {
			out[i] = randomDescriptor(rng)
		}
		return out
	}
	var k knn
	for _, sizes := range [][2]int{{9, 64}, {9, 65}, {5, 1}, {3, 2}, {12, 3}, {1, 0}, {0, 4}, {7, 96}, {16, 31}} {
		q, tr := descs(sizes[0]), descs(sizes[1])
		// A duplicate makes a tie, which must break as the plain scan does.
		if len(tr) > 2 {
			tr[len(tr)-1] = tr[1]
		}
		macs := k.scan(q, tr)
		if want := float64(len(q)*len(tr)) * DescriptorDim; macs != want {
			t.Errorf("%v: macs = %v, want %v", sizes, macs, want)
		}
		if len(k.best) != len(q) || len(k.d1) != len(q) || len(k.d2) != len(q) {
			t.Fatalf("%v: result lengths %d/%d/%d, want %d", sizes, len(k.best), len(k.d1), len(k.d2), len(q))
		}
		for i := range q {
			b, b1, b2 := -1, math.Inf(1), math.Inf(1)
			for j := range tr {
				d := q[i].DistSq(&tr[j])
				if d < b1 {
					b, b2, b1 = j, b1, d
				} else if d < b2 {
					b2 = d
				}
			}
			if k.best[i] != b || math.Float64bits(k.d1[i]) != math.Float64bits(b1) || math.Float64bits(k.d2[i]) != math.Float64bits(b2) {
				t.Errorf("%v query %d: got (%d, %v, %v), want (%d, %v, %v)", sizes, i, k.best[i], k.d1[i], k.d2[i], b, b1, b2)
			}
		}
	}
}

func TestDescriptorNormalization(t *testing.T) {
	rng := sim.NewRNG(5)
	f := func(seed uint64) bool {
		d := randomDescriptor(sim.NewRNG(seed))
		var sum float64
		for _, v := range d {
			sum += float64(v) * float64(v)
		}
		return sum > 0.999 && sum < 1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	_ = rng
}

func TestPerturbStaysClose(t *testing.T) {
	rng := sim.NewRNG(7)
	orig := randomDescriptor(rng)
	pert := perturb(&orig, 0.05, rng)
	other := randomDescriptor(rng)
	if orig.DistSq(&pert) >= orig.DistSq(&other) {
		t.Error("perturbed descriptor farther than a random one")
	}
}

func TestGenerateObjectFeaturesDeterministic(t *testing.T) {
	a := GenerateObjectFeatures(42, 100)
	b := GenerateObjectFeatures(42, 100)
	if a.Len() != 100 || b.Len() != 100 {
		t.Fatalf("lengths %d/%d", a.Len(), b.Len())
	}
	for i := range a.Descriptors {
		if a.Descriptors[i] != b.Descriptors[i] || a.Keypoints[i] != b.Keypoints[i] {
			t.Fatal("same seed produced different features")
		}
	}
	c := GenerateObjectFeatures(43, 100)
	if a.Descriptors[0] == c.Descriptors[0] {
		t.Error("different seeds produced identical first descriptor")
	}
}

func TestGenerateFrameComposition(t *testing.T) {
	obj := GenerateObjectFeatures(1, 200)
	params := DefaultFrameParams(100)
	frame := GenerateFrame(obj, params, sim.NewRNG(2))
	if frame.Len() != 100 {
		t.Errorf("frame features = %d, want 100", frame.Len())
	}
	// Object fraction capped by object size.
	small := GenerateObjectFeatures(1, 10)
	frame2 := GenerateFrame(small, params, sim.NewRNG(2))
	if frame2.Len() != 100 {
		t.Errorf("capped frame features = %d, want 100 (more clutter)", frame2.Len())
	}
}

func TestMatcherFindsObjectInFrame(t *testing.T) {
	obj := GenerateObjectFeatures(11, 150)
	frame := GenerateFrame(obj, DefaultFrameParams(120), sim.NewRNG(3))
	m := NewMatcher(MatcherConfig{}, sim.NewRNG(4))
	res := m.Match(frame, obj)
	if !res.Matched {
		t.Fatalf("object not matched: inliers=%d", res.Inliers)
	}
	if res.Inliers < 8 {
		t.Errorf("inliers = %d", res.Inliers)
	}
	if res.MACs <= 0 {
		t.Error("no MACs accounted")
	}
}

// ransacModel is RANSAC with a fresh inlier slice per hypothesis: the
// reference Matcher.ransac's two swapped buffers must reproduce.
func ransacModel(cfg MatcherConfig, rng *sim.RNG, query, train *FeatureSet, cands []Correspondence) ([]Correspondence, int) {
	if len(cands) < 2 {
		return nil, 0
	}
	var best []Correspondence
	for iter := 0; iter < cfg.RANSACIters; iter++ {
		a, b := cands[rng.Intn(len(cands))], cands[rng.Intn(len(cands))]
		if a == b {
			continue
		}
		ta, tb, qa, qb := train.Keypoints[a.T], train.Keypoints[b.T], query.Keypoints[a.Q], query.Keypoints[b.Q]
		tn := math.Hypot(float64(tb.X-ta.X), float64(tb.Y-ta.Y))
		if tn < 1e-6 {
			continue
		}
		s := math.Hypot(float64(qb.X-qa.X), float64(qb.Y-qa.Y)) / tn
		if s < 0.1 || s > 10 {
			continue
		}
		tx, ty := float64(qa.X)-float64(ta.X)*s, float64(qa.Y)-float64(ta.Y)*s
		var inliers []Correspondence
		for _, c := range cands {
			dx := float64(train.Keypoints[c.T].X)*s + tx - float64(query.Keypoints[c.Q].X)
			dy := float64(train.Keypoints[c.T].Y)*s + ty - float64(query.Keypoints[c.Q].Y)
			if dx*dx+dy*dy <= cfg.RANSACTol*cfg.RANSACTol {
				inliers = append(inliers, c)
			}
		}
		if len(inliers) > len(best) {
			best = inliers
		}
	}
	return best, len(best)
}

// TestRANSACMatchesPerHypothesisModel runs one matcher's RANSAC over
// several correspondence sets, one after another so its buffers carry over,
// against the per-hypothesis model on the same random stream: a frame's
// true matches diluted with random pairs, the true matches alone, and a
// degenerate set no hypothesis can come from. Each must give the same
// consensus set, nil when none formed.
func TestRANSACMatchesPerHypothesisModel(t *testing.T) {
	obj := GenerateObjectFeatures(11, 150)
	query := GenerateFrame(obj, DefaultFrameParams(120), sim.NewRNG(3))
	pre := NewMatcher(MatcherConfig{Stages: StageRatio | StageSymmetry}, sim.NewRNG(1))
	truth := pre.Match(query, obj).Correspondences
	noise := sim.NewRNG(9)
	diluted := append([]Correspondence(nil), truth...)
	for range truth {
		diluted = append(diluted, Correspondence{Q: noise.Intn(len(query.Keypoints)), T: noise.Intn(len(obj.Keypoints))})
	}
	degenerate := []Correspondence{{Q: 0, T: 0}, {Q: 0, T: 0}}

	m := NewMatcher(MatcherConfig{}, sim.NewRNG(4))
	model := sim.NewRNG(4)
	for i, cands := range [][]Correspondence{diluted, truth, degenerate, diluted[:len(diluted)/3]} {
		got, n := m.ransac(query, obj, cands)
		want, wn := ransacModel(m.cfg, model, query, obj, cands)
		if n != wn || !reflect.DeepEqual(got, want) {
			t.Fatalf("set %d: consensus %d %v, model %d %v", i, n, got, wn, want)
		}
		if (i == 0 && (n < 8 || n == len(cands))) || (i == 2 && got != nil) {
			t.Fatalf("set %d: consensus %d of %d (nil %v) does not exercise the case", i, n, len(cands), got == nil)
		}
	}
}

func TestMatcherRejectsWrongObject(t *testing.T) {
	obj := GenerateObjectFeatures(11, 150)
	other := GenerateObjectFeatures(999, 150)
	frame := GenerateFrame(obj, DefaultFrameParams(120), sim.NewRNG(3))
	m := NewMatcher(MatcherConfig{}, sim.NewRNG(4))
	if res := m.Match(frame, other); res.Matched {
		t.Errorf("matched wrong object with %d inliers", res.Inliers)
	}
}

func TestMatcherRejectsClutter(t *testing.T) {
	obj := GenerateObjectFeatures(11, 150)
	clutter := clutterFrame(120, sim.NewRNG(5))
	m := NewMatcher(MatcherConfig{}, sim.NewRNG(4))
	if res := m.Match(clutter, obj); res.Matched {
		t.Errorf("matched clutter with %d inliers", res.Inliers)
	}
}

func TestMatcherEmptyInputs(t *testing.T) {
	m := NewMatcher(MatcherConfig{}, sim.NewRNG(1))
	empty := &FeatureSet{}
	obj := GenerateObjectFeatures(1, 10)
	if res := m.Match(empty, obj); res.Matched || res.MACs != 0 {
		t.Error("empty query should not match")
	}
	if res := m.Match(obj, empty); res.Matched || res.MACs != 0 {
		t.Error("empty train should not match")
	}
}

func TestStageAblationRelaxesFiltering(t *testing.T) {
	// Without RANSAC, acceptance uses raw correspondence counts: the
	// pipeline should still find the true object, and the full pipeline
	// must never pass more correspondences than a prefix of it.
	obj := GenerateObjectFeatures(21, 150)
	frame := GenerateFrame(obj, DefaultFrameParams(120), sim.NewRNG(6))

	ratioOnly := NewMatcher(MatcherConfig{Stages: StageRatio}, sim.NewRNG(7)).Match(frame, obj)
	ratioSym := NewMatcher(MatcherConfig{Stages: StageRatio | StageSymmetry}, sim.NewRNG(7)).Match(frame, obj)
	full := NewMatcher(MatcherConfig{}, sim.NewRNG(7)).Match(frame, obj)

	if len(ratioSym.Correspondences) > len(ratioOnly.Correspondences) {
		t.Error("symmetry stage added correspondences")
	}
	if len(full.Correspondences) > len(ratioSym.Correspondences) {
		t.Error("RANSAC stage added correspondences")
	}
	if !full.Matched {
		t.Error("full pipeline missed the true object")
	}
	// Symmetry stage costs a reverse scan: more MACs than ratio alone.
	if ratioSym.MACs <= ratioOnly.MACs {
		t.Error("symmetry stage did not account its reverse scan")
	}
}

func TestRatioTestFiltersClutterMatches(t *testing.T) {
	// With the ratio stage disabled, every query feature yields a
	// candidate; with it enabled, clutter features are mostly dropped.
	obj := GenerateObjectFeatures(31, 150)
	frame := GenerateFrame(obj, DefaultFrameParams(120), sim.NewRNG(8))
	none := NewMatcher(MatcherConfig{Stages: StageRANSAC, MinInliers: 8}, sim.NewRNG(9)).Match(frame, obj)
	with := NewMatcher(MatcherConfig{Stages: StageRatio | StageRANSAC, MinInliers: 8}, sim.NewRNG(9)).Match(frame, obj)
	_ = none
	if !with.Matched {
		t.Error("ratio+RANSAC missed the true object")
	}
}

func TestBuildRetailDB(t *testing.T) {
	floor := geo.RetailFloor()
	db := BuildRetailDB(floor, 64)
	if db.Len() != 105 {
		t.Fatalf("objects = %d, want 105", db.Len())
	}
	perCell := map[int]int{}
	for i, o := range db.Objects {
		perCell[o.Subsection]++
		if o.Features().Len() != 64 {
			t.Fatalf("object %d has %d features", i, o.Features().Len())
		}
		if ss := floor.SubsectionAt(o.Pos); ss == nil || ss.ID != o.Subsection {
			t.Errorf("object %d position/subsection mismatch", i)
		}
	}
	if len(perCell) != 21 {
		t.Errorf("cells populated = %d, want 21", len(perCell))
	}
	cells := make([]int, 0, len(perCell))
	for cell := range perCell {
		cells = append(cells, cell)
	}
	sort.Ints(cells)
	for _, cell := range cells {
		if n := perCell[cell]; n != ObjectsPerRetailSubsection {
			t.Errorf("cell %d has %d objects", cell, n)
		}
	}
}

func TestDBInSubsections(t *testing.T) {
	floor := geo.RetailFloor()
	db := BuildRetailDB(floor, 32)
	if got := len(db.InSubsections(nil)); got != 105 {
		t.Errorf("nil = whole DB, got %d", got)
	}
	if got := len(db.InSubsections([]int{0, 1})); got != 10 {
		t.Errorf("two cells = %d objects, want 10", got)
	}
	if got := len(db.InSubsections([]int{})); got != 0 {
		t.Errorf("empty id list = %d objects, want 0", got)
	}
}

func TestSearchFindsCorrectObjectWithPruning(t *testing.T) {
	floor := geo.RetailFloor()
	db := BuildRetailDB(floor, 96)
	target := db.Objects[17]
	frame := GenerateFrame(target.Features(), DefaultFrameParams(120), sim.NewRNG(10))
	m := NewMatcher(MatcherConfig{}, sim.NewRNG(11))

	// Pruned search restricted to the target's cell.
	pruned := db.Search(frame, []int{target.Subsection}, m)
	if pruned.Best != target {
		t.Fatalf("pruned search returned %v", pruned.Best)
	}
	if pruned.Candidates != ObjectsPerRetailSubsection {
		t.Errorf("pruned candidates = %d", pruned.Candidates)
	}

	// Full search also finds it, at much higher cost.
	full := db.Search(frame, nil, m)
	if full.Best != target {
		t.Fatalf("full search returned %v", full.Best)
	}
	if full.Candidates != 105 {
		t.Errorf("full candidates = %d", full.Candidates)
	}
	if full.MACs <= pruned.MACs*10 {
		t.Errorf("full search MACs %.3g should dwarf pruned %.3g", full.MACs, pruned.MACs)
	}
}

func TestSearchNoMatchWhenObjectOutsidePrunedSet(t *testing.T) {
	// The rxPower baseline's failure mode (C13 false negative): pruning to
	// the wrong cells misses the object entirely.
	floor := geo.RetailFloor()
	db := BuildRetailDB(floor, 96)
	target := db.Objects[0] // subsection 0
	frame := GenerateFrame(target.Features(), DefaultFrameParams(120), sim.NewRNG(12))
	m := NewMatcher(MatcherConfig{}, sim.NewRNG(13))
	res := db.Search(frame, []int{5, 6}, m)
	if res.Best == target {
		t.Error("found object outside searched cells")
	}
}

func TestSearchMACsScaleWithCandidates(t *testing.T) {
	floor := geo.RetailFloor()
	db := BuildRetailDB(floor, 64)
	frame := clutterFrame(100, sim.NewRNG(14))
	m := NewMatcher(MatcherConfig{}, sim.NewRNG(15))
	one := db.Search(frame, []int{0}, m)
	four := db.Search(frame, []int{0, 1, 2, 3}, m)
	ratio := four.MACs / one.MACs
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("MAC ratio = %.2f, want ≈4", ratio)
	}
}

// TestRetailDBFeaturesLazy pins the lazy database: BuildRetailDB generates no
// descriptors, the count is answerable without generating any, and the first
// and second read of every object yield exactly the set the eager build
// stored — GenerateObjectFeatures(seed, n) of the object's stable seed.
func TestRetailDBFeaturesLazy(t *testing.T) {
	floor := geo.RetailFloor()
	const n = 48
	db := BuildRetailDB(floor, n)
	i := 0
	for _, ss := range floor.Subsections {
		for k := 0; k < ObjectsPerRetailSubsection; k++ {
			o := db.Objects[i]
			if got := o.FeatureCount(); got != n {
				t.Fatalf("object %d: FeatureCount = %d, want %d", i, got, n)
			}
			if o.Materialised() {
				t.Fatalf("object %d: materialised by the build or the count accessor", i)
			}
			want := GenerateObjectFeatures(uint64(ss.ID)*1000+uint64(k)+0xACAC1A, n)
			first := o.Features()
			if !o.Materialised() || !reflect.DeepEqual(first, want) {
				t.Fatalf("object %d: first read differs from GenerateObjectFeatures(seed, n)", i)
			}
			if second := o.Features(); second != first || !reflect.DeepEqual(second, want) {
				t.Fatalf("object %d: second read is not the first read's set", i)
			}
			i++
		}
	}
	if i != db.Len() {
		t.Fatalf("visited %d of %d objects", i, db.Len())
	}
}

// clutterFrame synthesizes a frame containing no database object at
// all — the no-match case.
func clutterFrame(totalFeatures int, rng *sim.RNG) *FeatureSet {
	fs := &FeatureSet{
		Keypoints:   make([]Keypoint, totalFeatures),
		Descriptors: make([]Descriptor, totalFeatures),
	}
	for i := 0; i < totalFeatures; i++ {
		fs.Keypoints[i] = Keypoint{X: float32(rng.Float64()), Y: float32(rng.Float64())}
		fs.Descriptors[i] = randomDescriptor(rng)
	}
	return fs
}
