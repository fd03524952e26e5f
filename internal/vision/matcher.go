package vision

import (
	"cmp"
	"math"
	"slices"

	"acacia/internal/sim"
)

// MatcherConfig tunes the four-stage matching pipeline. Zero values select
// the defaults the AR back-end uses.
type MatcherConfig struct {
	// RatioThreshold is Lowe's 2-NN ratio test bound (default 0.75): the
	// best match must be this much closer than the second best.
	RatioThreshold float64
	// MinInliers is the RANSAC consensus needed to declare an object match
	// (default 8).
	MinInliers int
	// RANSACIters bounds model hypotheses per candidate (default 64).
	RANSACIters int
	// RANSACTol is the keypoint reprojection tolerance in normalized image
	// units (default 0.02).
	RANSACTol float64
	// Stages masks pipeline stages for the ablation study; the default
	// (StageAll) runs everything.
	Stages Stage
}

// Stage is a bitmask of pipeline stages.
type Stage uint8

// Pipeline stages, in execution order.
const (
	StageRatio Stage = 1 << iota
	StageSymmetry
	StageRANSAC

	StageAll = StageRatio | StageSymmetry | StageRANSAC
)

func (c MatcherConfig) withDefaults() MatcherConfig {
	c.RatioThreshold, c.MinInliers, c.RANSACIters = cmp.Or(c.RatioThreshold, 0.75), cmp.Or(c.MinInliers, 8), cmp.Or(c.RANSACIters, 64)
	c.RANSACTol, c.Stages = cmp.Or(c.RANSACTol, 0.02), cmp.Or(c.Stages, StageAll)
	return c
}

// Correspondence is one accepted descriptor match between query feature Q
// and train (database) feature T.
type Correspondence struct {
	Q, T int
}

// MatchResult is the outcome of matching a query frame against one
// database object.
type MatchResult struct {
	// Matched reports whether the pipeline accepted the object.
	Matched bool
	// Inliers is the RANSAC consensus size (0 when rejected earlier).
	Inliers int
	// Correspondences are the matches surviving every enabled stage.
	Correspondences []Correspondence
	// MACs counts descriptor multiply-accumulate operations performed, the
	// workload unit the compute device models convert to latency.
	MACs float64
}

// Matcher runs the brute-force matching pipeline.
type Matcher struct {
	cfg MatcherConfig
	rng *sim.RNG
	// hyp and best are RANSAC's scratch: the current hypothesis's inliers
	// and the best set so far, swapped when a hypothesis wins.
	hyp, best []Correspondence
	// fwd and rev are the forward and reverse 2-NN scans' scratch.
	fwd, rev knn
}

// NewMatcher creates a matcher; rng drives RANSAC sampling and must be
// deterministic for reproducible runs.
func NewMatcher(cfg MatcherConfig, rng *sim.RNG) *Matcher {
	return &Matcher{cfg: cfg.withDefaults(), rng: rng}
}

// knn holds a 2-NN scan's result: for each query descriptor, the nearest
// train descriptor's index and the two smallest squared distances. A
// Matcher keeps one per direction, so repeated matches reuse the slices.
type knn struct {
	best   []int
	d1, d2 []float64
}

// scan finds, for each query descriptor, the two nearest train descriptors,
// and returns the MAC count of the scan. It scores two train descriptors
// per pass; the two sums are independent and each runs in DistSq's order,
// so every distance is DistSq's, bit for bit.
func (k *knn) scan(q, t []Descriptor) (macs float64) {
	n := len(q)
	k.best, k.d1, k.d2 = slices.Grow(k.best[:0], n)[:n], slices.Grow(k.d1[:0], n)[:n], slices.Grow(k.d2[:0], n)[:n]
	for i := range q {
		qi := &q[i]
		b, b1, b2 := -1, math.Inf(1), math.Inf(1)
		j := 0
		for ; j+1 < len(t); j += 2 {
			da, db := distSq2(qi, &t[j], &t[j+1])
			b, b1, b2 = keep2(j, da, b, b1, b2)
			b, b1, b2 = keep2(j+1, db, b, b1, b2)
		}
		if j < len(t) {
			b, b1, b2 = keep2(j, qi.DistSq(&t[j]), b, b1, b2)
		}
		k.best[i], k.d1[i], k.d2[i] = b, b1, b2
	}
	return float64(len(q)) * float64(len(t)) * DescriptorDim
}

// distSq2 is q.DistSq(a) and q.DistSq(b) in one pass.
func distSq2(q, a, b *Descriptor) (float64, float64) {
	var sa, sb float64
	for i := 0; i < DescriptorDim; i++ {
		da := float64(q[i] - a[i])
		db := float64(q[i] - b[i])
		sa += da * da
		sb += db * db
	}
	return sa, sb
}

// keep2 folds train descriptor j, at distance d, into the running nearest
// index b and two smallest distances b1 <= b2.
func keep2(j int, d float64, b int, b1, b2 float64) (int, float64, float64) {
	if d < b1 {
		return j, d, b1
	}
	if d < b2 {
		return b, b1, d
	}
	return b, b1, b2
}

// Match runs the pipeline for a query frame against one object's features.
func (m *Matcher) Match(query, train *FeatureSet) MatchResult {
	var res MatchResult
	if query.Len() == 0 || train.Len() == 0 {
		return res
	}

	// Stage 1: forward 2-NN with ratio test.
	res.MACs += m.fwd.scan(query.Descriptors, train.Descriptors)
	fwdBest, fd1, fd2 := m.fwd.best, m.fwd.d1, m.fwd.d2
	ratio2 := m.cfg.RatioThreshold * m.cfg.RatioThreshold
	var cands []Correspondence
	for i, j := range fwdBest {
		if j < 0 {
			continue
		}
		if m.cfg.Stages&StageRatio != 0 {
			if fd2[i] == 0 || fd1[i]/fd2[i] > ratio2 {
				continue
			}
		}
		cands = append(cands, Correspondence{Q: i, T: j})
	}

	// Stage 2: symmetry (cross-check) — the reverse 2-NN of each candidate
	// train feature must point back at the query feature.
	if m.cfg.Stages&StageSymmetry != 0 && len(cands) > 0 {
		res.MACs += m.rev.scan(train.Descriptors, query.Descriptors)
		sym := cands[:0]
		for _, c := range cands {
			if m.rev.best[c.T] == c.Q {
				sym = append(sym, c)
			}
		}
		cands = sym
	}

	// Stage 3: RANSAC over a similarity model (scale + translation, the
	// transform our synthetic frames apply).
	if m.cfg.Stages&StageRANSAC != 0 {
		inliers, consensus := m.ransac(query, train, cands)
		// Model estimation cost is tiny next to the k-NN scans but not
		// free; count one descriptor-op per hypothesis-correspondence pair.
		res.MACs += float64(m.cfg.RANSACIters * len(cands))
		res.Inliers = consensus
		res.Correspondences = inliers
		res.Matched = consensus >= m.cfg.MinInliers
		return res
	}

	res.Correspondences = cands
	res.Inliers = len(cands)
	res.Matched = len(cands) >= m.cfg.MinInliers
	return res
}

// ransac estimates a scale+translation model from correspondence pairs and
// returns a copy of the best consensus set, nil when no hypothesis found
// one.
func (m *Matcher) ransac(query, train *FeatureSet, cands []Correspondence) ([]Correspondence, int) {
	if len(cands) < 2 {
		return nil, 0
	}
	tol2 := m.cfg.RANSACTol * m.cfg.RANSACTol
	m.best = m.best[:0]
	for iter := 0; iter < m.cfg.RANSACIters; iter++ {
		a := cands[m.rng.Intn(len(cands))]
		b := cands[m.rng.Intn(len(cands))]
		if a == b {
			continue
		}
		// Hypothesize: queryKP = trainKP*s + (tx, ty). Estimate s from the
		// pair's train-space vs query-space separation, then t from one
		// correspondence.
		tdx := float64(train.Keypoints[b.T].X - train.Keypoints[a.T].X)
		tdy := float64(train.Keypoints[b.T].Y - train.Keypoints[a.T].Y)
		qdx := float64(query.Keypoints[b.Q].X - query.Keypoints[a.Q].X)
		qdy := float64(query.Keypoints[b.Q].Y - query.Keypoints[a.Q].Y)
		tn := math.Hypot(tdx, tdy)
		if tn < 1e-6 {
			continue
		}
		s := math.Hypot(qdx, qdy) / tn
		if s < 0.1 || s > 10 {
			continue
		}
		tx := float64(query.Keypoints[a.Q].X) - float64(train.Keypoints[a.T].X)*s
		ty := float64(query.Keypoints[a.Q].Y) - float64(train.Keypoints[a.T].Y)*s
		inliers := m.hyp[:0]
		for _, c := range cands {
			px := float64(train.Keypoints[c.T].X)*s + tx
			py := float64(train.Keypoints[c.T].Y)*s + ty
			dx := px - float64(query.Keypoints[c.Q].X)
			dy := py - float64(query.Keypoints[c.Q].Y)
			if dx*dx+dy*dy <= tol2 {
				inliers = append(inliers, c)
			}
		}
		if len(inliers) > len(m.best) {
			m.hyp, m.best = m.best, inliers
		} else {
			m.hyp = inliers
		}
	}
	if len(m.best) == 0 {
		return nil, 0
	}
	return append([]Correspondence(nil), m.best...), len(m.best)
}
