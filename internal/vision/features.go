// Package vision implements the computer-vision substrate of the ACACIA AR
// application: SURF-style feature sets, a brute-force k-NN descriptor
// matcher with the paper's four-stage accuracy pipeline (2-NN ratio test,
// symmetry test, RANSAC geometric verification), and the geo-tagged object
// database the AR back-end searches.
//
// Features are synthetic but structurally faithful: every object has a
// deterministic set of keypoints with 64-dimensional unit descriptors, and a
// camera frame of an object contains a geometrically transformed, noise-
// perturbed subset of those features buried in background clutter. The
// matcher must therefore do the real algorithmic work — nearest-neighbour
// search, ratio/symmetry filtering and geometric consensus — to find the
// object, and its operation counts drive the calibrated latency models.
package vision

import (
	"math"

	"acacia/internal/sim"
)

// DescriptorDim is the SURF descriptor dimensionality (64, as in the
// paper's SURF configuration).
const DescriptorDim = 64

// Descriptor is a unit-normalized feature descriptor.
type Descriptor [DescriptorDim]float32

// DistSq reports the squared L2 distance between two descriptors.
func (d *Descriptor) DistSq(o *Descriptor) float64 {
	var sum float64
	for i := 0; i < DescriptorDim; i++ {
		diff := float64(d[i] - o[i])
		sum += diff * diff
	}
	return sum
}

// normalize scales the descriptor to unit length.
func (d *Descriptor) normalize() {
	var sum float64
	for _, v := range d {
		sum += float64(v) * float64(v)
	}
	n := math.Sqrt(sum)
	if n == 0 {
		d[0] = 1
		return
	}
	for i := range d {
		d[i] = float32(float64(d[i]) / n)
	}
}

// Keypoint is a feature location in normalized image coordinates [0,1)².
type Keypoint struct {
	X, Y float32
}

// FeatureSet is the SURF output for one image: parallel keypoint and
// descriptor slices.
type FeatureSet struct {
	Keypoints   []Keypoint
	Descriptors []Descriptor
}

// Len reports the feature count.
func (f *FeatureSet) Len() int { return len(f.Keypoints) }

// randomDescriptor draws a random unit descriptor.
func randomDescriptor(rng *sim.RNG) Descriptor {
	var d Descriptor
	for i := range d {
		d[i] = float32(rng.NormFloat64())
	}
	d.normalize()
	return d
}

// perturb returns a copy of d with Gaussian noise of the given sigma added
// to every component, renormalized. Small sigmas keep the perturbed
// descriptor closest to its origin among random alternatives, which is what
// makes the ratio test effective.
func perturb(d *Descriptor, sigma float64, rng *sim.RNG) Descriptor {
	var out Descriptor
	for i := range d {
		out[i] = d[i] + float32(rng.NormFloat64()*sigma)
	}
	out.normalize()
	return out
}

// GenerateObjectFeatures deterministically creates the canonical feature
// set of an object from its seed: n keypoints uniformly placed with random
// unit descriptors. The same seed always yields the same features, so the
// database is reproducible.
func GenerateObjectFeatures(seed uint64, n int) *FeatureSet {
	rng := sim.NewRNG(seed)
	fs := &FeatureSet{
		Keypoints:   make([]Keypoint, n),
		Descriptors: make([]Descriptor, n),
	}
	for i := 0; i < n; i++ {
		fs.Keypoints[i] = Keypoint{X: float32(rng.Float64()), Y: float32(rng.Float64())}
		fs.Descriptors[i] = randomDescriptor(rng)
	}
	return fs
}

// FrameParams controls synthetic camera-frame generation.
type FrameParams struct {
	// TotalFeatures is the frame's feature budget (resolution-dependent).
	TotalFeatures int
	// ObjectFraction is the share of frame features that come from the
	// photographed object (the rest is background clutter). Capped by the
	// object's own feature count.
	ObjectFraction float64
	// NoiseSigma perturbs object descriptors (viewing conditions).
	NoiseSigma float64
	// Scale and Tx/Ty place the object in the frame: frame keypoint =
	// object keypoint * Scale + (Tx, Ty).
	Scale, Tx, Ty float64
}

// DefaultFrameParams are the standard viewing conditions used by the
// experiments: 40% of frame features on the object, moderate descriptor
// noise, a slight zoom and offset.
func DefaultFrameParams(totalFeatures int) FrameParams {
	return FrameParams{
		TotalFeatures:  totalFeatures,
		ObjectFraction: 0.4,
		NoiseSigma:     0.05,
		Scale:          0.8,
		Tx:             0.1,
		Ty:             0.05,
	}
}

// GenerateFrame synthesizes the feature set of a camera frame showing the
// object, under params, using rng for noise and clutter. Object-derived
// features appear first in the returned set only by construction detail;
// callers must not rely on ordering.
func GenerateFrame(object *FeatureSet, params FrameParams, rng *sim.RNG) *FeatureSet {
	nObj := min(int(float64(params.TotalFeatures)*params.ObjectFraction), object.Len())
	nClutter := params.TotalFeatures - nObj
	fs := &FeatureSet{
		Keypoints:   make([]Keypoint, 0, params.TotalFeatures),
		Descriptors: make([]Descriptor, 0, params.TotalFeatures),
	}
	// A random subset of the object's features is visible in the frame.
	perm := rng.Perm(object.Len())
	for _, idx := range perm[:nObj] {
		kp := object.Keypoints[idx]
		fs.Keypoints = append(fs.Keypoints, Keypoint{
			X: float32(float64(kp.X)*params.Scale + params.Tx),
			Y: float32(float64(kp.Y)*params.Scale + params.Ty),
		})
		fs.Descriptors = append(fs.Descriptors, perturb(&object.Descriptors[idx], params.NoiseSigma, rng))
	}
	for i := 0; i < nClutter; i++ {
		fs.Keypoints = append(fs.Keypoints, Keypoint{X: float32(rng.Float64()), Y: float32(rng.Float64())})
		fs.Descriptors = append(fs.Descriptors, randomDescriptor(rng))
	}
	return fs
}
