package vision

import (
	"math"
	"sort"

	"acacia/internal/media"
)

// This file closes the loop between the media substrate and the matcher:
// DetectFeatures extracts a FeatureSet from an actual grayscale frame
// (Harris corner detection plus SURF-style gradient-histogram descriptors),
// so enrollment and query can run on real pixel data — including frames
// that have been through the lossy DCT codec.

// DetectOptions tunes the detector; zero values select defaults.
type DetectOptions struct {
	// MaxFeatures caps the keypoint count (default 256), keeping the
	// strongest corners.
	MaxFeatures int
	// HarrisK is the corner-response trace weight (default 0.05).
	HarrisK float64
	// MinResponse discards weak corners (default 1e6, scaled to 8-bit
	// gradients).
	MinResponse float64
}

func (o DetectOptions) withDefaults() DetectOptions {
	if o.MaxFeatures == 0 {
		o.MaxFeatures = 256
	}
	if o.HarrisK == 0 {
		o.HarrisK = 0.05
	}
	if o.MinResponse == 0 {
		o.MinResponse = 1e6
	}
	return o
}

// patchRadius is the descriptor support region half-size: descriptors use
// a 16x16 patch (4x4 cells of 4x4 pixels).
const patchRadius = 8

// DetectFeatures extracts corners and descriptors from a real frame.
func DetectFeatures(f *media.Frame, opts DetectOptions) *FeatureSet {
	opts = opts.withDefaults()
	w, h := f.W, f.H
	if w < 3*patchRadius || h < 3*patchRadius {
		return &FeatureSet{}
	}

	// Sobel gradients.
	ix := make([]float64, w*h)
	iy := make([]float64, w*h)
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			gx := float64(f.At(x+1, y-1)) + 2*float64(f.At(x+1, y)) + float64(f.At(x+1, y+1)) -
				float64(f.At(x-1, y-1)) - 2*float64(f.At(x-1, y)) - float64(f.At(x-1, y+1))
			gy := float64(f.At(x-1, y+1)) + 2*float64(f.At(x, y+1)) + float64(f.At(x+1, y+1)) -
				float64(f.At(x-1, y-1)) - 2*float64(f.At(x, y-1)) - float64(f.At(x+1, y-1))
			ix[y*w+x] = gx
			iy[y*w+x] = gy
		}
	}

	// Harris response over a 3x3 structure-tensor window.
	resp := make([]float64, w*h)
	for y := 2; y < h-2; y++ {
		for x := 2; x < w-2; x++ {
			var sxx, syy, sxy float64
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					gx := ix[(y+dy)*w+x+dx]
					gy := iy[(y+dy)*w+x+dx]
					sxx += gx * gx
					syy += gy * gy
					sxy += gx * gy
				}
			}
			det := sxx*syy - sxy*sxy
			tr := sxx + syy
			resp[y*w+x] = det - opts.HarrisK*tr*tr
		}
	}

	// Non-maximum suppression over 5x5 neighbourhoods, margin-aware so the
	// descriptor patch stays inside the frame.
	type corner struct {
		x, y int
		r    float64
	}
	var corners []corner
	for y := patchRadius; y < h-patchRadius; y++ {
		for x := patchRadius; x < w-patchRadius; x++ {
			r := resp[y*w+x]
			if r < opts.MinResponse {
				continue
			}
			isMax := true
		nms:
			for dy := -2; dy <= 2; dy++ {
				for dx := -2; dx <= 2; dx++ {
					if resp[(y+dy)*w+x+dx] > r {
						isMax = false
						break nms
					}
				}
			}
			if isMax {
				corners = append(corners, corner{x, y, r})
			}
		}
	}
	sort.Slice(corners, func(i, j int) bool {
		if corners[i].r != corners[j].r {
			return corners[i].r > corners[j].r
		}
		// Deterministic tie-break.
		if corners[i].y != corners[j].y {
			return corners[i].y < corners[j].y
		}
		return corners[i].x < corners[j].x
	})
	if len(corners) > opts.MaxFeatures {
		corners = corners[:opts.MaxFeatures]
	}

	fs := &FeatureSet{
		Keypoints:   make([]Keypoint, 0, len(corners)),
		Descriptors: make([]Descriptor, 0, len(corners)),
	}
	for _, c := range corners {
		fs.Keypoints = append(fs.Keypoints, Keypoint{
			X: float32(c.x) / float32(w),
			Y: float32(c.y) / float32(h),
		})
		fs.Descriptors = append(fs.Descriptors, patchDescriptor(ix, iy, w, c.x, c.y))
	}
	return fs
}

// patchDescriptor builds a 64-dim descriptor from the 16x16 patch around
// (cx, cy): a 4x4 grid of cells, each contributing a 4-bin gradient
// orientation histogram weighted by magnitude — the SURF/SIFT shape at
// reduced size.
func patchDescriptor(ix, iy []float64, w, cx, cy int) Descriptor {
	var d Descriptor
	for py := 0; py < 16; py++ {
		for px := 0; px < 16; px++ {
			x := cx - patchRadius + px
			y := cy - patchRadius + py
			gx := ix[y*w+x]
			gy := iy[y*w+x]
			mag := math.Hypot(gx, gy)
			if mag == 0 {
				continue
			}
			// Orientation bin in [0,4): quadrant of atan2.
			ang := math.Atan2(gy, gx) // [-pi, pi]
			bin := min(int((ang+math.Pi)/(math.Pi/2)), 3)
			cell := (py/4)*4 + px/4 // 0..15
			d[cell*4+bin] += float32(mag)
		}
	}
	d.normalize()
	return d
}

// EnrollFromImage extracts an object's canonical features from a real
// image, the pixel-level counterpart of GenerateObjectFeatures.
func EnrollFromImage(f *media.Frame, opts DetectOptions) *FeatureSet {
	return DetectFeatures(f, opts)
}
