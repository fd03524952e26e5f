// Package localization implements ACACIA's LTE-direct indoor localization:
// a per-environment linear regression that converts received power to
// distance, and trilateration solvers that turn landmark distances into a
// position estimate. The estimate feeds the AR back-end's geo-tagged
// database pruning; the paper measures ≈3 m mean error with 7 landmarks,
// which is plenty for subsection-granularity pruning.
package localization

import (
	"errors"
	"fmt"
	"math"

	"acacia/internal/geo"
)

// PathLossFit is the fitted rxPower->distance model:
//
//	rxPower(dBm) = Alpha + Beta * log10(distance)
//
// so distance = 10^((rx - Alpha) / Beta). Beta is negative (power falls
// with distance). The fit is the "one-time overhead" calibration the paper
// performs per environment.
type PathLossFit struct {
	Alpha float64
	Beta  float64
	// Residual is the RMS error of the fit in dB.
	Residual float64
}

// CalibrationSample is one (distance, rxPower) calibration observation.
type CalibrationSample struct {
	Distance   float64
	RxPowerDBm float64
}

// FitPathLoss least-squares fits the log-distance model to calibration
// samples. At least two samples at distinct distances are required.
func FitPathLoss(samples []CalibrationSample) (PathLossFit, error) {
	if len(samples) < 2 {
		return PathLossFit{}, errors.New("localization: need at least 2 calibration samples")
	}
	// Ordinary least squares of rx on x = log10(d).
	var sx, sy, sxx, sxy float64
	n := float64(len(samples))
	for _, s := range samples {
		if s.Distance <= 0 {
			return PathLossFit{}, fmt.Errorf("localization: non-positive calibration distance %v", s.Distance)
		}
		x := math.Log10(s.Distance)
		sx += x
		sy += s.RxPowerDBm
		sxx += x * x
		sxy += x * s.RxPowerDBm
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		return PathLossFit{}, errors.New("localization: calibration distances are degenerate")
	}
	beta := (n*sxy - sx*sy) / den
	alpha := (sy - beta*sx) / n
	var ss float64
	for _, s := range samples {
		pred := alpha + beta*math.Log10(s.Distance)
		d := s.RxPowerDBm - pred
		ss += d * d
	}
	return PathLossFit{Alpha: alpha, Beta: beta, Residual: math.Sqrt(ss / n)}, nil
}

// Distance converts a received power to a distance estimate in meters.
func (f PathLossFit) Distance(rxPowerDBm float64) float64 {
	if f.Beta == 0 {
		return 0
	}
	d := math.Pow(10, (rxPowerDBm-f.Alpha)/f.Beta)
	if d < 0.1 {
		d = 0.1
	}
	return d
}

// Measurement is one landmark observation used for position estimation.
type Measurement struct {
	Landmark geo.Point
	// Distance is the estimated range to the landmark in meters.
	Distance float64
}

// ErrInsufficient is returned when fewer than three usable measurements are
// available, or the landmark geometry is degenerate.
var ErrInsufficient = errors.New("localization: need >= 3 non-collinear landmarks")

// Trilaterate estimates a position from range measurements using
// Gauss-Newton nonlinear least squares on the range residuals, seeded with
// the linearized closed-form solution. This mirrors the nonlinear solver of
// the trilateration library the paper extends.
func Trilaterate(ms []Measurement) (geo.Point, error) { return gaussNewton(ms, false) }

// TrilaterateWeighted is Gauss-Newton with inverse-distance weighting:
// under log-normal shadowing the range error is multiplicative (σ_d ∝ d),
// so near landmarks are more trustworthy than far ones. Each residual is
// weighted by 1/d_i.
func TrilaterateWeighted(ms []Measurement) (geo.Point, error) { return gaussNewton(ms, true) }

// gaussNewton is the solver behind Trilaterate and, weighted,
// TrilaterateWeighted.
func gaussNewton(ms []Measurement, weighted bool) (geo.Point, error) {
	if len(ms) < 3 {
		return geo.Point{}, ErrInsufficient
	}
	p, err := TrilaterateLinear(ms)
	if err != nil {
		// Fall back to the measurement centroid as the seed.
		p = centroid(ms)
	}
	const (
		maxIter = 50
		tol     = 1e-6
	)
	for iter := 0; iter < maxIter; iter++ {
		// Jacobian J and residual r of f_i = |p - L_i| - d_i.
		var jtj00, jtj01, jtj11, jtr0, jtr1 float64
		for _, m := range ms {
			dx := p.X - m.Landmark.X
			dy := p.Y - m.Landmark.Y
			dist := math.Hypot(dx, dy)
			if dist < 1e-9 {
				dist = 1e-9
			}
			ji0, ji1 := dx/dist, dy/dist
			wj0, wj1 := ji0, ji1 // the row weighted: w·J_i, w = 1/d_i
			if weighted && m.Distance > 0.1 {
				w := 1.0 / m.Distance
				wj0, wj1 = w*ji0, w*ji1
			}
			ri := dist - m.Distance
			jtj00 += wj0 * ji0
			jtj01 += wj0 * ji1
			jtj11 += wj1 * ji1
			jtr0 += wj0 * ri
			jtr1 += wj1 * ri
		}
		// Solve the 2x2 normal equations (with a tiny Levenberg damping for
		// near-singular geometry).
		const lambda = 1e-9
		jtj00 += lambda
		jtj11 += lambda
		det := jtj00*jtj11 - jtj01*jtj01
		if math.Abs(det) < 1e-12 {
			return geo.Point{}, ErrInsufficient
		}
		dxStep := (jtj11*jtr0 - jtj01*jtr1) / det
		dyStep := (jtj00*jtr1 - jtj01*jtr0) / det
		p.X -= dxStep
		p.Y -= dyStep
		if math.Hypot(dxStep, dyStep) < tol {
			break
		}
	}
	return p, nil
}

// TrilaterateLinear solves the linearized system obtained by subtracting
// the first circle equation from the rest — the classic closed form. It is
// cheaper but less accurate under ranging noise; the ablation benchmark
// compares the two.
func TrilaterateLinear(ms []Measurement) (geo.Point, error) {
	if len(ms) < 3 {
		return geo.Point{}, ErrInsufficient
	}
	// Rows: 2(x_i - x_0) x + 2(y_i - y_0) y =
	//   d_0^2 - d_i^2 + x_i^2 - x_0^2 + y_i^2 - y_0^2
	l0 := ms[0]
	var a00, a01, a11, b0, b1 float64
	for _, m := range ms[1:] {
		ax := 2 * (m.Landmark.X - l0.Landmark.X)
		ay := 2 * (m.Landmark.Y - l0.Landmark.Y)
		bi := l0.Distance*l0.Distance - m.Distance*m.Distance +
			m.Landmark.X*m.Landmark.X - l0.Landmark.X*l0.Landmark.X +
			m.Landmark.Y*m.Landmark.Y - l0.Landmark.Y*l0.Landmark.Y
		// Accumulate normal equations A^T A x = A^T b.
		a00 += ax * ax
		a01 += ax * ay
		a11 += ay * ay
		b0 += ax * bi
		b1 += ay * bi
	}
	det := a00*a11 - a01*a01
	if math.Abs(det) < 1e-9 {
		return geo.Point{}, ErrInsufficient
	}
	return geo.Point{
		X: (a11*b0 - a01*b1) / det,
		Y: (a00*b1 - a01*b0) / det,
	}, nil
}

func centroid(ms []Measurement) geo.Point {
	var c geo.Point
	for _, m := range ms {
		c.X += m.Landmark.X
		c.Y += m.Landmark.Y
	}
	c.X /= float64(len(ms))
	c.Y /= float64(len(ms))
	return c
}

// Combinations returns all k-element index subsets of [0, n), used by the
// Fig. 9(b) evaluation of localization accuracy across landmark subsets.
func Combinations(n, k int) [][]int {
	if k < 0 || k > n {
		return nil
	}
	var out [][]int
	idx := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			c := make([]int, k)
			copy(c, idx)
			out = append(out, c)
			return
		}
		for i := start; i < n; i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return out
}
