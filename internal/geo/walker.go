package geo

import (
	"math"
	"time"
)

// Walker is a deterministic timed traversal of a Path at constant speed:
// the waypoint mobility model of the mobility scenarios. It is pure
// geometry — position is a function of elapsed time only, so every walk
// replays identically regardless of scheduling.
type Walker struct {
	Path Path
	// Speed is the walking speed in meters per second.
	Speed float64
}

// Duration reports how long the full walk takes.
func (w Walker) Duration() time.Duration {
	if w.Speed <= 0 {
		return 0
	}
	return time.Duration(w.Path.Length() / w.Speed * float64(time.Second))
}

// PosAt returns the walker's position after elapsed time, clamped to the
// path endpoints.
func (w Walker) PosAt(elapsed time.Duration) Point {
	return w.Path.At(w.Speed * elapsed.Seconds())
}

// Crossing is a cell-boundary crossing event emitted by a walk: at time At
// (refined by bisection to within ~1ms) the walker moves from cell From
// into cell To.
type Crossing struct {
	At       time.Duration
	From, To int
}

// Crossings walks the path and reports every cell-boundary crossing.
// cellOf maps a position to a cell index (for mobility scenarios, the
// serving eNB); step is the sampling interval. Each detected transition is
// refined by bisection so At is accurate to ~1ms independent of step. The
// result is pure: no RNG, no engine state.
func (w Walker) Crossings(cellOf func(Point) int, step time.Duration) []Crossing {
	if w.Speed <= 0 || step <= 0 || len(w.Path.Waypoints) == 0 {
		return nil
	}
	var out []Crossing
	total := w.Duration()
	prev := cellOf(w.PosAt(0))
	for t := step; ; t += step {
		if t > total {
			t = total
		}
		cur := cellOf(w.PosAt(t))
		if cur != prev {
			at := w.refine(cellOf, t-step, t, prev)
			out = append(out, Crossing{At: at, From: prev, To: cur})
			prev = cur
		}
		if t >= total {
			break
		}
	}
	return out
}

// refine bisects (lo, hi] for the earliest time whose cell differs from
// fromCell, to millisecond precision.
func (w Walker) refine(cellOf func(Point) int, lo, hi time.Duration, fromCell int) time.Duration {
	for hi-lo > time.Millisecond {
		mid := lo + (hi-lo)/2
		if cellOf(w.PosAt(mid)) == fromCell {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// MidlineCell maps positions to cell 0 (west of x) or 1 (east of x): the
// two-cell coverage model of the mobility scenarios.
func MidlineCell(x float64) func(Point) int {
	return func(p Point) int {
		if p.X < x || math.IsNaN(p.X) {
			return 0
		}
		return 1
	}
}
