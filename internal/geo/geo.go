// Package geo models the 2-D indoor environments of the ACACIA experiments:
// points, floor plans partitioned into sections and subsections, landmark
// (LTE-direct publisher) placements, checkpoints and walking paths.
//
// The canonical instance is RetailFloor, the paper's evaluation environment:
// a store floor divided into 5 sections and 21 subsections, with 7 landmarks
// and 24 checkpoints (Fig. 9(a)).
package geo

import (
	"fmt"
	"math"
)

// Point is a position in meters on the floor plane.
type Point struct {
	X, Y float64
}

// Dist reports the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Lerp linearly interpolates from p to q by t in [0,1].
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// String formats the point with centimeter precision.
func (p Point) String() string { return fmt.Sprintf("(%.2f,%.2f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle (min corner inclusive, max exclusive).
type Rect struct {
	Min, Max Point
}

// Contains reports whether pt lies inside r.
func (r Rect) Contains(pt Point) bool {
	return pt.X >= r.Min.X && pt.X < r.Max.X && pt.Y >= r.Min.Y && pt.Y < r.Max.Y
}

// Center returns the rectangle's midpoint.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Clamp returns the point inside r closest to pt. Localization clamps
// estimates with it: a retail user is known to be inside the store, which
// bounds the damage of degenerate landmark geometries. Because Contains is
// max-exclusive, the upper edge clamps to the largest representable
// coordinate below Max, so a clamped point always satisfies r.Contains and
// falls inside some subsection of a floor that tiles r.
func (r Rect) Clamp(pt Point) Point {
	if pt.X < r.Min.X {
		pt.X = r.Min.X
	}
	if pt.X >= r.Max.X {
		pt.X = math.Nextafter(r.Max.X, math.Inf(-1))
	}
	if pt.Y < r.Min.Y {
		pt.Y = r.Min.Y
	}
	if pt.Y >= r.Max.Y {
		pt.Y = math.Nextafter(r.Max.Y, math.Inf(-1))
	}
	return pt
}

// Landmark is an LTE-direct publisher at a known position: a sales
// associate's phone in the retail scenario.
type Landmark struct {
	Name string
	Pos  Point
	// Section is the store section the landmark advertises.
	Section string
}

// Checkpoint is a measurement position used in the localization and
// search-space experiments; objects in the AR database sit at checkpoints.
type Checkpoint struct {
	Name string
	Pos  Point
}

// Subsection is one geo-tag cell of the floor.
type Subsection struct {
	ID      int
	Section string
	Bounds  Rect
}

// Floor is a partitioned indoor environment.
type Floor struct {
	Bounds      Rect
	Sections    []string
	Subsections []Subsection
	Landmarks   []Landmark
	Checkpoints []Checkpoint
}

// SubsectionAt returns the subsection containing pt, or nil when pt is
// outside every cell.
func (f *Floor) SubsectionAt(pt Point) *Subsection {
	for i := range f.Subsections {
		if f.Subsections[i].Bounds.Contains(pt) {
			return &f.Subsections[i]
		}
	}
	return nil
}

// SectionAt returns the section name containing pt, or "".
func (f *Floor) SectionAt(pt Point) string {
	if ss := f.SubsectionAt(pt); ss != nil {
		return ss.Section
	}
	return ""
}

// SubsectionsNear returns the IDs of all subsections whose center lies
// within radius meters of pt, always including the cell containing pt. This
// is the pruning set the AR back-end searches when given an estimated
// location with bounded error.
func (f *Floor) SubsectionsNear(pt Point, radius float64) []int {
	var ids []int
	for i := range f.Subsections {
		ss := &f.Subsections[i]
		if ss.Bounds.Contains(pt) || ss.Bounds.Center().Dist(pt) <= radius {
			ids = append(ids, ss.ID)
		}
	}
	return ids
}

// SubsectionsOfSections returns the IDs of all subsections belonging to the
// named sections: the pruning set of the coarser rxPower baseline.
func (f *Floor) SubsectionsOfSections(sections ...string) []int {
	want := make(map[string]bool, len(sections))
	for _, s := range sections {
		want[s] = true
	}
	var ids []int
	for i := range f.Subsections {
		if want[f.Subsections[i].Section] {
			ids = append(ids, f.Subsections[i].ID)
		}
	}
	return ids
}

// Landmark returns the named landmark, or nil.
func (f *Floor) Landmark(name string) *Landmark {
	for i := range f.Landmarks {
		if f.Landmarks[i].Name == name {
			return &f.Landmarks[i]
		}
	}
	return nil
}

// Checkpoint returns the named checkpoint, or nil.
func (f *Floor) Checkpoint(name string) *Checkpoint {
	for i := range f.Checkpoints {
		if f.Checkpoints[i].Name == name {
			return &f.Checkpoints[i]
		}
	}
	return nil
}

// Path is a polyline walk through the environment.
type Path struct {
	Waypoints []Point
}

// Length reports the total path length in meters.
func (p Path) Length() float64 {
	var total float64
	for i := 1; i < len(p.Waypoints); i++ {
		total += p.Waypoints[i-1].Dist(p.Waypoints[i])
	}
	return total
}

// At returns the position after walking dist meters from the start,
// clamping to the endpoints.
func (p Path) At(dist float64) Point {
	if len(p.Waypoints) == 0 {
		return Point{}
	}
	if dist <= 0 {
		return p.Waypoints[0]
	}
	for i := 1; i < len(p.Waypoints); i++ {
		seg := p.Waypoints[i-1].Dist(p.Waypoints[i])
		if dist <= seg && seg > 0 {
			return p.Waypoints[i-1].Lerp(p.Waypoints[i], dist/seg)
		}
		dist -= seg
	}
	return p.Waypoints[len(p.Waypoints)-1]
}
