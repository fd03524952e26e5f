package geo

import "fmt"

// Retail floor dimensions, in meters. The paper's store is a single floor
// divided into 5 sections and 21 subsections with 7 landmarks and 24
// checkpoints (Fig. 9(a)); localization errors land around 3 m on average
// with all 7 landmarks, which fixes the scale at tens of meters.
const (
	RetailWidth  = 42.0
	RetailHeight = 30.0
)

// RetailSectionNames are the store sections of the paper's scenario.
var RetailSectionNames = []string{"food", "toys", "electronics", "clothes", "appliances"}

// RetailFloor builds the evaluation environment: a 42x30 m floor cut into a
// 7x3 grid of 21 subsections (6x10 m each) grouped into 5 sections, with 7
// landmarks spread across sections and 24 checkpoints along the aisles.
func RetailFloor() *Floor {
	f := &Floor{
		Bounds:   Rect{Min: Point{0, 0}, Max: Point{RetailWidth, RetailHeight}},
		Sections: RetailSectionNames,
	}

	// 21 subsections: 7 columns x 3 rows of 6x10 m cells. Sections take
	// vertical slices of columns: food (cols 0-1), toys (col 2),
	// electronics (cols 3-4), clothes (col 5), appliances (col 6).
	colSection := []string{"food", "food", "toys", "electronics", "electronics", "clothes", "appliances"}
	id := 0
	for row := 0; row < 3; row++ {
		for col := 0; col < 7; col++ {
			f.Subsections = append(f.Subsections, Subsection{
				ID:      id,
				Section: colSection[col],
				Bounds: Rect{
					Min: Point{float64(col) * 6, float64(row) * 10},
					Max: Point{float64(col+1) * 6, float64(row+1) * 10},
				},
			})
			id++
		}
	}

	// 7 landmarks (L1..L7), one per column aisle, staggered between rows so
	// three-landmark subsets range from well-spread to nearly collinear —
	// the spread behind Fig. 9(b)'s best/worst gap.
	landmarkPos := []Point{
		{3, 5}, {9, 25}, {15, 5}, {21, 15}, {27, 25}, {33, 5}, {39, 20},
	}
	for i, pos := range landmarkPos {
		f.Landmarks = append(f.Landmarks, Landmark{
			Name:    fmt.Sprintf("L%d", i+1),
			Pos:     pos,
			Section: colSection[int(pos.X)/6],
		})
	}

	// 24 checkpoints C1..C24 along a serpentine aisle walk covering every
	// section, mirroring the map's dense checkpoint coverage.
	checkpointPos := []Point{
		{2, 3}, {5, 8}, {4, 14}, {2, 22}, {5, 27}, // food
		{9, 26}, {10, 18}, {9, 9}, {11, 4}, // toys
		{15, 3}, {16, 12}, {14, 20}, {17, 26}, // electronics west
		{21, 24}, {22, 16}, {20, 8}, {23, 4}, // electronics east
		{27, 6}, {28, 15}, {26, 24}, // clothes
		{33, 26}, {33, 14}, {34, 6}, {39, 15}, // appliances
	}
	for i, pos := range checkpointPos {
		f.Checkpoints = append(f.Checkpoints, Checkpoint{
			Name: fmt.Sprintf("C%d", i+1),
			Pos:  pos,
		})
	}
	return f
}

// ThreeLandmarkFloor builds the smaller environment of the Fig. 6
// walking-trace experiment: three landmarks in a line and a path that walks
// from the first past the second to the third, with four checkpoints.
func ThreeLandmarkFloor() *Floor {
	f := &Floor{
		Bounds:   Rect{Min: Point{0, 0}, Max: Point{60, 10}},
		Sections: []string{"hall"},
	}
	f.Subsections = append(f.Subsections, Subsection{ID: 0, Section: "hall", Bounds: f.Bounds})
	f.Landmarks = []Landmark{
		{Name: "Landmark1", Pos: Point{5, 5}, Section: "hall"},
		{Name: "Landmark2", Pos: Point{30, 5}, Section: "hall"},
		{Name: "Landmark3", Pos: Point{55, 5}, Section: "hall"},
	}
	f.Checkpoints = []Checkpoint{
		{Name: "C1", Pos: Point{5, 4}},
		{Name: "C2", Pos: Point{22, 4}},
		{Name: "C3", Pos: Point{38, 4}},
		{Name: "C4", Pos: Point{55, 4}},
	}
	return f
}

// Fig6WalkPath is the subscriber's walk for the Fig. 6 trace: from
// landmark 1 to landmark 3 along the hall.
func Fig6WalkPath() Path {
	return Path{Waypoints: []Point{{5, 4}, {55, 4}}}
}
