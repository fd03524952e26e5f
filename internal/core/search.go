package core

import (
	"acacia/internal/geo"
	"acacia/internal/localization"
	"acacia/internal/vision"
)

// The AR search rules live here, once: the back-end runs them per frame,
// and Figs. 11-12 and the pruning ablations evaluate them offline, so a
// printed figure measures the rule the system runs.

// Scheme selects the AR back-end's search-space strategy (§7.3).
type Scheme uint8

// Search-space schemes. SchemeACACIA is the zero value: an unset scheme
// means the full system.
const (
	// SchemeACACIA prunes to the subsections around the trilaterated user
	// position.
	SchemeACACIA Scheme = iota
	// SchemeRxPower prunes to the sections of the two strongest-rxPower
	// landmarks.
	SchemeRxPower
	// SchemeNaive searches the entire database (the CLOUD and MEC
	// baselines).
	SchemeNaive
)

var schemeNames = [...]string{SchemeNaive: "Naive", SchemeRxPower: "rxPower", SchemeACACIA: "ACACIA"}

// String names the scheme.
func (s Scheme) String() string {
	if uint(s) < uint(len(schemeNames)) {
		return schemeNames[s]
	}
	return "Scheme?"
}

// DBObjectFeatures is the stored feature count per database object,
// calibrated so a Naive search over the 105-object database at 720x480 on
// the eight-core i7 lands near the paper's ≈0.6 s (Fig. 11(a)).
const DBObjectFeatures = 200

// PruneRadius is the ACACIA search radius in meters around the estimated
// position: 2.5x the ≈3 m localization error, which covers the user's true
// subsection while keeping the search at the paper's 2-6 of 21 cells.
const PruneRadius = 7.5

// SearchSpace resolves a scheme's search space: the subsection IDs a frame
// is matched against, nil meaning the whole database. ACACIA takes the
// cells within PruneRadius of the estimate est, rxPower the sections of the
// strongest landmarks the floor knows, Naive everything; ACACIA with no
// estimate and rxPower with no known landmark fall back to everything.
func SearchSpace(floor *geo.Floor, scheme Scheme, est geo.Point, hasEst bool, strongest []string) []int {
	switch scheme {
	case SchemeACACIA:
		if hasEst {
			return floor.SubsectionsNear(est, PruneRadius)
		}
	case SchemeRxPower:
		var sections []string
		for _, name := range strongest {
			if l := floor.Landmark(name); l != nil {
				sections = append(sections, l.Section)
			}
		}
		if len(sections) > 0 {
			return floor.SubsectionsOfSections(sections...)
		}
	}
	return nil
}

// Covers reports whether a search over cells (nil: the whole database)
// finds the object photographed at pos, i.e. holds pos's subsection. A
// position in no subsection (off a floor its cells tile) shows no object,
// so no search covers it, the whole database included.
func Covers(floor *geo.Floor, cells []int, pos geo.Point) bool {
	ss := floor.SubsectionAt(pos)
	if ss == nil {
		return false
	}
	if cells == nil {
		return true
	}
	for _, id := range cells {
		if id == ss.ID {
			return true
		}
	}
	return false
}

// CandidateCount is the number of database objects a search over cells
// compares: vision.ObjectsPerRetailSubsection per cell, and every
// subsection of the floor for nil.
func CandidateCount(floor *geo.Floor, cells []int) int {
	if cells == nil {
		return len(floor.Subsections) * vision.ObjectsPerRetailSubsection
	}
	return len(cells) * vision.ObjectsPerRetailSubsection
}

// MatchMACs is the descriptor workload of matching a frame of
// queryFeatures features against objects objects of objFeatures each:
// vision.Matcher's forward and symmetric reverse 2-NN scans.
func MatchMACs(queryFeatures, objFeatures float64, objects int) float64 {
	return queryFeatures * objFeatures * vision.DescriptorDim * 2 * float64(objects)
}

// LandmarkRange converts one (landmark, rxPower) reading into a
// trilateration range with the environment's path-loss fit; ok is false
// for a landmark the floor does not know.
func LandmarkRange(floor *geo.Floor, fit localization.PathLossFit, landmark string, rxPowerDBm float64) (localization.Measurement, bool) {
	l := floor.Landmark(landmark)
	if l == nil {
		return localization.Measurement{}, false
	}
	return localization.Measurement{Landmark: l.Pos, Distance: fit.Distance(rxPowerDBm)}, true
}

// EstimatePosition trilaterates the ranges and clamps the estimate to the
// floor the user is known to be on; ok is false when the ranges fix no
// position (fewer than three, or a degenerate geometry).
func EstimatePosition(floor *geo.Floor, ms []localization.Measurement) (geo.Point, bool) {
	est, err := localization.Trilaterate(ms)
	if err != nil {
		return geo.Point{}, false
	}
	return floor.Bounds.Clamp(est), true
}
