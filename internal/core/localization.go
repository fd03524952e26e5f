package core

import (
	"sort"

	"acacia/internal/d2d"
	"acacia/internal/geo"
	"acacia/internal/localization"
)

// LocalizationManager runs on the CI server: it aggregates (landmark,
// rxPower) reports forwarded by each user's device manager, converts powers
// to distances with the environment's fitted path-loss model, and
// trilaterates the user's position for the AR back-end's database pruning.
type LocalizationManager struct {
	floor *geo.Floor
	fit   localization.PathLossFit

	users map[string]*userTrack
}

type userTrack struct {
	// latest rxPower per landmark name (most recent report wins).
	latest map[string]float64
	// est is the most recent position estimate.
	est    geo.Point
	hasEst bool
}

// NewLocalizationManager creates a manager for a floor with a fitted
// path-loss model (the one-time calibration overhead).
func NewLocalizationManager(floor *geo.Floor, fit localization.PathLossFit) *LocalizationManager {
	return &LocalizationManager{
		floor: floor,
		fit:   fit,
		users: make(map[string]*userTrack),
	}
}

// CalibrateFromChannel builds the path-loss fit by sampling the given d2d
// channel model's mean received power at known distances — the
// per-environment regression the paper describes as a one-time overhead.
func CalibrateFromChannel(m d2d.PathLossModel) localization.PathLossFit {
	var samples []localization.CalibrationSample
	for d := 1.0; d <= 45; d += 1.5 {
		samples = append(samples, localization.CalibrationSample{Distance: d, RxPowerDBm: m.MeanRxPower(d)})
	}
	fit, err := localization.FitPathLoss(samples)
	if err != nil {
		panic("core: calibration failed: " + err.Error())
	}
	return fit
}

// sortedLandmarkNames lists the track's landmark names in sorted order —
// the deterministic iteration base for everything fed by the latest map.
func sortedLandmarkNames(tr *userTrack) []string {
	names := make([]string, 0, len(tr.latest))
	for name := range tr.latest {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Report ingests one (landmark, rxPower) observation for a user and
// refreshes the estimate when at least three landmarks are known.
func (lm *LocalizationManager) Report(user, landmark string, rxPowerDBm float64) {
	tr := lm.users[user]
	if tr == nil {
		tr = &userTrack{latest: make(map[string]float64)}
		lm.users[user] = tr
	}
	tr.latest[landmark] = rxPowerDBm
	lm.reestimate(tr)
}

func (lm *LocalizationManager) reestimate(tr *userTrack) {
	// Gauss-Newton iterates over the measurements in order, so the float
	// result depends on it: feed the solver landmarks in sorted-name order,
	// not map order, to keep estimates identical across runs.
	names := sortedLandmarkNames(tr)
	var ms []localization.Measurement
	for _, name := range names {
		l := lm.floor.Landmark(name)
		if l == nil {
			continue
		}
		ms = append(ms, localization.Measurement{
			Landmark: l.Pos,
			Distance: lm.fit.Distance(tr.latest[name]),
		})
	}
	if len(ms) < 3 {
		return
	}
	est, err := localization.Trilaterate(ms)
	if err != nil {
		return
	}
	// The user is known to be on the floor; clamp degenerate estimates.
	est = lm.floor.Bounds.Clamp(est)
	tr.est = est
	tr.hasEst = true
}

// Estimate returns the user's latest position estimate, if any.
func (lm *LocalizationManager) Estimate(user string) (geo.Point, bool) {
	tr := lm.users[user]
	if tr == nil || !tr.hasEst {
		return geo.Point{}, false
	}
	return tr.est, true
}

// StrongestLandmarks returns the names of the user's n highest-rxPower
// landmarks — the input of the rxPower baseline's section pruning.
func (lm *LocalizationManager) StrongestLandmarks(user string, n int) []string {
	tr := lm.users[user]
	if tr == nil {
		return nil
	}
	// Stable sort by descending power over a name-sorted base, so equal
	// rxPower readings prune the same sections on every run.
	names := sortedLandmarkNames(tr)
	sort.SliceStable(names, func(i, j int) bool { return tr.latest[names[i]] > tr.latest[names[j]] })
	if n > len(names) {
		n = len(names)
	}
	out := append([]string(nil), names[:n]...)
	return out
}

// TrackSnapshot is a user's portable localization state: the freeze/copy
// payload shipped site-to-site when a session migrates. Landmarks are kept
// as a sorted slice (not a map) so the snapshot's encoded size and its
// replay are deterministic.
type TrackSnapshot struct {
	Landmarks []LandmarkReading
	Est       geo.Point
	HasEst    bool
}

// LandmarkReading is one (landmark, rxPower) pair of a snapshot.
type LandmarkReading struct {
	Name       string
	RxPowerDBm float64
}

// Export freezes a user's tracking state into a snapshot and removes it
// from this manager — the "freeze" phase of migration. The second return is
// false when the user is unknown (nothing to migrate).
func (lm *LocalizationManager) Export(user string) (TrackSnapshot, bool) {
	tr := lm.users[user]
	if tr == nil {
		return TrackSnapshot{}, false
	}
	snap := TrackSnapshot{Est: tr.est, HasEst: tr.hasEst}
	for _, name := range sortedLandmarkNames(tr) {
		snap.Landmarks = append(snap.Landmarks, LandmarkReading{Name: name, RxPowerDBm: tr.latest[name]})
	}
	delete(lm.users, user)
	return snap, true
}

// Import installs a migrated snapshot — the "resume" phase: the new site's
// manager starts with the user's full landmark history and last estimate,
// so database pruning works on the first post-migration frame instead of
// waiting for three fresh landmark reports.
func (lm *LocalizationManager) Import(user string, snap TrackSnapshot) {
	tr := &userTrack{latest: make(map[string]float64, len(snap.Landmarks))}
	for _, r := range snap.Landmarks {
		tr.latest[r.Name] = r.RxPowerDBm
	}
	tr.est, tr.hasEst = snap.Est, snap.HasEst
	lm.users[user] = tr
}
