package trace

import (
	"sort"
	"testing"
	"time"

	"acacia/internal/geo"
)

func TestWalkProducesSamplesFromAllLandmarks(t *testing.T) {
	floor := geo.ThreeLandmarkFloor()
	samples := Walk(floor, WalkConfig{Path: geo.Fig6WalkPath(), Speed: 0.1, Period: 2 * time.Second, Seed: 6})
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	seen := map[string]bool{}
	for _, s := range samples {
		seen[s.Landmark] = true
		if s.RxPower > 0 || s.RxPower < -120 {
			t.Fatalf("implausible rxPower %v", s.RxPower)
		}
		if s.SNR < 0 || s.SNR > 25 {
			t.Fatalf("SNR %v outside decode span", s.SNR)
		}
	}
	for _, lm := range floor.Landmarks {
		if !seen[lm.Name] {
			t.Errorf("landmark %s never heard", lm.Name)
		}
	}
}

// walkerPos is where a Fig. 6 walk at speed had put the subscriber when s
// arrived: the walker moves on 100 ms ticks.
func walkerPos(speed float64, s Sample) geo.Point {
	w := geo.Walker{Path: geo.Fig6WalkPath(), Speed: speed}
	return w.PosAt(time.Duration(s.At).Truncate(100 * time.Millisecond))
}

func TestWalkRxPowerPeaksNearLandmarks(t *testing.T) {
	// Fig. 6(c): each landmark's rxPower peaks as the walker passes it.
	floor := geo.ThreeLandmarkFloor()
	samples := Walk(floor, WalkConfig{Path: geo.Fig6WalkPath(), Speed: 0.5, Period: time.Second, Seed: 7})
	// For landmark 2 (mid-hall), the max-rxPower sample should be closer
	// to the landmark than the average sample.
	l2 := floor.Landmarks[1]
	var best Sample
	bestRx := -1e9
	var sumDist float64
	n := 0
	for _, s := range samples {
		if s.Landmark != l2.Name {
			continue
		}
		n++
		sumDist += walkerPos(0.5, s).Dist(l2.Pos)
		if s.RxPower > bestRx {
			bestRx = s.RxPower
			best = s
		}
	}
	if n < 10 {
		t.Fatalf("only %d samples for %s", n, l2.Name)
	}
	if walkerPos(0.5, best).Dist(l2.Pos) > sumDist/float64(n) {
		t.Error("peak rxPower not nearer the landmark than average")
	}
}

func TestWalkSNRSaturatesNearLandmark(t *testing.T) {
	floor := geo.ThreeLandmarkFloor()
	samples := Walk(floor, WalkConfig{Path: geo.Fig6WalkPath(), Speed: 0.5, Period: time.Second, Seed: 8})
	// Near any landmark (< 5 m) SNR pegs at the decode span while rxPower
	// still varies: the Fig. 6(b) vs (c) contrast.
	var nearSNR []float64
	var nearRx []float64
	for _, s := range samples {
		lm := floor.Landmark(s.Landmark)
		if walkerPos(0.5, s).Dist(lm.Pos) < 5 {
			nearSNR = append(nearSNR, s.SNR)
			nearRx = append(nearRx, s.RxPower)
		}
	}
	if len(nearSNR) < 3 {
		t.Skip("too few near-landmark samples for this seed")
	}
	allClamped := true
	for _, v := range nearSNR {
		if v != 25 {
			allClamped = false
		}
	}
	if !allClamped {
		t.Errorf("near-landmark SNR not saturated: %v", nearSNR)
	}
	varies := false
	for i := 1; i < len(nearRx); i++ {
		if nearRx[i] != nearRx[0] {
			varies = true
		}
	}
	if !varies {
		t.Error("near-landmark rxPower shows no variation")
	}
}

func TestCampaignCoversAllCheckpoints(t *testing.T) {
	floor := geo.RetailFloor()
	readings := Campaign(floor, 9, 5)
	grouped := ByCheckpoint(readings)
	if len(grouped) != len(floor.Checkpoints) {
		t.Fatalf("checkpoints with readings = %d, want %d", len(grouped), len(floor.Checkpoints))
	}
	cps := make([]string, 0, len(grouped))
	for cp := range grouped {
		cps = append(cps, cp)
	}
	sort.Strings(cps)
	for _, cp := range cps {
		if rs := grouped[cp]; len(rs) < 3 {
			t.Errorf("checkpoint %s hears only %d landmarks", cp, len(rs))
		}
	}
}

func TestCampaignDeterministic(t *testing.T) {
	floor := geo.RetailFloor()
	a := Campaign(floor, 11, 3)
	b := Campaign(floor, 11, 3)
	if len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reading %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := Campaign(floor, 12, 3)
	same := true
	for i := range a {
		if i < len(c) && a[i].RxPower != c[i].RxPower {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical campaigns")
	}
}

func TestCampaignPowerDecreasesWithDistance(t *testing.T) {
	floor := geo.RetailFloor()
	readings := Campaign(floor, 13, 20)
	// Correlation check: average rxPower of near pairs (< 10 m) must
	// exceed far pairs (> 25 m).
	var nearSum, farSum float64
	var nearN, farN int
	for _, r := range readings {
		d := floor.Checkpoint(r.Checkpoint).Pos.Dist(floor.Landmark(r.Landmark).Pos)
		switch {
		case d < 10:
			nearSum += r.RxPower
			nearN++
		case d > 25:
			farSum += r.RxPower
			farN++
		}
	}
	if nearN == 0 || farN == 0 {
		t.Fatal("distance buckets empty")
	}
	if nearSum/float64(nearN) <= farSum/float64(farN) {
		t.Error("near readings not stronger than far readings")
	}
}
