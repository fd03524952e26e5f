package compute

import (
	"math"
	"sort"
	"testing"
	"time"

	"acacia/internal/sim"
)

func TestCalibrationAnchors(t *testing.T) {
	// The paper's anchor: SURF on a 320x240 frame takes 2 s on the phone.
	got := OnePlusOne.SURFTime(320 * 240)
	if got != 2*time.Second {
		t.Errorf("phone SURF(320x240) = %v, want 2s", got)
	}
}

func TestSpeedupRatiosMatchPaper(t *testing.T) {
	pixels := 960 * 720
	phone := OnePlusOne.SURFTime(pixels).Seconds()
	cases := []struct {
		dev  Device
		want float64
	}{
		{I7x1, surfSpeedupI7x1},
		{I7x8, surfSpeedupI7x8},
		{GPU, surfSpeedupGPU},
	}
	for _, c := range cases {
		ratio := phone / c.dev.SURFTime(pixels).Seconds()
		if math.Abs(ratio-c.want)/c.want > 0.01 {
			t.Errorf("%s SURF speedup = %.1fx, want %vx", c.dev, ratio, c.want)
		}
	}
	macs := 1e9
	phoneMatch := OnePlusOne.MatchTime(macs).Seconds()
	matchCases := []struct {
		dev  Device
		want float64
	}{
		{I7x1, matchSpeedupI7x1},
		{I7x8, matchSpeedupI7x8},
		{GPU, matchSpeedupGPU},
	}
	for _, c := range matchCases {
		ratio := phoneMatch / c.dev.MatchTime(macs).Seconds()
		if math.Abs(ratio-c.want)/c.want > 0.01 {
			t.Errorf("%s match speedup = %.1fx, want %vx", c.dev, ratio, c.want)
		}
	}
}

func TestXeonFasterThanI7(t *testing.T) {
	if Xeon32.MatchMACsPerSec <= I7x8.MatchMACsPerSec {
		t.Error("Xeon(32) must out-match i7(8)")
	}
	if Xeon32.SURFPixelsPerSec <= I7x8.SURFPixelsPerSec {
		t.Error("Xeon(32) must out-SURF i7(8)")
	}
}

func TestJPEGTimesMatchPaperScale(t *testing.T) {
	// §7.3: JPEG-90 compression on the phone takes 53/38/23 ms for
	// 1280x720 / 960x720 / 720x480.
	cases := []struct {
		res    Resolution
		wantMS float64
	}{
		{Resolution{1280, 720}, 53},
		{Resolution{960, 720}, 38},
		{Resolution{720, 480}, 23},
	}
	for _, c := range cases {
		got := OnePlusOne.JPEGTime(c.res.Pixels()).Seconds() * 1000
		if math.Abs(got-c.wantMS)/c.wantMS > 0.15 {
			t.Errorf("phone JPEG %v = %.1f ms, want ≈%v", c.res, got, c.wantMS)
		}
	}
}

func TestFrameFeaturesTable(t *testing.T) {
	resolutions := make([]Resolution, 0, len(FrameFeatures))
	for res := range FrameFeatures {
		resolutions = append(resolutions, res)
	}
	sort.Slice(resolutions, func(i, j int) bool { return resolutions[i].Pixels() < resolutions[j].Pixels() })
	for _, res := range resolutions {
		if got, want := res.Features(), FrameFeatures[res]; got != want {
			t.Errorf("Features(%v) = %v, want table value %v", res, got, want)
		}
	}
}

func TestFrameFeaturesInterpolation(t *testing.T) {
	// Untabulated resolutions interpolate monotonically between neighbors.
	f720x480 := Resolution{720, 480}.Features()
	if f720x480 <= FrameFeatures[Resolution{480, 360}] || f720x480 >= FrameFeatures[Resolution{960, 720}] {
		t.Errorf("Features(720x480) = %v, want between 703.9 and 1704.9", f720x480)
	}
	f1280x720 := Resolution{1280, 720}.Features()
	if f1280x720 <= FrameFeatures[Resolution{960, 720}] || f1280x720 >= FrameFeatures[Resolution{1440, 1080}] {
		t.Errorf("Features(1280x720) = %v, want between 1704.9 and 2641.2", f1280x720)
	}
}

func TestFeaturesMonotoneInPixels(t *testing.T) {
	resolutions := []Resolution{
		{160, 120}, {320, 240}, {480, 360}, {640, 480}, {720, 480},
		{720, 540}, {960, 720}, {1280, 720}, {1280, 960}, {1440, 1080}, {1920, 1080},
	}
	prev := 0.0
	for _, r := range resolutions {
		f := r.Features()
		if f <= prev {
			t.Errorf("Features(%v) = %v not increasing", r, f)
		}
		prev = f
	}
}

func TestServerSingleJobRunsAtFullRate(t *testing.T) {
	eng := sim.NewEngine(1)
	srv := NewServer(eng, I7x8)
	var elapsed time.Duration
	completed := 0
	work := I7x8.MatchMACsPerSec // exactly one second of work
	srv.Submit(&Job{Work: work, Done: func(e time.Duration) { elapsed = e; completed++ }})
	eng.Run()
	if math.Abs(elapsed.Seconds()-1) > 1e-6 {
		t.Errorf("elapsed = %v, want 1s", elapsed)
	}
	if completed != 1 {
		t.Errorf("completed = %d", completed)
	}
}

func TestServerProcessorSharingDoublesRuntime(t *testing.T) {
	// Two equal jobs arriving together each take twice as long — the
	// Fig. 12 behaviour.
	eng := sim.NewEngine(1)
	srv := NewServer(eng, Xeon32)
	work := Xeon32.MatchMACsPerSec * 0.1 // 100 ms alone
	var times []time.Duration
	for i := 0; i < 2; i++ {
		srv.Submit(&Job{Work: work, Done: func(e time.Duration) { times = append(times, e) }})
	}
	eng.Run()
	if len(times) != 2 {
		t.Fatalf("completions = %d", len(times))
	}
	for _, e := range times {
		if math.Abs(e.Seconds()-0.2) > 1e-6 {
			t.Errorf("shared runtime = %v, want 200ms", e)
		}
	}
}

func TestServerNClientScaling(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		eng := sim.NewEngine(1)
		srv := NewServer(eng, I7x8)
		work := I7x8.MatchMACsPerSec * 0.05
		var maxElapsed time.Duration
		for i := 0; i < n; i++ {
			srv.Submit(&Job{Work: work, Done: func(e time.Duration) {
				if e > maxElapsed {
					maxElapsed = e
				}
			}})
		}
		eng.Run()
		want := 0.05 * float64(n)
		if math.Abs(maxElapsed.Seconds()-want) > 1e-6 {
			t.Errorf("n=%d: runtime %v, want %vs", n, maxElapsed, want)
		}
	}
}

func TestServerStaggeredArrivals(t *testing.T) {
	// Job A (200 ms of work) starts alone; B (100 ms) arrives at t=100ms.
	// A runs alone for 100 ms (100 ms of work done), then shares: both have
	// 100 ms of work left at half rate => both finish at t=300ms.
	eng := sim.NewEngine(1)
	srv := NewServer(eng, I7x1)
	rate := I7x1.MatchMACsPerSec
	var aDone, bDone sim.Time
	srv.Submit(&Job{Work: rate * 0.2, Done: func(time.Duration) { aDone = eng.Now() }})
	eng.Schedule(100*time.Millisecond, func() {
		srv.Submit(&Job{Work: rate * 0.1, Done: func(time.Duration) { bDone = eng.Now() }})
	})
	eng.Run()
	if math.Abs(aDone.Seconds()-0.3) > 1e-6 {
		t.Errorf("A done at %v, want 300ms", aDone)
	}
	if math.Abs(bDone.Seconds()-0.3) > 1e-6 {
		t.Errorf("B done at %v, want 300ms", bDone)
	}
}

// TestServerStaleCompletionCancel covers the completion handler re-arming
// through reschedule, which cancels the completion that just fired. A's Done
// schedules an unrelated event, which takes that completion's recycled event
// from the engine's free-list; the stale cancel must leave it alone, and B,
// still queued, must finish on time.
func TestServerStaleCompletionCancel(t *testing.T) {
	eng := sim.NewEngine(1)
	srv := NewServer(eng, I7x1)
	rate := I7x1.MatchMACsPerSec
	var ticked, bDone sim.Time
	srv.Submit(&Job{Work: rate * 0.1, Done: func(time.Duration) {
		eng.Schedule(50*time.Millisecond, func() { ticked = eng.Now() })
	}})
	srv.Submit(&Job{Work: rate * 0.2, Done: func(time.Duration) { bDone = eng.Now() }})
	eng.Run()
	// Shared until A is done at 200 ms; B then has 100 ms of work left alone.
	if math.Abs(ticked.Seconds()-0.25) > 1e-6 {
		t.Errorf("event scheduled from A's Done fired at %v, want 250ms (a stale completion cancel stopped it?)", ticked)
	}
	if math.Abs(bDone.Seconds()-0.3) > 1e-6 {
		t.Errorf("B done at %v, want 300ms", bDone)
	}
}

func TestServerZeroWorkJob(t *testing.T) {
	eng := sim.NewEngine(1)
	srv := NewServer(eng, I7x8)
	done := false
	srv.Submit(&Job{Work: 0, Done: func(e time.Duration) {
		if e != 0 {
			t.Errorf("zero-work elapsed = %v", e)
		}
		done = true
	}})
	if !done {
		t.Error("zero-work job did not complete immediately")
	}
}

func TestDevicesList(t *testing.T) {
	ds := Devices()
	if len(ds) != 5 {
		t.Fatalf("devices = %d", len(ds))
	}
	if ds[0].Name != "One+" || ds[4].Name != "Xeon(32)" {
		t.Errorf("order: %v", ds)
	}
}

func TestMatchTimeScalesWithDBWork(t *testing.T) {
	// Fig. 3(h): runtime grows linearly with database size.
	one := I7x8.MatchTime(1e8)
	fifty := I7x8.MatchTime(50e8)
	ratio := fifty.Seconds() / one.Seconds()
	if math.Abs(ratio-50) > 0.01 {
		t.Errorf("DB scaling ratio = %v, want 50", ratio)
	}
}
