// Package compute models the computation substrates of the ACACIA
// experiments: the four devices the paper profiles in Fig. 3 (a One+ One
// smartphone, one- and eight-core i7 servers, a GTX TITAN GPU) plus the
// 32-core Xeon server of §7.3, and a processor-sharing server that scales
// per-client runtime with load (Fig. 12).
//
// Device rates are calibrated so that the *relative* speedups match the
// paper's measurements: 36x/182x/1087x for SURF feature extraction and
// 223x/852x/3284x for brute-force matching (vs. the phone), anchored at the
// paper's 2-second phone SURF runtime on a 320x240 frame.
package compute

import (
	"fmt"
	"math"
	"time"

	"acacia/internal/sim"
)

// Device describes a compute platform by its processing rates.
type Device struct {
	Name string
	// Cores is the usable parallelism (informational; rates below are
	// aggregate across cores).
	Cores int
	// SURFPixelsPerSec is the aggregate pixel rate of SURF keypoint
	// detection + descriptor extraction.
	SURFPixelsPerSec float64
	// MatchMACsPerSec is the aggregate descriptor multiply-accumulate rate
	// of brute-force k-NN matching.
	MatchMACsPerSec float64
	// JPEGPixelsPerSec is the grayscale JPEG encode rate (used on the
	// phone for frame compression; §7.3 measures 23-53 ms per frame).
	JPEGPixelsPerSec float64
}

// phoneSURFPixelsPerSec anchors the calibration: 320x240 = 76800 pixels in
// the paper's measured 2 s.
const phoneSURFPixelsPerSec = 76800.0 / 2.0

// phoneMatchMACsPerSec anchors matching such that the eight-core i7
// (852x the phone) matches a 1704.9-feature frame against a 1000-feature
// object in ≈20 ms, the Fig. 3(h) single-object regime.
const phoneMatchMACsPerSec = 6.4e6

// The paper's measured speedup factors over the phone.
const (
	surfSpeedupI7x1 = 36
	surfSpeedupI7x8 = 182
	surfSpeedupGPU  = 1087

	matchSpeedupI7x1 = 223
	matchSpeedupI7x8 = 852
	matchSpeedupGPU  = 3284
)

// The profiled devices.
var (
	// OnePlusOne is the One+ One smartphone (client device).
	OnePlusOne = Device{
		Name: "One+", Cores: 4,
		SURFPixelsPerSec: phoneSURFPixelsPerSec,
		MatchMACsPerSec:  phoneMatchMACsPerSec,
		// §7.3: JPEG-90 encode of a 1280x720 grayscale frame takes 53 ms.
		JPEGPixelsPerSec: 1280 * 720 / 0.053,
	}
	// I7x1 is a single i7 core.
	I7x1 = Device{
		Name: "i7(1)", Cores: 1,
		SURFPixelsPerSec: phoneSURFPixelsPerSec * surfSpeedupI7x1,
		MatchMACsPerSec:  phoneMatchMACsPerSec * matchSpeedupI7x1,
		JPEGPixelsPerSec: 200e6,
	}
	// I7x8 is the eight-core i7 server.
	I7x8 = Device{
		Name: "i7(8)", Cores: 8,
		SURFPixelsPerSec: phoneSURFPixelsPerSec * surfSpeedupI7x8,
		MatchMACsPerSec:  phoneMatchMACsPerSec * matchSpeedupI7x8,
		JPEGPixelsPerSec: 800e6,
	}
	// GPU is the GeForce GTX TITAN server.
	GPU = Device{
		Name: "GPU", Cores: 2688,
		SURFPixelsPerSec: phoneSURFPixelsPerSec * surfSpeedupGPU,
		MatchMACsPerSec:  phoneMatchMACsPerSec * matchSpeedupGPU,
		JPEGPixelsPerSec: 800e6,
	}
	// Xeon32 is the 32-core Xeon of the §7.3 search-space experiments,
	// roughly 2.7x the eight-core i7 on parallel matching.
	Xeon32 = Device{
		Name: "Xeon(32)", Cores: 32,
		SURFPixelsPerSec: phoneSURFPixelsPerSec * surfSpeedupI7x8 * 2.2,
		MatchMACsPerSec:  phoneMatchMACsPerSec * matchSpeedupI7x8 * 2.7,
		JPEGPixelsPerSec: 1600e6,
	}
)

// Devices lists the calibrated platforms in the paper's presentation order.
func Devices() []Device {
	return []Device{OnePlusOne, I7x1, I7x8, GPU, Xeon32}
}

// SURFTime reports the modeled SURF detect+describe runtime for a frame of
// the given pixel count.
func (d Device) SURFTime(pixels int) time.Duration {
	return secs(float64(pixels) / d.SURFPixelsPerSec)
}

// MatchTime reports the modeled brute-force matching runtime for the given
// descriptor workload in multiply-accumulate operations.
func (d Device) MatchTime(macs float64) time.Duration {
	return secs(macs / d.MatchMACsPerSec)
}

// JPEGTime reports the modeled grayscale JPEG encode time for a frame of
// the given pixel count.
func (d Device) JPEGTime(pixels int) time.Duration {
	return secs(float64(pixels) / d.JPEGPixelsPerSec)
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// String names the device.
func (d Device) String() string { return d.Name }

// Job is one unit of work submitted to a Server.
type Job struct {
	// Work is the job size in abstract operations (MACs for matching).
	Work float64
	// Done is invoked in simulation context when the job completes,
	// receiving the job's total sojourn time.
	Done func(elapsed time.Duration)

	remaining float64
	started   sim.Time
}

// Server is an egalitarian processor-sharing compute server in virtual
// time: all active jobs progress simultaneously, each receiving an equal
// share of the aggregate rate. With one client a job runs at full speed;
// with N concurrent clients each effectively runs N times slower — the
// behaviour behind Fig. 12's near-linear runtime growth with client count.
type Server struct {
	eng    *sim.Engine
	dev    Device
	rate   float64 // ops/sec aggregate
	active []*Job
	// lastUpdate is when `remaining` values were last current.
	lastUpdate sim.Time
	completion sim.Timer
	// Completed counts finished jobs.
	Completed uint64
}

// NewServer creates a processor-sharing server for dev, using its matching
// rate as the service rate.
func NewServer(eng *sim.Engine, dev Device) *Server {
	return &Server{eng: eng, dev: dev, rate: dev.MatchMACsPerSec}
}

// Device returns the server's underlying device model.
func (s *Server) Device() Device { return s.dev }

// ActiveJobs reports the number of jobs currently in service.
func (s *Server) ActiveJobs() int { return len(s.active) }

// Submit adds a job for processing. The job's Done callback fires when the
// job's work has been served.
func (s *Server) Submit(j *Job) {
	if j.Work <= 0 {
		// Degenerate job: complete immediately.
		s.Completed++
		if j.Done != nil {
			j.Done(0)
		}
		return
	}
	s.advance()
	j.remaining = j.Work
	j.started = s.eng.Now()
	s.active = append(s.active, j)
	s.reschedule()
}

// advance drains progress accrued since lastUpdate into each active job.
func (s *Server) advance() {
	now := s.eng.Now()
	if len(s.active) > 0 {
		elapsed := now.Sub(s.lastUpdate).Seconds()
		perJob := elapsed * s.rate / float64(len(s.active))
		for _, j := range s.active {
			j.remaining -= perJob
		}
	}
	s.lastUpdate = now
}

// reschedule computes the next completion among active jobs and arms a
// single event for it.
func (s *Server) reschedule() {
	s.completion.Cancel()
	if len(s.active) == 0 {
		return
	}
	// Next to finish is the job with least remaining work; under equal
	// sharing it finishes after remaining / (rate/N).
	minIdx := 0
	for i, j := range s.active {
		if j.remaining < s.active[minIdx].remaining {
			minIdx = i
		}
	}
	j := s.active[minIdx]
	dt := j.remaining / (s.rate / float64(len(s.active)))
	if dt < 0 {
		dt = 0
	}
	// Round the wakeup up to the clock resolution; the epsilon below
	// absorbs the sub-nanosecond overshoot so completion is guaranteed.
	wake := time.Duration(math.Ceil(dt * 1e9))
	s.completion = s.eng.Schedule(wake, func() {
		s.advance()
		// Complete every job whose remaining work is (numerically) spent:
		// less than ~1 ns of service time or within float error of its
		// total work.
		eps := s.rate*1e-9 + 1e-9*j.Work
		kept := s.active[:0]
		var done []*Job
		for _, job := range s.active {
			if job.remaining <= eps {
				done = append(done, job)
			} else {
				kept = append(kept, job)
			}
		}
		s.active = kept
		for _, job := range done {
			s.Completed++
			if job.Done != nil {
				job.Done(s.eng.Now().Sub(job.started))
			}
		}
		s.reschedule()
	})
}

// FrameFeatures is the paper's measured average SURF feature count per
// frame at each evaluated resolution (Fig. 3 x-axis annotations).
var FrameFeatures = map[Resolution]float64{
	{320, 240}:   392.5,
	{480, 360}:   703.9,
	{720, 540}:   1224.5,
	{960, 720}:   1704.9,
	{1440, 1080}: 2641.2,
}

// Resolution is a frame size in pixels.
type Resolution struct {
	W, H int
}

// Pixels reports the pixel count.
func (r Resolution) Pixels() int { return r.W * r.H }

// String formats as WxH.
func (r Resolution) String() string { return fmt.Sprintf("%dx%d", r.W, r.H) }

// Features returns the expected SURF feature count for a frame at this
// resolution: the paper's measured table when available, otherwise a
// power-law interpolation features ≈ a * pixels^b fitted to that table.
func (r Resolution) Features() float64 {
	if f, ok := FrameFeatures[r]; ok {
		return f
	}
	// Fit through the extreme table points:
	// b = log(f2/f1)/log(p2/p1), a = f1 / p1^b.
	const (
		p1, f1 = 320 * 240, 392.5
		p2, f2 = 1440 * 1080, 2641.2
	)
	b := math.Log(f2/f1) / math.Log(float64(p2)/float64(p1))
	a := f1 / math.Pow(p1, b)
	return a * math.Pow(float64(r.Pixels()), b)
}

// EvalResolutions are the five resolutions of Fig. 3(a)/(b)/(h).
var EvalResolutions = []Resolution{
	{320, 240}, {480, 360}, {720, 540}, {960, 720}, {1440, 1080},
}

// AppResolutions are the three resolutions of the §7.3 application
// experiments (Fig. 11/12) and the end-to-end run (720x480).
var AppResolutions = []Resolution{
	{720, 480}, {960, 720}, {1280, 720},
}
