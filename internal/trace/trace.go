// Package trace generates the LTE-direct walking traces of the paper's
// localization experiments: a subscriber moves along a path through an
// environment of landmark publishers, periodically receiving service
// discovery messages annotated with rxPower and SNR (Fig. 6), and
// checkpoint measurement campaigns collect per-position landmark readings
// for the accuracy evaluation (Fig. 9).
package trace

import (
	"cmp"
	"time"

	"acacia/internal/d2d"
	"acacia/internal/geo"
	"acacia/internal/sim"
)

// Sample is one received discovery message during a walk.
type Sample struct {
	At       sim.Time
	Landmark string
	RxPower  float64
	SNR      float64
}

// WalkConfig parameterizes a walking trace.
type WalkConfig struct {
	// Path is the walk; the subscriber moves at Speed m/s from its start.
	Path  geo.Path
	Speed float64 // default 1.0 m/s
	// Period is the publishers' broadcast period (default 5 s, the
	// LTE-direct discovery interval).
	Period time.Duration
	// Seed drives the channel's shadowing.
	Seed uint64
}

// Walk runs a subscriber along the path past the floor's landmarks and
// returns every received discovery message. The subscriber subscribes
// service-wide, so all landmarks are heard (subject to the channel).
func Walk(floor *geo.Floor, cfg WalkConfig) []Sample {
	cfg.Speed, cfg.Period = cmp.Or(cfg.Speed, 1.0), cmp.Or(cfg.Period, 5*time.Second)
	eng := sim.NewEngine(cfg.Seed)
	env := d2d.NewEnv(eng)

	for i, lm := range floor.Landmarks {
		dev := env.AddDevice(lm.Name, lm.Pos)
		dev.Publish("trace", d2d.ServiceCode(1, uint16(i), 0), lm.Section, cfg.Period)
	}
	w := geo.Walker{Path: cfg.Path, Speed: cfg.Speed}
	start := eng.Now()
	sub := env.AddDevice("walker", w.PosAt(0))

	var samples []Sample
	sub.Subscribe(d2d.Expression{Code: d2d.ServiceCode(1, 0, 0), Mask: d2d.MaskService},
		func(m d2d.DiscoveryMessage) {
			samples = append(samples, Sample{
				At:       m.At,
				Landmark: m.From,
				RxPower:  m.RxPowerDBm,
				SNR:      m.SNRDB,
			})
		})

	// Move the subscriber every 100 ms.
	const step = 100 * time.Millisecond
	sim.NewTicker(eng, step, func() { sub.SetPos(w.PosAt(eng.Now().Sub(start))) })
	eng.RunUntil(start.Add(w.Duration()))
	return samples
}

// CheckpointReading is the averaged rxPower from one landmark at one
// checkpoint.
type CheckpointReading struct {
	Checkpoint string
	Landmark   string
	RxPower    float64
}

// Campaign collects averaged landmark readings at every checkpoint of the
// floor: the measurement traces behind the Fig. 9 accuracy evaluation.
// samplesPerPoint broadcasts are averaged per landmark (default 5).
func Campaign(floor *geo.Floor, seed uint64, samplesPerPoint int) []CheckpointReading {
	if samplesPerPoint <= 0 {
		samplesPerPoint = 5
	}
	eng := sim.NewEngine(seed)
	env := d2d.NewEnv(eng)
	rng := eng.RNG().Fork("campaign")

	var out []CheckpointReading
	for _, cp := range floor.Checkpoints {
		for _, lm := range floor.Landmarks {
			dist := cp.Pos.Dist(lm.Pos)
			var sum float64
			n := 0
			for s := 0; s < samplesPerPoint; s++ {
				rx := env.PathLoss.RxPower(dist, rng)
				if rx < d2d.SensitivityDBm {
					continue
				}
				sum += rx
				n++
			}
			if n == 0 {
				continue
			}
			out = append(out, CheckpointReading{
				Checkpoint: cp.Name,
				Landmark:   lm.Name,
				RxPower:    sum / float64(n),
			})
		}
	}
	return out
}

// ByCheckpoint groups campaign readings by checkpoint name.
func ByCheckpoint(readings []CheckpointReading) map[string][]CheckpointReading {
	m := make(map[string][]CheckpointReading)
	for _, r := range readings {
		m[r.Checkpoint] = append(m[r.Checkpoint], r)
	}
	return m
}
