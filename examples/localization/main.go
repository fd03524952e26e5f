// Localization: calibrate the per-environment path-loss model, walk the
// Fig. 6 trace to see why rxPower (not SNR) carries position information,
// then run the Fig. 9-style accuracy evaluation across landmark subsets.
//
//	go run ./examples/localization
package main

import (
	"fmt"
	"time"

	"acacia/internal/core"
	"acacia/internal/d2d"
	"acacia/internal/geo"
	"acacia/internal/localization"
	"acacia/internal/stats"
	"acacia/internal/trace"
)

func main() {
	// 1. One-time calibration: fit rxPower = alpha + beta*log10(d).
	fit := core.CalibrateFromChannel(d2d.DefaultPathLoss)
	fmt.Printf("path-loss fit: rxPower = %.1f %+.1f*log10(d) dBm (residual %.2f dB)\n\n",
		fit.Alpha, fit.Beta, fit.Residual)

	// 2. The Fig. 6 walk: three landmarks in a hall.
	hall := geo.ThreeLandmarkFloor()
	samples := trace.Walk(hall, trace.WalkConfig{
		Path: geo.Fig6WalkPath(), Speed: 0.1, Period: 5 * time.Second, Seed: 6,
	})
	fmt.Println("walking past three landmarks (5 s discovery period):")
	fmt.Println("  landmark    samples  rxPower span (dB)  SNR span (dB)")
	for _, lm := range hall.Landmarks {
		var rx, snr stats.Sample
		for _, s := range samples {
			if s.Landmark == lm.Name {
				rx.Add(s.RxPower)
				snr.Add(s.SNR)
			}
		}
		fmt.Printf("  %-10s %8d %18.1f %14.1f\n",
			lm.Name, rx.N(), rx.Max()-rx.Min(), snr.Max()-snr.Min())
	}
	fmt.Println("  (rxPower swings tens of dB with distance; SNR saturates at the 25 dB decode span)")

	// 3. Fig. 9: retail floor, checkpoint campaign, accuracy vs landmarks.
	floor := geo.RetailFloor()
	readings := trace.Campaign(floor, 2016, 1)
	grouped := trace.ByCheckpoint(readings)
	fmt.Printf("\naccuracy over %d checkpoints:\n", len(floor.Checkpoints))
	fmt.Println("  landmarks   best(m)   mean(m)  worst(m)")
	for k := 3; k <= len(floor.Landmarks); k++ {
		var comboErr stats.Sample
		for _, combo := range localization.Combinations(len(floor.Landmarks), k) {
			use := map[string]bool{}
			for _, i := range combo {
				use[floor.Landmarks[i].Name] = true
			}
			var sum float64
			n := 0
			for _, cp := range floor.Checkpoints {
				var ms []localization.Measurement
				for _, r := range grouped[cp.Name] {
					if m, ok := core.LandmarkRange(floor, fit, r.Landmark, r.RxPower); ok && use[r.Landmark] {
						ms = append(ms, m)
					}
				}
				if est, ok := core.EstimatePosition(floor, ms); ok {
					sum += est.Dist(cp.Pos)
					n++
				}
			}
			if n > 0 {
				comboErr.Add(sum / float64(n))
			}
		}
		fmt.Printf("  %9d %9.2f %9.2f %9.2f\n", k, comboErr.Min(), comboErr.Mean(), comboErr.Max())
	}
	fmt.Println("\n(paper: ≈3 m mean error with all 7 landmarks — enough for subsection pruning)")
}
