// Offload: the paper's §4 motivation, interactively. For each device and
// frame resolution, print where the AR pipeline's time goes when run
// locally versus offloaded, and what the offload decision should be.
//
//	go run ./examples/offload
package main

import (
	"fmt"

	"acacia/internal/compute"
	"acacia/internal/core"
	"acacia/internal/media"
)

func main() {
	resolutions := compute.EvalResolutions
	devices := compute.Devices()

	fmt.Println("SURF detect+describe runtime (ms) — Fig. 3(a)'s axes:")
	fmt.Printf("%-11s", "resolution")
	for _, d := range devices {
		fmt.Printf("%12s", d.Name)
	}
	fmt.Println()
	for _, res := range resolutions {
		fmt.Printf("%-11s", res.String())
		for _, d := range devices {
			fmt.Printf("%12.1f", d.SURFTime(res.Pixels()).Seconds()*1000)
		}
		fmt.Println()
	}

	// Offload decision at 720x480 over the paper's edge (15 ms RTT,
	// 24 Mbps uplink): local compute vs upload + remote compute.
	res := compute.Resolution{W: 720, H: 480}
	frameBits := float64(media.AppFrameBytes(res) * 8)
	const (
		uplinkBps = 24e6
		edgeRTTms = 15.0
	)
	phone := compute.OnePlusOne
	local := phone.SURFTime(res.Pixels()).Seconds() * 1000 // plus matching, worse
	fmt.Printf("\noffload decision at %s (JPEG-90 frame %.0f KB, %d Mbps uplink, %.0f ms edge RTT):\n",
		res, float64(media.AppFrameBytes(res))/1024, int(uplinkBps/1e6), edgeRTTms)
	fmt.Printf("  stay local (One+):    SURF alone %.0f ms — hopeless for tens-of-ms budgets\n", local)
	for _, d := range []compute.Device{compute.I7x1, compute.I7x8, compute.GPU, compute.Xeon32} {
		remote := phone.JPEGTime(res.Pixels()).Seconds()*1000 + // compress
			frameBits/uplinkBps*1000 + edgeRTTms + // move the frame
			d.JPEGTime(res.Pixels()).Seconds()*1000 + // decode
			d.SURFTime(res.Pixels()).Seconds()*1000 // extract
		fmt.Printf("  offload to %-9s compress+upload+SURF = %.1f ms\n", d.Name+":", remote)
	}
	fmt.Println("\nmatching cost against N objects on the eight-core i7 — Fig. 3(h)'s shape:")
	for _, n := range []int{1, 5, 10, 25, 50, 105} {
		macs := core.MatchMACs(res.Features(), core.DBObjectFeatures, n)
		fmt.Printf("  %3d objects: %7.1f ms\n", n, compute.I7x8.MatchTime(macs).Seconds()*1000)
	}
	fmt.Println("pruning the database (ACACIA's context) is what keeps matching inside the budget.")
}
