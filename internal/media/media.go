// Package media models the camera and image-compression side of the AR
// front-end: the phone's preview frame rates by resolution (Fig. 3(e)), the
// calibrated compression ratios behind the achievable-upload-FPS analysis
// (Fig. 3(f)) and the §7.3 compression table, plus a real block-DCT
// grayscale codec that the front-end uses to actually compress synthetic
// frames.
package media

import "acacia/internal/compute"

// CameraFPS is the measured One+ One camera preview rate by resolution
// (Fig. 3(e)): full rate up to DVD-class sizes, dropping to 10 FPS at full
// HD.
var CameraFPS = map[compute.Resolution]float64{
	{W: 320, H: 240}:   30,
	{W: 640, H: 480}:   30,
	{W: 720, H: 480}:   30,
	{W: 1280, H: 720}:  15,
	{W: 1280, H: 960}:  15,
	{W: 1440, H: 1080}: 13,
	{W: 1920, H: 1080}: 10,
}

// PreviewFPS reports the camera preview rate for a resolution, defaulting
// pessimistically to the full-HD rate for unknown sizes.
func PreviewFPS(r compute.Resolution) float64 {
	if fps, ok := CameraFPS[r]; ok {
		return fps
	}
	return 10
}

// Encoding identifies a frame encoding evaluated in Fig. 3(f).
type Encoding struct {
	Name string
	// Ratio is the size reduction vs. raw grayscale for the HD store
	// scene of the Fig. 3(f) experiment.
	Ratio float64
}

// The encodings of Fig. 3(f), with ratios calibrated so that JPEG 90 yields
// ≈8 FPS over a 12 Mbps uplink for full-HD grayscale frames, raw cannot
// reach 1 FPS, and quality ordering is preserved.
var (
	JPEG50  = Encoding{Name: "JPEG 50", Ratio: 22}
	JPEG80  = Encoding{Name: "JPEG 80", Ratio: 14}
	JPEG90  = Encoding{Name: "JPEG 90", Ratio: 11}
	JPEG100 = Encoding{Name: "JPEG 100", Ratio: 4}
	PNG     = Encoding{Name: "PNG", Ratio: 2.2}
	RawGray = Encoding{Name: "Raw (Gray)", Ratio: 1}
)

// Fig3fEncodings lists the encodings in the figure's legend order.
func Fig3fEncodings() []Encoding {
	return []Encoding{JPEG50, JPEG80, JPEG90, JPEG100, PNG, RawGray}
}

// FrameBytes reports the encoded size of a grayscale frame at the given
// resolution (raw = 1 byte per pixel).
func (e Encoding) FrameBytes(r compute.Resolution) int {
	return int(float64(r.Pixels()) / e.Ratio)
}

// UploadFPS reports the frame rate sustainable over an uplink of the given
// capacity, ignoring protocol overhead as the paper's calculation does.
func (e Encoding) UploadFPS(r compute.Resolution, uplinkBps float64) float64 {
	bitsPerFrame := float64(e.FrameBytes(r) * 8)
	if bitsPerFrame <= 0 {
		return 0
	}
	return uplinkBps / bitsPerFrame
}

// AppCompression is the §7.3 measurement on the One+ One for JPEG 90 over
// the application resolutions: per-frame encode time and achieved ratio
// (close-up object scenes compress less than the HD store scene).
type AppCompression struct {
	Resolution compute.Resolution
	EncodeMS   float64
	Ratio      float64
}

// AppCompressionTable reproduces the paper's measured values: 53/38/23 ms
// and 5x/5.8x/4.7x for 1280x720, 960x720 and 720x480.
func AppCompressionTable() []AppCompression {
	return []AppCompression{
		{Resolution: compute.Resolution{W: 1280, H: 720}, EncodeMS: 53, Ratio: 5.0},
		{Resolution: compute.Resolution{W: 960, H: 720}, EncodeMS: 38, Ratio: 5.8},
		{Resolution: compute.Resolution{W: 720, H: 480}, EncodeMS: 23, Ratio: 4.7},
	}
}

// AppFrameBytes reports the compressed JPEG-90 frame size the AR front-end
// uploads at an application resolution, using the §7.3 measured ratios
// (falling back to the generic JPEG90 ratio for other sizes).
func AppFrameBytes(r compute.Resolution) int {
	for _, c := range AppCompressionTable() {
		if c.Resolution == r {
			return int(float64(r.Pixels()) / c.Ratio)
		}
	}
	return JPEG90.FrameBytes(r)
}

// String formats the encoding name.
func (e Encoding) String() string { return e.Name }
