package d2d

import (
	"math"
	"testing"
	"time"

	"acacia/internal/geo"
	"acacia/internal/sim"
)

// Technology characterizes a proximity service discovery radio. The paper
// (§8) notes ACACIA can run over other pub/sub discovery technologies —
// Bluetooth iBeacon and Wi-Fi Aware — which differ in transmit power,
// propagation, discovery period and scale, but expose the same service
// discovery message + power-level shape the device manager consumes.
type Technology struct {
	Name     string
	PathLoss PathLossModel
	// SensitivityDBm is the weakest decodable broadcast.
	SensitivityDBm float64
	// MinPeriod is the fastest sensible advertisement period.
	MinPeriod time.Duration
	// TypicalRangeM is the advertised usable range; derived ranges are
	// validated against it.
	TypicalRangeM float64
}

// The three technologies the paper discusses.
var (
	// LTEDirect: 23 dBm UE transmit power, licensed spectrum, superior
	// range and robustness; 5-10 s discovery periods.
	LTEDirect = Technology{
		Name:           "LTE-direct",
		PathLoss:       DefaultPathLoss,
		SensitivityDBm: SensitivityDBm,
		MinPeriod:      5 * time.Second,
		TypicalRangeM:  60,
	}
	// IBeacon: Bluetooth LE at ~0 dBm with ~100 ms advertisement
	// intervals; tens of meters indoors.
	IBeacon = Technology{
		Name: "iBeacon",
		PathLoss: PathLossModel{
			TxPowerDBm:    0,
			RefLossDB:     60, // 2.4 GHz reference loss incl. antenna
			Exponent:      2.6,
			ShadowSigmaDB: 4.0, // BLE fading is noisier
		},
		SensitivityDBm: -95,
		MinPeriod:      100 * time.Millisecond,
		TypicalRangeM:  20,
	}
	// WiFiAware (NAN): ~15 dBm, 2.4/5 GHz, discovery windows every 512 TU
	// (~524 ms).
	WiFiAware = Technology{
		Name: "Wi-Fi Aware",
		PathLoss: PathLossModel{
			TxPowerDBm:    15,
			RefLossDB:     62,
			Exponent:      2.8,
			ShadowSigmaDB: 3.0,
		},
		SensitivityDBm: -92,
		MinPeriod:      524 * time.Millisecond,
		TypicalRangeM:  40,
	}
)

// technologies lists the discovery radios above.
func technologies() []Technology {
	return []Technology{LTEDirect, IBeacon, WiFiAware}
}

// maxRange reports the distance at which t's mean received power falls to
// its sensitivity: the decode horizon without shadowing.
func maxRange(t Technology) float64 {
	return meanDistance(t.PathLoss, t.SensitivityDBm)
}

// meanDistance returns the distance whose shadowing-free received power
// under m equals rx dBm: the closed-form inverse of MeanRxPower.
func meanDistance(m PathLossModel, rx float64) float64 {
	return math.Pow(10, (m.TxPowerDBm-m.RefLossDB-rx)/(10*m.Exponent))
}

// apply switches e to t's channel, path loss and sensitivity. Existing
// devices keep their subscriptions; only the radio model changes.
func apply(t Technology, e *Env) {
	e.PathLoss = t.PathLoss
	e.sensitivity = t.SensitivityDBm
}

func TestTechnologyRangeOrdering(t *testing.T) {
	lte := maxRange(LTEDirect)
	wifi := maxRange(WiFiAware)
	ble := maxRange(IBeacon)
	if !(ble < wifi && wifi <= lte*2 && lte > wifi*0.5) {
		t.Errorf("ranges: ble=%.1f wifi=%.1f lte=%.1f", ble, wifi, lte)
	}
	// LTE-direct has the superior range the paper credits it with.
	if lte <= ble {
		t.Errorf("LTE-direct range %.1f not beyond iBeacon %.1f", lte, ble)
	}
}

func TestTechnologyRangesMatchSpec(t *testing.T) {
	for _, tech := range technologies() {
		r := maxRange(tech)
		// The decode horizon should be the same order as the documented
		// typical range (within a factor of ~3: typical < max).
		if r < tech.TypicalRangeM*0.8 || r > tech.TypicalRangeM*4 {
			t.Errorf("%s: decode horizon %.1f m vs typical %.1f m", tech.Name, r, tech.TypicalRangeM)
		}
		if tech.MinPeriod <= 0 {
			t.Errorf("%s: no minimum period", tech.Name)
		}
	}
}

func TestApplySwitchesChannel(t *testing.T) {
	eng := sim.NewEngine(9)
	env := NewEnv(eng)
	env.PathLoss.ShadowSigmaDB = 0

	pub := env.AddDevice("p", geo.Point{X: 0, Y: 0})
	// Subscriber placed beyond iBeacon range but inside LTE-direct range.
	dist := (maxRange(IBeacon) + 5)
	sub := env.AddDevice("s", geo.Point{X: dist, Y: 0})
	n := 0
	sub.Subscribe(Expression{Code: 1, Mask: maskItem}, func(DiscoveryMessage) { n++ })
	pub.Publish("svc", 1, "x", time.Second)

	eng.RunUntil(sim.Time(1500 * time.Millisecond))
	if n != 1 {
		t.Fatalf("LTE-direct deliveries = %d, want 1", n)
	}

	// Switch to iBeacon: the same geometry is now out of range.
	tech := IBeacon
	tech.PathLoss.ShadowSigmaDB = 0
	apply(tech, env)
	eng.RunUntil(sim.Time(4500 * time.Millisecond))
	if n != 1 {
		t.Errorf("iBeacon deliveries at %.1f m = %d, want none beyond range", dist, n-1)
	}
}

func TestIBeaconWorksAtShortRange(t *testing.T) {
	eng := sim.NewEngine(9)
	env := NewEnv(eng)
	tech := IBeacon
	tech.PathLoss.ShadowSigmaDB = 0
	apply(tech, env)
	pub := env.AddDevice("p", geo.Point{X: 0, Y: 0})
	sub := env.AddDevice("s", geo.Point{X: 5, Y: 0})
	n := 0
	sub.Subscribe(Expression{Code: 1, Mask: maskItem}, func(DiscoveryMessage) { n++ })
	pub.Publish("svc", 1, "x", IBeacon.MinPeriod)
	eng.RunUntil(sim.Time(time.Second))
	if n < 8 {
		t.Errorf("iBeacon deliveries at 5 m over 1 s = %d, want ≈10 (100 ms period)", n)
	}
}

func TestDiscoveryLatencyByTechnology(t *testing.T) {
	// iBeacon's fast advertisement interval buys quick discovery; LTE-direct
	// pays its 5 s period but reaches much farther. Both trade-offs are
	// visible in time-to-first-match at 10 m.
	measure := func(tech Technology) sim.Time {
		eng := sim.NewEngine(33)
		env := NewEnv(eng)
		tech.PathLoss.ShadowSigmaDB = 0
		apply(tech, env)
		pub := env.AddDevice("p", geo.Point{X: 0, Y: 0})
		sub := env.AddDevice("s", geo.Point{X: 10, Y: 0})
		var at sim.Time
		sub.Subscribe(Expression{Code: 1, Mask: maskItem}, func(m DiscoveryMessage) {
			if at == 0 {
				at = m.At
			}
		})
		pub.Publish("svc", 1, "x", tech.MinPeriod)
		eng.RunUntil(sim.Time(20 * time.Second))
		return at
	}
	lte := measure(LTEDirect)
	ble := measure(IBeacon)
	if ble == 0 || lte == 0 {
		t.Fatalf("no discovery: ble=%v lte=%v", ble, lte)
	}
	if ble >= lte {
		t.Errorf("iBeacon first match %v not faster than LTE-direct %v", ble, lte)
	}
}
