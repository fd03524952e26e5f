package d2d

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"acacia/internal/geo"
	"acacia/internal/sim"
)

// maskItem subscribes to one exact service code.
const maskItem = ^uint64(0)

func TestPathLossMonotoneInDistance(t *testing.T) {
	m := DefaultPathLoss
	prev := math.Inf(1)
	for d := 1.0; d <= 100; d += 1 {
		rx := m.MeanRxPower(d)
		if rx >= prev {
			t.Fatalf("rxPower not strictly decreasing at %v m", d)
		}
		prev = rx
	}
}

func TestPathLossInverse(t *testing.T) {
	m := DefaultPathLoss
	f := func(raw uint16) bool {
		d := 1 + float64(raw%600)/10 // 1..61 m
		rx := m.MeanRxPower(d)
		back := meanDistance(m, rx)
		return math.Abs(back-d) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPathLossDynamicRange(t *testing.T) {
	m := DefaultPathLoss
	near, far := m.MeanRxPower(1), m.MeanRxPower(60)
	span := near - far
	// Paper: rxPower varies over ~50 dB while SNR only spans 25 dB.
	if span < 40 || span > 70 {
		t.Errorf("rxPower span over 1-60 m = %.1f dB, want ~50", span)
	}
	if near > -40 || near < -65 {
		t.Errorf("near rxPower = %.1f dBm, want ≈ -50", near)
	}
	if far > SensitivityDBm+20 && far < SensitivityDBm {
		t.Errorf("far rxPower = %.1f dBm near sensitivity", far)
	}
}

func TestSNRClamping(t *testing.T) {
	if got := snrFor(-50); got != SNRDecodeSpanDB {
		t.Errorf("close-range SNR = %v, want clamp at %v", got, SNRDecodeSpanDB)
	}
	if got := snrFor(-90); got != 10 {
		t.Errorf("snr(-90) = %v, want 10", got)
	}
	if got := snrFor(-120); got != 0 {
		t.Errorf("snr below noise floor = %v, want 0", got)
	}
}

func TestSNRSaturatesWhereRxPowerDiscriminates(t *testing.T) {
	m := DefaultPathLoss
	// Two positions close to a landmark: rxPower differs, SNR identical
	// (both clamped) — the reason ACACIA localizes on rxPower.
	rx2, rx8 := m.MeanRxPower(2), m.MeanRxPower(5)
	if rx2 == rx8 {
		t.Fatal("rxPower should discriminate 2 m from 5 m")
	}
	if snrFor(rx2) != snrFor(rx8) {
		t.Errorf("SNR at 2m (%v) and 5m (%v) should both clamp", snrFor(rx2), snrFor(rx8))
	}
}

func TestExpressionMatching(t *testing.T) {
	retail := uint32(0xACAC)
	laptops := uint16(3)
	code := ServiceCode(retail, laptops, 7)

	svcSub := Expression{Code: ServiceCode(retail, 0, 0), Mask: MaskService}
	if !svcSub.Matches(code) {
		t.Error("service-level subscription should match any category")
	}
	catSub := Expression{Code: ServiceCode(retail, laptops, 0), Mask: MaskCategory}
	if !catSub.Matches(code) {
		t.Error("category subscription should match items in category")
	}
	otherCat := Expression{Code: ServiceCode(retail, 4, 0), Mask: MaskCategory}
	if otherCat.Matches(code) {
		t.Error("different category matched")
	}
	otherSvc := Expression{Code: ServiceCode(0xBEEF, laptops, 0), Mask: MaskCategory}
	if otherSvc.Matches(code) {
		t.Error("different service matched")
	}
	itemSub := Expression{Code: code, Mask: maskItem}
	if !itemSub.Matches(code) {
		t.Error("exact item subscription should match")
	}
	if itemSub.Matches(ServiceCode(retail, laptops, 8)) {
		t.Error("exact item subscription matched wrong item")
	}
}

func TestBroadcastDeliveryAndFiltering(t *testing.T) {
	eng := sim.NewEngine(3)
	env := NewEnv(eng)
	env.PathLoss.ShadowSigmaDB = 0

	pubDev := env.AddDevice("salesman", geo.Point{X: 5, Y: 5})
	subDev := env.AddDevice("customer", geo.Point{X: 8, Y: 9}) // 5 m away
	farDev := env.AddDevice("faraway", geo.Point{X: 5000, Y: 5000})

	code := ServiceCode(1, 2, 3)
	var got []DiscoveryMessage
	subDev.Subscribe(Expression{Code: code, Mask: MaskCategory}, func(m DiscoveryMessage) {
		got = append(got, m)
	})
	var farGot int
	farDev.Subscribe(Expression{Code: code, Mask: MaskCategory}, func(m DiscoveryMessage) { farGot++ })

	// A second subscriber interested in something else: modem filters it.
	otherDev := env.AddDevice("other", geo.Point{X: 6, Y: 6})
	otherDev.Subscribe(Expression{Code: ServiceCode(9, 9, 9), Mask: MaskCategory}, func(DiscoveryMessage) {
		t.Error("non-matching subscription delivered")
	})

	pubDev.Publish("retail", code, "laptops", time.Second)
	eng.RunUntil(sim.Time(3500 * time.Millisecond))

	if len(got) != 3 {
		t.Fatalf("deliveries = %d, want 3 (one per period)", len(got))
	}
	m := got[0]
	if m.Service != "retail" || m.Payload != "laptops" || m.From != "salesman" {
		t.Errorf("message = %+v", m)
	}
	wantRx := env.PathLoss.MeanRxPower(5)
	if math.Abs(m.RxPowerDBm-wantRx) > 1e-9 {
		t.Errorf("rxPower = %v, want %v", m.RxPowerDBm, wantRx)
	}
	if farGot != 0 {
		t.Error("out-of-range device received broadcast")
	}
	// Only otherDev heard a broadcast no subscription wanted.
	if n := eng.Metrics().Snapshot().CounterValue("d2d/filtered-modem"); n != 3 {
		t.Errorf("modem filtered = %d, want 3", n)
	}
}

func TestSubscriptionCancel(t *testing.T) {
	eng := sim.NewEngine(3)
	env := NewEnv(eng)
	pub := env.AddDevice("p", geo.Point{X: 0, Y: 0})
	subDev := env.AddDevice("s", geo.Point{X: 3, Y: 0})
	n := 0
	sub := subDev.Subscribe(Expression{Code: 1, Mask: maskItem}, func(DiscoveryMessage) { n++ })
	pub.Publish("svc", 1, "x", time.Second)
	eng.RunUntil(sim.Time(1500 * time.Millisecond))
	sub.Cancel()
	eng.RunUntil(sim.Time(5 * time.Second))
	if n != 1 {
		t.Errorf("deliveries = %d, want 1 (cancelled after first)", n)
	}
}

func TestMovingSubscriberSeesPowerGradient(t *testing.T) {
	// As the subscriber walks toward the publisher, mean rxPower rises.
	eng := sim.NewEngine(3)
	env := NewEnv(eng)
	env.PathLoss.ShadowSigmaDB = 0
	p := env.AddDevice("p", geo.Point{X: 0, Y: 0})
	s := env.AddDevice("s", geo.Point{X: 40, Y: 0})
	var powers []float64
	s.Subscribe(Expression{Code: 1, Mask: maskItem}, func(m DiscoveryMessage) {
		powers = append(powers, m.RxPowerDBm)
	})
	p.Publish("svc", 1, "x", time.Second)
	pos := geo.Point{X: 40, Y: 0}
	sim.NewTicker(eng, time.Second, func() {
		pos.X -= 5
		if pos.X < 1 {
			pos.X = 1
		}
		s.SetPos(pos)
	})
	eng.RunUntil(sim.Time(7 * time.Second))
	if len(powers) < 5 {
		t.Fatalf("samples = %d", len(powers))
	}
	if powers[len(powers)-1] <= powers[0] {
		t.Errorf("rxPower did not rise while approaching: %v", powers)
	}
}

func TestUplinkUtilizationUnderOnePercent(t *testing.T) {
	// Paper: discovery uses < 1% of uplink resources at 5-10 s periods,
	// scaling to hundreds of devices.
	for _, period := range []time.Duration{5 * time.Second, 10 * time.Second} {
		for _, n := range []int{1, 10, 100, 300} {
			u := UplinkUtilization(n, period)
			if n <= 300 && period >= 5*time.Second && u >= 0.01 {
				t.Errorf("utilization(%d pubs, %v) = %.4f, want < 1%%", n, period, u)
			}
		}
	}
	if UplinkUtilization(10, 0) != 0 {
		t.Error("zero period should report zero utilization")
	}
	// More publishers consume more resources.
	if UplinkUtilization(100, 5*time.Second) <= UplinkUtilization(10, 5*time.Second) {
		t.Error("utilization not increasing in publisher count")
	}
}

func TestDuplicateDeviceNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate device name did not panic")
		}
	}()
	env := NewEnv(sim.NewEngine(1))
	env.AddDevice("x", geo.Point{})
	env.AddDevice("x", geo.Point{X: 1, Y: 1})
}

func TestShadowingIsZeroMean(t *testing.T) {
	eng := sim.NewEngine(77)
	m := DefaultPathLoss
	rng := eng.RNG()
	const d = 10.0
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += m.RxPower(d, rng)
	}
	mean := sum / n
	if math.Abs(mean-m.MeanRxPower(d)) > 0.1 {
		t.Errorf("shadowed mean = %v, want %v", mean, m.MeanRxPower(d))
	}
}
