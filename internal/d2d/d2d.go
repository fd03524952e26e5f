// Package d2d simulates LTE-direct device-to-device proximity service
// discovery: publishers periodically broadcast small service discovery
// messages on uplink resource blocks allocated by the eNB; subscriber modems
// filter broadcasts against interest expressions (binary code + mask) and
// forward matches — annotated with received power and SNR — to applications.
//
// The radio channel is a log-distance path-loss model with log-normal
// shadowing. Received power spans the full ~50 dB dynamic range of the
// receiver, while reported SNR is clamped to the ~25 dB span usable for
// decoding — the asymmetry behind the paper's Fig. 6 observation that
// rxPower tracks distance where SNR saturates.
package d2d

import (
	"fmt"
	"math"
	"time"

	"acacia/internal/geo"
	"acacia/internal/sim"
	"acacia/internal/telemetry"
)

// PathLossModel is a log-distance path loss with log-normal shadowing:
//
//	PL(d) = RefLossDB + 10*Exponent*log10(max(d,1)/1m) + N(0, ShadowSigmaDB)
//	rxPower = TxPowerDBm - PL(d)
type PathLossModel struct {
	TxPowerDBm    float64
	RefLossDB     float64 // loss at the 1 m reference distance
	Exponent      float64 // path loss exponent (≈3 indoors)
	ShadowSigmaDB float64 // shadowing standard deviation
}

// DefaultPathLoss is calibrated for the indoor retail environment: 23 dBm
// transmit power (UE power class 3), exponent 3.0 (indoor with obstacles),
// 2.5 dB shadowing, and a 73 dB reference loss that folds in antenna and
// body losses. This anchors rxPower at ≈ -50 dBm within a meter of a
// landmark and ≈ -103 dBm at 60 m — the ~50 dB span of the paper's
// Fig. 6(c) trace, bottoming out just above the decode sensitivity.
var DefaultPathLoss = PathLossModel{
	TxPowerDBm:    23,
	RefLossDB:     73,
	Exponent:      3.0,
	ShadowSigmaDB: 2.5,
}

// MeanRxPower returns the shadowing-free received power at distance d
// meters.
func (m PathLossModel) MeanRxPower(d float64) float64 {
	if d < 1 {
		d = 1
	}
	return m.TxPowerDBm - (m.RefLossDB + 10*m.Exponent*math.Log10(d))
}

// RxPower returns a received-power sample at distance d using rng for
// shadowing.
func (m PathLossModel) RxPower(d float64, rng *sim.RNG) float64 {
	return m.MeanRxPower(d) + rng.NormFloat64()*m.ShadowSigmaDB
}

// Receiver characteristics.
const (
	// SensitivityDBm is the weakest decodable broadcast.
	SensitivityDBm = -105.0
	// NoiseFloorDBm anchors the SNR computation.
	NoiseFloorDBm = -100.0
	// SNRDecodeSpanDB is the usable SNR reporting range: values are clamped
	// to [0, SNRDecodeSpanDB], the paper's "25 dB span compared to 50 dB
	// in rxPower".
	SNRDecodeSpanDB = 25.0
)

// snrFor converts a received power to the clamped SNR the modem reports.
func snrFor(rxPowerDBm float64) float64 {
	snr := rxPowerDBm - NoiseFloorDBm
	if snr < 0 {
		return 0
	}
	if snr > SNRDecodeSpanDB {
		return SNRDecodeSpanDB
	}
	return snr
}

// Expression is an LTE-direct interest/service expression: a binary code
// with carrier-assigned structure. The modem matches broadcast codes
// against subscription (code, mask) pairs entirely in hardware, so only
// matches wake the application processor.
type Expression struct {
	Code uint64
	Mask uint64
}

// Matches reports whether a broadcast code satisfies the expression.
func (e Expression) Matches(code uint64) bool {
	return code&e.Mask == e.Code&e.Mask
}

// ServiceCode builds a structured code: the carrier assigns the service
// (e.g. a retail chain) the high 32 bits and the service assigns categories
// (e.g. store sections) and items the low bits.
func ServiceCode(service uint32, category uint16, item uint16) uint64 {
	return uint64(service)<<32 | uint64(category)<<16 | uint64(item)
}

// Masks for common subscription granularities.
const (
	MaskService  = uint64(0xffffffff) << 32
	MaskCategory = MaskService | uint64(0xffff)<<16
)

// DiscoveryMessage is a received service discovery broadcast, annotated
// with the radio measurements the modem exposes.
type DiscoveryMessage struct {
	Service    string
	Code       uint64
	Payload    string // application-specific detail (section/product)
	From       string // publisher device name
	RxPowerDBm float64
	SNRDB      float64
	At         sim.Time
}

// Publication is a periodically broadcast service advertisement.
type Publication struct {
	Service string
	Code    uint64
	Payload string
	dev     *Device
}

// Subscription is a registered interest with its delivery callback.
type Subscription struct {
	Expr Expression
	// Deliver receives matching broadcasts. It runs in simulation context.
	Deliver  func(DiscoveryMessage)
	released bool
}

// Cancel removes the subscription from the modem.
func (s *Subscription) Cancel() { s.released = true }

// Device is one LTE-direct-capable radio at a position. Both publishing and
// subscribing are modem functions; applications interact through
// Publish/Subscribe.
type Device struct {
	env  *Env
	name string
	pos  geo.Point
	subs []*Subscription
	pubs []*Publication
}

// SetPos moves the device (walking subscribers).
func (d *Device) SetPos(p geo.Point) { d.pos = p }

// Publish starts broadcasting a service advertisement every period.
func (d *Device) Publish(service string, code uint64, payload string, period time.Duration) *Publication {
	pub := &Publication{Service: service, Code: code, Payload: payload, dev: d}
	sim.NewTicker(d.env.eng, period, func() { d.env.broadcast(pub) })
	d.pubs = append(d.pubs, pub)
	d.env.pubStarted(period)
	return pub
}

// Subscribe registers an interest expression with a delivery callback.
func (d *Device) Subscribe(expr Expression, deliver func(DiscoveryMessage)) *Subscription {
	sub := &Subscription{Expr: expr, Deliver: deliver}
	d.subs = append(d.subs, sub)
	return sub
}

// Env is the shared radio environment: it owns the devices and the channel
// model and delivers broadcasts.
type Env struct {
	eng         *sim.Engine
	rng         *sim.RNG
	PathLoss    PathLossModel
	sensitivity float64
	devices     []*Device
	// Broadcasts counts all transmissions in the environment.
	Broadcasts uint64

	// Environment-wide discovery counters, registered under d2d/ in the
	// engine's telemetry registry. The public fields above and on
	// Device/Subscription remain the per-entity views; these aggregate
	// across the environment.
	broadcasts    *telemetry.Counter
	decodes       *telemetry.Counter
	filteredModem *telemetry.Counter
	matched       *telemetry.Counter
	rbUsed        *telemetry.Counter
	ulUtilization *telemetry.Gauge

	// activePubs counts publications for the utilization gauge; the period
	// of the most recent Publish is used as the allocation period.
	activePubs int
}

// NewEnv creates a radio environment on eng with the default (LTE-direct)
// channel; set PathLoss to model another radio.
func NewEnv(eng *sim.Engine) *Env {
	scope := eng.Metrics().Scope("d2d")
	return &Env{
		eng: eng, rng: eng.RNG().Fork("d2d"),
		PathLoss:      DefaultPathLoss,
		sensitivity:   SensitivityDBm,
		broadcasts:    scope.Counter("broadcasts"),
		decodes:       scope.Counter("decodes"),
		filteredModem: scope.Counter("filtered-modem"),
		matched:       scope.Counter("matched"),
		rbUsed:        scope.Counter("rb-used"),
		ulUtilization: scope.Gauge("uplink-rb-utilization"),
	}
}

// pubStarted counts a new publication into the uplink-utilization gauge.
func (e *Env) pubStarted(period time.Duration) {
	e.activePubs++
	e.ulUtilization.Set(UplinkUtilization(e.activePubs, period))
}

// AddDevice registers a new device at pos.
func (e *Env) AddDevice(name string, pos geo.Point) *Device {
	for _, d := range e.devices {
		if d.name == name {
			panic("d2d: duplicate device name " + name)
		}
	}
	d := &Device{env: e, name: name, pos: pos}
	e.devices = append(e.devices, d)
	return d
}

// broadcast delivers pub's message to every other device within decode
// range, applying modem-side expression filtering.
func (e *Env) broadcast(pub *Publication) {
	e.Broadcasts++
	e.broadcasts.Inc()
	e.rbUsed.Add(RBsPerMessage)
	src := pub.dev
	for _, dst := range e.devices {
		if dst == src {
			continue
		}
		dist := src.pos.Dist(dst.pos)
		rx := e.PathLoss.RxPower(dist, e.rng)
		if rx < e.sensitivity {
			continue
		}
		e.decodes.Inc()
		msg := DiscoveryMessage{
			Service:    pub.Service,
			Code:       pub.Code,
			Payload:    pub.Payload,
			From:       src.name,
			RxPowerDBm: rx,
			SNRDB:      snrFor(rx),
			At:         e.eng.Now(),
		}
		matched := false
		// Compact the subscription list lazily, dropping cancelled entries.
		kept := dst.subs[:0]
		for _, sub := range dst.subs {
			if sub.released {
				continue
			}
			kept = append(kept, sub)
			if sub.Expr.Matches(pub.Code) {
				matched = true
				e.matched.Inc()
				sub.Deliver(msg)
			}
		}
		dst.subs = kept
		if !matched {
			// Discarded without waking any application: the scalability
			// property of LTE-direct.
			e.filteredModem.Inc()
		}
	}
}

// Resource-block accounting for the uplink discovery allocation
// (Qualcomm's LTE-direct design: periodic RB allocations in uplink frames,
// < 1% of uplink capacity).
const (
	// RBsPerSubframe is the uplink RB count of a 10 MHz carrier per 1 ms
	// subframe.
	RBsPerSubframe = 50
	// RBsPerMessage is the cost of one discovery broadcast (2 RB pairs).
	RBsPerMessage = 4
)

// UplinkUtilization reports the fraction of uplink resource blocks consumed
// by discovery broadcasts from n publishers at the given period: the
// quantity the paper bounds below 1%.
func UplinkUtilization(publishers int, period time.Duration) float64 {
	if period <= 0 {
		return 0
	}
	subframesPerPeriod := float64(period) / float64(time.Millisecond)
	totalRBs := subframesPerPeriod * RBsPerSubframe
	used := float64(publishers * RBsPerMessage)
	return used / totalRBs
}

// String describes the environment.
func (e *Env) String() string {
	return fmt.Sprintf("d2d.Env{%d devices, %d broadcasts}", len(e.devices), e.Broadcasts)
}
