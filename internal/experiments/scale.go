package experiments

import (
	"errors"
	"fmt"
	"math"
	"time"

	"acacia/internal/core"
	"acacia/internal/epc"
	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sim"
	"acacia/internal/stats"
)

func init() { register(scaleMetro()) }

// The scale experiment is the metro-scale witness for the whole refactor
// stack: a generated grid of edge sites, a grid of eNBs on the aggregation
// router, and a UE population that arrives on a diurnal curve with a flash
// crowd around one site. Arriving UEs attach in batched cohorts (AttachBatch),
// request MEC connectivity through the capacity-admitting MRS (spilling to
// other sites when their home site fills, backing off when everything is
// full), and then run a periodic AR-style frame loop against their assigned
// CI server. The output is the UEs-vs-latency curve — attach and frame
// percentiles bucketed by the attached population at the time of the
// measurement.
//
// Determinism: no RNG is drawn anywhere. Placement uses a golden-ratio
// low-discrepancy sequence over deterministic site weights, arrivals invert
// the diurnal CDF at fixed quantiles, and every frame timer owns a unique
// sub-millisecond phase (UE k sends at a whole millisecond plus k+1 ns, with
// a whole-millisecond period), so no two UEs ever send at the same instant.

// ScaleConfig shapes the generated metro scenario.
type ScaleConfig struct {
	// Sites is the number of generated edge sites; ENBsPerSite eNBs hang
	// off the aggregation router for each site.
	Sites       int
	ENBsPerSite int
	// UEs is the total population.
	UEs int
	// SiteCapacity is the MRS capacity units per site (0 = unbounded).
	// When Sites*SiteCapacity < UEs the tail of the population is rejected
	// with ErrNoCapacity and retries on a capped backoff.
	SiteCapacity int
	// Ramp is the arrival window; Hold extends the run after the last
	// scheduled arrival so the frame loops reach steady state.
	Ramp, Hold time.Duration
	// CohortWindow groups arrivals into AttachBatch cohorts.
	CohortWindow time.Duration
	// FramePeriod/FrameService shape the AR frame loop: each bound UE sends
	// one request per period; the CI server is a FIFO single-server queue
	// with the given per-frame service time. Both must be whole
	// milliseconds/microseconds (the no-ties scheme relies on it).
	FramePeriod  time.Duration
	FrameService time.Duration
	// Arrival selects the profile: "uniform" (flat), "diurnal" (sin^2
	// curve) or "flash" (diurnal plus a flash crowd around FlashSite).
	Arrival string
	// FlashSite is the 0-based site index the flash crowd is homed on;
	// FlashFraction the fraction of the population arriving in the flash.
	FlashSite     int
	FlashFraction float64
	// Workers is ignored: every run uses one event queue. It stays only
	// because the benchmark still sets it; output is identical for any
	// value.
	Workers int
}

// DefaultScaleConfig returns the preset shapes: the quick shape keeps tests
// fast; the full shape is the acceptance scenario (>= 10,000 UEs across
// >= 12 generated sites).
func DefaultScaleConfig(full bool) ScaleConfig {
	if full {
		return ScaleConfig{
			Sites: 12, ENBsPerSite: 2, UEs: 10000, SiteCapacity: 820,
			Ramp: 20 * time.Second, Hold: 10 * time.Second,
			CohortWindow: 250 * time.Millisecond,
			FramePeriod:  2 * time.Second, FrameService: 2 * time.Millisecond,
			Arrival: "flash", FlashSite: 4, FlashFraction: 0.2,
		}
	}
	return ScaleConfig{
		Sites: 4, ENBsPerSite: 1, UEs: 120, SiteCapacity: 26,
		Ramp: 6 * time.Second, Hold: 3 * time.Second,
		CohortWindow: 250 * time.Millisecond,
		FramePeriod:  time.Second, FrameService: 20 * time.Millisecond,
		Arrival: "flash", FlashSite: 2, FlashFraction: 0.25,
	}
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	d := DefaultScaleConfig(false)
	if c.Sites <= 0 {
		c.Sites = d.Sites
	}
	if c.ENBsPerSite <= 0 {
		c.ENBsPerSite = d.ENBsPerSite
	}
	if c.UEs <= 0 {
		c.UEs = d.UEs
	}
	if c.Ramp <= 0 {
		c.Ramp = d.Ramp
	}
	if c.Hold <= 0 {
		c.Hold = d.Hold
	}
	if c.CohortWindow <= 0 {
		c.CohortWindow = d.CohortWindow
	}
	if c.FramePeriod <= 0 {
		c.FramePeriod = d.FramePeriod
	}
	if c.FrameService <= 0 {
		c.FrameService = d.FrameService
	}
	if c.Arrival == "" {
		c.Arrival = d.Arrival
	}
	if c.FlashSite < 0 || c.FlashSite >= c.Sites {
		c.FlashSite = c.Sites / 2
	}
	if c.FlashFraction <= 0 || c.FlashFraction >= 1 {
		c.FlashFraction = d.FlashFraction
	}
	return c
}

// scaleUEAddr is UE k's address: 250 hosts per /24 and 250 /24s per second
// octet, walking 172.16–172.31 (the private /12), so the first 62,500 UEs
// keep the 172.16.x.y addresses they always had.
func scaleUEAddr(k int) pkt.Addr {
	return pkt.AddrFrom(172, byte(16+k/62500), byte(1+k/250%250), byte(1+k%250))
}

// Validate reports a shape the generator's addressing cannot build: UEs
// beyond the 172.16/12 plan above, sites beyond core.Metro's 10.3–10.227,
// or eNBs per site beyond one octet.
func (c ScaleConfig) Validate() error {
	c = c.withDefaults()
	switch {
	case c.UEs > 16*62500:
		return fmt.Errorf("scale: %d UEs exceed the %d the 172.16/12 address plan holds", c.UEs, 16*62500)
	case c.Sites > 225:
		return fmt.Errorf("scale: %d sites exceed the 225 the 10.3-10.227 address plan holds", c.Sites)
	case c.ENBsPerSite > 254:
		return fmt.Errorf("scale: %d eNBs per site exceed the 254 one address octet holds", c.ENBsPerSite)
	}
	return nil
}

const (
	scaleFramePort = 7101
	scaleRespPort  = 7102
	scaleService   = "metro-ci"
	scalePolicy    = "metro-ar"
	scaleMaxBatch  = 64
	scaleBuckets   = 10
	scaleFrameReq  = 8 * 1024 // uplink frame bytes
	scaleFrameResp = 200      // downlink annotation bytes
)

// scaleFrame is one AR frame in flight: the payload the CI server echoes,
// and the sender's note of when it left and how many UEs were attached then.
// A UE recycles its records: no allocation and no map entry per frame.
type scaleFrame struct {
	sentAt sim.Time
	pop    uint64
}

// scaleSiteOutcome is one generated site's deterministic outcome.
type scaleSiteOutcome struct {
	Bound  int    // capacity units in use at the end of the run
	Served uint64 // frames processed by the site's CI server
}

// scaleRun is the full outcome of one run.
type scaleRun struct {
	attached   uint64 // UEs through the batched attach
	bound      uint64 // UEs with a MEC binding
	rejections uint64 // MRS admission rejections (all sites full)
	retries    uint64 // backoff retries scheduled after a rejection
	framesSent uint64
	framesDone uint64

	sites []scaleSiteOutcome

	// attachMs/frameMs bucket latency samples by the attached population at
	// measurement time (bucket i covers populations up to (i+1)/10 of the
	// configured total) — the raw material of the UEs-vs-latency curve.
	attachMs [scaleBuckets]stats.Sample
	frameMs  [scaleBuckets]stats.Sample
}

// scaleSiteWeights is the deterministic "downtown gradient": site 0 is the
// densest, falling off on a cosine toward the metro edge. Uniform arrivals
// flatten it.
func scaleSiteWeights(cfg ScaleConfig) []float64 {
	w := make([]float64, cfg.Sites)
	for s := range w {
		if cfg.Arrival == "uniform" || cfg.Sites == 1 {
			w[s] = 1
			continue
		}
		w[s] = 0.6 + 0.4*math.Cos(math.Pi*float64(s)/float64(cfg.Sites-1))
	}
	return w
}

// diurnalCDF is the normalized cumulative arrival mass of the diurnal curve
// w(u) = 0.35 + 0.65 sin^2(pi u) over u in [0, 1].
func diurnalCDF(u float64) float64 {
	c := 0.35*u + 0.65*(u/2-math.Sin(2*math.Pi*u)/(4*math.Pi))
	return c / 0.675
}

// invertDiurnal returns the u with diurnalCDF(u) = p, by bisection (the CDF
// is strictly increasing).
func invertDiurnal(p float64) float64 {
	lo, hi := 0.0, 1.0
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		if diurnalCDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// runScale builds the generated metro and executes it. All randomness-free:
// the same cfg and seed produce the same run. cfg must already have its
// defaults applied.
func runScale(seed uint64, cfg ScaleConfig) *scaleRun {
	const radioDelay = 5 * time.Millisecond

	out := &scaleRun{sites: make([]scaleSiteOutcome, cfg.Sites)}

	// The metro on pure delay lines: ENBsPerSite eNBs per generated site on
	// the aggregation router, the centralized default-bearer gateways, and
	// the sites' SGW-U/PGW-U pairs and CI servers.
	siteNames := make([]string, cfg.Sites)
	enbNames := make([]string, 0, cfg.Sites*cfg.ENBsPerSite)
	for s := range siteNames {
		siteNames[s] = fmt.Sprintf("site-%d", s+1)
		for e := 0; e < cfg.ENBsPerSite; e++ {
			enbNames = append(enbNames, fmt.Sprintf("enb-%d-%d", s+1, e+1))
		}
	}
	m := core.NewMetro(core.MetroConfig{
		Seed: seed, CoreDelay: 10 * time.Millisecond, SiteDelay: 2 * time.Millisecond,
		SharedCore: netsim.LinkConfig{Propagation: 500 * time.Microsecond},
		ENBs:       enbNames, Sites: siteNames,
	})
	m.Start(time.Hour)
	eng, nw, ec := m.Eng, m.Net, m.EPC
	ec.PCRF.AddRule(epc.PolicyRule{ServiceID: scalePolicy, QCI: pkt.QCIMEC, Precedence: 10})
	netsim.NewHost(m.SGi) // absorbs whatever a default bearer carries out

	// MRS with capacity-based admission: each site is local to its own
	// eNBs; the UCMEC-style spill and the ErrNoCapacity backoff handle a
	// site filling up.
	mrs := core.NewMRS(ec)
	mrs.RegisterService(core.CIService{Name: scaleService, PolicyID: scalePolicy})
	for s, site := range m.Sites {
		es := site.EdgeSite()
		lo, hi := s*cfg.ENBsPerSite, (s+1)*cfg.ENBsPerSite
		es.ENBs, es.CapacityUnits = enbNames[lo:hi:hi], cfg.SiteCapacity
		mrs.AddSite(scaleService, es)
	}

	// CI servers: a deterministic FIFO single-server queue per site.
	for s, site := range m.Sites {
		st := &out.sites[s]
		ci := site.CI
		var busyUntil sim.Time
		// reply answers a served request packet: bound once per site, the
		// boxed payload passed through — no Event, closure or box per frame.
		reply := func(req any) {
			p := req.(*netsim.Packet)
			src, fr := p.Flow.Src, p.Payload
			ci.Node.Network().Release(p)
			ci.Send(src, scaleFramePort, scaleRespPort, pkt.ProtoUDP, scaleFrameResp, fr)
		}
		ci.Listen(scaleFramePort, netsim.AppFunc(func(_ *netsim.Host, p *netsim.Packet) {
			st.Served++
			now := eng.Now()
			start := now
			if busyUntil > start {
				start = busyUntil
			}
			busyUntil = start.Add(cfg.FrameService)
			eng.ScheduleArg(busyUntil.Sub(now), reply, p)
		}))
	}

	// Population: deterministic weighted placement over the site grid (a
	// golden-ratio sequence against the cumulative weights decorrelates the
	// home site from the arrival index), flash crowd homed on FlashSite.
	weights := scaleSiteWeights(cfg)
	cum := make([]float64, cfg.Sites)
	total := 0.0
	for s, w := range weights {
		total += w
		cum[s] = total
	}
	homeSite := func(k int) int {
		pos := math.Mod(float64(k)*0.6180339887498949, 1) * total
		for s := range cum {
			if pos < cum[s] {
				return s
			}
		}
		return cfg.Sites - 1
	}

	flash := 0
	if cfg.Arrival == "flash" {
		flash = int(float64(cfg.UEs) * cfg.FlashFraction)
	}
	background := cfg.UEs - flash

	ues := make([]*epc.UE, cfg.UEs)
	homeENB := make([]*epc.ENB, cfg.UEs)
	arrivalAt := make([]sim.Time, cfg.UEs)
	ueIndex := make(map[*epc.UE]int, cfg.UEs)
	for k := 0; k < cfg.UEs; k++ {
		imsi := fmt.Sprintf("001017%09d", k+1)
		ueN := nw.AddNode(fmt.Sprintf("ue-%d", k+1), scaleUEAddr(k))
		ue := epc.NewUE(ueN, imsi)
		site := homeSite(k)
		if k >= background {
			site = cfg.FlashSite
		}
		enb := m.ENBs[site*cfg.ENBsPerSite+k%cfg.ENBsPerSite]
		radio := netsim.LinkConfig{Propagation: radioDelay}
		enb.ConnectUE(ue, radio, radio)
		ec.HSS.Provision(epc.Subscriber{IMSI: imsi})
		ues[k] = ue
		homeENB[k] = enb
		ueIndex[ue] = k
	}

	// Arrival schedule: background UEs invert the profile CDF at fixed
	// quantiles across the ramp; the flash crowd lands in a narrow window
	// around 60% of the ramp. The k+1 ns term keeps arrivals distinct.
	arrival := func(k int) time.Duration {
		var pos float64
		if k >= background {
			i := k - background
			pos = 0.60 + 0.05*(float64(i)+0.5)/float64(flash)
		} else {
			p := (float64(k) + 0.5) / float64(background)
			if cfg.Arrival == "uniform" {
				pos = p
			} else {
				pos = invertDiurnal(p)
			}
		}
		t := time.Duration(pos * float64(cfg.Ramp))
		return t.Truncate(time.Microsecond) + time.Duration(k+1)*time.Nanosecond
	}

	bucket := func(pop uint64) int {
		b := int(pop) * scaleBuckets / cfg.UEs
		if b >= scaleBuckets {
			b = scaleBuckets - 1
		}
		return b
	}

	// Frame loop: started once the UE is bound to a CI server. UE k's sends
	// land on whole milliseconds plus its unique k+1 ns phase; with a
	// whole-millisecond period no two UEs ever send at the same instant.
	// Frame records come from one pool for the whole metro.
	var frames sim.Pool[scaleFrame]
	startFrames := func(k int, ue *epc.UE, ciAddr pkt.Addr) {
		ue.Host.Listen(scaleRespPort, netsim.AppFunc(func(h *netsim.Host, p *netsim.Packet) {
			fr := p.Payload.(*scaleFrame)
			rtt := eng.Now().Sub(fr.sentAt)
			out.framesDone++
			out.frameMs[bucket(fr.pop)].Add(float64(rtt) / 1e6)
			frames.Put(fr)
			h.Node.Network().Release(p)
		}))
		now := eng.Now()
		ms := sim.Time(time.Millisecond)
		first := (now/ms+1)*ms + sim.Time(k+1)
		eng.Schedule(first.Sub(now), func() {
			send := func() {
				fr := frames.Take()
				*fr = scaleFrame{sentAt: eng.Now(), pop: out.attached}
				out.framesSent++
				ue.Host.Send(ciAddr, scaleRespPort, scaleFramePort, pkt.ProtoUDP, scaleFrameReq, fr)
			}
			send()
			sim.NewTicker(eng, cfg.FramePeriod, send)
		})
	}

	// MEC connectivity with the device manager's capped backoff
	// (core.RetryDelay): ErrNoCapacity is retriable, anything else terminal.
	var requestCI func(k int, ue *epc.UE, attempt int)
	requestCI = func(k int, ue *epc.UE, attempt int) {
		mrs.RequestConnectivity(scaleService, ue.Addr(), homeENB[k].Name(), func(ci pkt.Addr, err error) {
			if err != nil {
				if errors.Is(err, core.ErrNoCapacity) {
					out.retries++
					eng.Schedule(core.RetryDelay(attempt), func() { requestCI(k, ue, attempt+1) })
				}
				return
			}
			out.bound++
			startFrames(k, ue, ci)
		})
	}

	// Cohort attach: arrivals accumulate between cohort windows; each flush
	// cuts the pending list into batched attach transactions.
	var pending []*epc.UE
	flush := func() {
		for len(pending) > 0 {
			n := min(len(pending), scaleMaxBatch)
			cohort := append([]*epc.UE(nil), pending[:n]...)
			pending = pending[n:]
			ec.AttachBatch(cohort, "core-sgw", "core-pgw", func(u *epc.UE, err error) {
				if err != nil {
					return
				}
				k := ueIndex[u]
				lat := eng.Now().Sub(arrivalAt[k])
				out.attached++
				out.attachMs[bucket(out.attached)].Add(float64(lat) / 1e6)
				requestCI(k, u, 0)
			})
		}
	}
	for k := 0; k < cfg.UEs; k++ {
		eng.Schedule(arrival(k), func() {
			arrivalAt[k] = eng.Now()
			pending = append(pending, ues[k])
		})
	}
	eng.Schedule(cfg.CohortWindow, func() {
		flush()
		sim.NewTicker(eng, cfg.CohortWindow, flush)
	})

	eng.RunFor(cfg.Ramp + cfg.Hold)

	for s, site := range m.Sites {
		out.sites[s].Bound = mrs.SiteLoad(site.Name)
	}
	out.rejections = mrs.Rejections
	return out
}

// assembleScale renders one run as a Result: the UEs-vs-latency curve, the
// per-site placement table, and the admission notes.
func assembleScale(id string, cfg ScaleConfig, seq *scaleRun) *Result {
	curve := stats.NewTable(
		fmt.Sprintf("UEs vs latency: %d UEs, %d sites x %d eNBs, %v ramp (%s arrivals)",
			cfg.UEs, cfg.Sites, cfg.ENBsPerSite, cfg.Ramp, cfg.Arrival),
		"population", "attach-n", "attach-p50-ms", "attach-p99-ms", "frame-n", "frame-p50-ms", "frame-p99-ms")
	for i := 0; i < scaleBuckets; i++ {
		a, f := &seq.attachMs[i], &seq.frameMs[i]
		if a.N() == 0 && f.N() == 0 {
			continue
		}
		row := []any{fmt.Sprintf("<=%d", (i+1)*cfg.UEs/scaleBuckets), a.N()}
		if a.N() > 0 {
			row = append(row, fmt.Sprintf("%.2f", a.Median()), fmt.Sprintf("%.2f", a.Percentile(99)))
		} else {
			row = append(row, "-", "-")
		}
		row = append(row, f.N())
		if f.N() > 0 {
			row = append(row, fmt.Sprintf("%.2f", f.Median()), fmt.Sprintf("%.2f", f.Percentile(99)))
		} else {
			row = append(row, "-", "-")
		}
		curve.AddRow(row...)
	}

	capDesc := "unbounded capacity"
	if cfg.SiteCapacity > 0 {
		capDesc = fmt.Sprintf("capacity %d units/site", cfg.SiteCapacity)
	}
	if cfg.Arrival == "flash" {
		capDesc += fmt.Sprintf(", flash crowd on site-%d", cfg.FlashSite+1)
	}
	sitesTbl := stats.NewTable("Placement: "+capDesc, "site", "bound", "frames-served")
	for s := range seq.sites {
		sitesTbl.AddRow(fmt.Sprintf("site-%d", s+1), seq.sites[s].Bound, seq.sites[s].Served)
	}

	notes := []string{
		fmt.Sprintf("attached %d/%d UEs, %d bound to CI servers; %d frames sent, %d completed",
			seq.attached, cfg.UEs, seq.bound, seq.framesSent, seq.framesDone),
		fmt.Sprintf("admission: %d rejections (every site full at request time), %d backoff retries", seq.rejections, seq.retries),
	}
	return &Result{ID: id, Title: Title(id), Tables: []*stats.Table{curve, sitesTbl}, Notes: notes}
}

// RunScaleScenario runs the metro scenario once with the given shape — the
// acacia-sim -scale entry point. The shape must pass Validate; a caller that
// takes it from outside the program checks that first.
func RunScaleScenario(seed uint64, cfg ScaleConfig) *Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	return assembleScale("scale", cfg, runScale(seed, cfg))
}

// scaleMetro declares the experiment: the generated metro at the preset
// shape, one run from a seed forked from the experiment name, assembled
// into the latency curve.
func scaleMetro() Experiment {
	const id = "scale"
	shape := func(opts Options) ScaleConfig { return DefaultScaleConfig(opts.Full) }
	return Experiment{
		ID: id,
		// The title is rendered into RunScaleScenario's output, which the
		// benchmark's metro-* fingerprints hash: keep it byte-stable.
		Title: "Metro-scale scenario: batched attach, admission and partitioned scale-out",
		Trials: func(opts Options) []Trial {
			return []Trial{{
				Key: "all",
				Run: func(_ uint64) any { return runScale(subSeed(opts.BaseSeed(), id), shape(opts)) },
			}}
		},
		Assemble: func(opts Options, parts []any) *Result {
			return assembleScale(id, shape(opts), parts[0].(*scaleRun))
		},
	}
}
