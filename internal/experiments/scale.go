package experiments

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"strconv"
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
	// A field at or below zero takes the quick shape's value.
	d := DefaultScaleConfig(false)
	c.Sites, c.ENBsPerSite, c.UEs = cmp.Or(max(c.Sites, 0), d.Sites), cmp.Or(max(c.ENBsPerSite, 0), d.ENBsPerSite), cmp.Or(max(c.UEs, 0), d.UEs)
	c.Ramp, c.Hold, c.CohortWindow = cmp.Or(max(c.Ramp, 0), d.Ramp), cmp.Or(max(c.Hold, 0), d.Hold), cmp.Or(max(c.CohortWindow, 0), d.CohortWindow)
	c.FramePeriod, c.FrameService = cmp.Or(max(c.FramePeriod, 0), d.FramePeriod), cmp.Or(max(c.FrameService, 0), d.FrameService)
	c.Arrival = cmp.Or(c.Arrival, d.Arrival)
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

	// The population: slab-carved records, names built at one string each.
	w := &scaleWorld{eng: eng, cfg: cfg, out: out, mrs: mrs}
	var recs sim.Pool[scaleUE]
	byUE := make(map[*epc.UE]*scaleUE, cfg.UEs)
	var name [24]byte
	for k := 0; k < cfg.UEs; k++ {
		// "001017" then k+1 in nine digits: 7e9+k+1 prints as 7 and those.
		imsi := string(strconv.AppendInt(append(name[:0], "00101"...), 7_000_000_000+int64(k+1), 10))
		ueN := nw.AddNode(string(strconv.AppendInt(append(name[:0], "ue-"...), int64(k+1), 10)), scaleUEAddr(k))
		site := homeSite(k)
		if k >= background {
			site = cfg.FlashSite
		}
		u := recs.Take()
		*u = scaleUE{scaleWorld: w, ue: ec.NewUE(ueN, imsi), enb: m.ENBs[site*cfg.ENBsPerSite+k%cfg.ENBsPerSite], k: k}
		radio := netsim.LinkConfig{Propagation: radioDelay}
		u.enb.ConnectUE(u.ue, radio, radio)
		ec.HSS.Provision(epc.Subscriber{IMSI: imsi})
		byUE[u.ue] = u
		eng.ScheduleArg(arrival(k), scaleArrive, u)
	}

	// Cohort attach: arrivals accumulate between cohort windows; each flush
	// cuts the pending list into batched attach transactions.
	attached := func(ue *epc.UE, err error) {
		if err != nil {
			return
		}
		u := byUE[ue]
		out.attached++
		out.attachMs[w.bucket(out.attached)].Add(float64(eng.Now().Sub(u.arrived)) / 1e6)
		scaleRequest(u)
	}
	flush := func() {
		for len(w.pending) > 0 {
			n := min(len(w.pending), scaleMaxBatch)
			cohort := append([]*epc.UE(nil), w.pending[:n]...)
			w.pending = w.pending[n:]
			ec.AttachBatch(cohort, "core-sgw", "core-pgw", attached)
		}
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

// scaleWorld is what every UE's callbacks share.
type scaleWorld struct {
	eng     *sim.Engine
	cfg     ScaleConfig
	out     *scaleRun
	mrs     *core.MRS
	frames  sim.Pool[scaleFrame] // one frame pool for the whole metro
	pending []*epc.UE            // arrived, waiting for the next cohort
}

// bucket is the latency-curve bucket of an attached population.
func (w *scaleWorld) bucket(pop uint64) int {
	return min(int(pop)*scaleBuckets/w.cfg.UEs, scaleBuckets-1)
}

// scaleUE is one UE of the metro: the argument of its arrival, MRS answer,
// retry and frame timer, and the App on its response port, so a UE binds
// no closure.
type scaleUE struct {
	*scaleWorld
	ue      *epc.UE
	enb     *epc.ENB // home cell
	k       int
	attempt int // MEC requests refused for capacity so far
	arrived sim.Time
	ci      pkt.Addr
	ticking bool
	ticker  sim.Ticker
}

func scaleArrive(v any) {
	u := v.(*scaleUE)
	u.arrived = u.eng.Now()
	u.pending = append(u.pending, u.ue)
}

// scaleRequest asks for MEC connectivity. scaleBound retries ErrNoCapacity
// on core.RetryDelay's capped backoff, gives up on other errors, or starts
// the frame loop: UE k sends on whole milliseconds plus its own k+1 ns, so
// with a whole-millisecond period no two UEs ever send at the same instant.
func scaleRequest(v any) {
	u := v.(*scaleUE)
	u.mrs.RequestConnectivityArg(scaleService, u.ue.Addr(), u.enb.Name(), scaleBound, u)
}

func scaleBound(v any, ci pkt.Addr, err error) {
	u := v.(*scaleUE)
	if err != nil {
		if errors.Is(err, core.ErrNoCapacity) {
			u.out.retries++
			u.eng.ScheduleArg(core.RetryDelay(u.attempt), scaleRequest, u)
			u.attempt++
		}
		return
	}
	u.out.bound++
	u.ci = ci
	u.ue.Listen(scaleRespPort, u)
	now, ms := u.eng.Now(), sim.Time(time.Millisecond)
	u.eng.ScheduleArg(((now/ms+1)*ms + sim.Time(u.k+1)).Sub(now), scaleSend, u)
}

// scaleSend sends one frame; the first send starts the UE's frame ticker.
func scaleSend(v any) {
	u := v.(*scaleUE)
	fr := u.frames.Take()
	*fr = scaleFrame{sentAt: u.eng.Now(), pop: u.out.attached}
	u.out.framesSent++
	u.ue.Send(u.ci, scaleRespPort, scaleFramePort, pkt.ProtoUDP, scaleFrameReq, fr)
	if !u.ticking {
		u.ticking = true
		u.ticker.Start(u.eng, u.cfg.FramePeriod, scaleSend, u)
	}
}

// Deliver is the response port's App: a frame's round trip ends.
func (u *scaleUE) Deliver(h *netsim.Host, p *netsim.Packet) {
	fr := p.Payload.(*scaleFrame)
	u.out.framesDone++
	u.out.frameMs[u.bucket(fr.pop)].Add(float64(u.eng.Now().Sub(fr.sentAt)) / 1e6)
	u.frames.Put(fr)
	h.Node.Network().Release(p)
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
	must(cfg.Validate())
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
