package core

import (
	"time"

	"acacia/internal/compute"
	"acacia/internal/geo"
	"acacia/internal/media"
	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sim"
	"acacia/internal/stats"
	"acacia/internal/telemetry"
	"acacia/internal/vision"
)

// Scheme selects the AR back-end's search-space strategy (§7.3).
type Scheme uint8

// Search-space schemes. SchemeACACIA is the zero value: an unset scheme
// means the full system.
const (
	// SchemeACACIA prunes to the subsections around the trilaterated user
	// position.
	SchemeACACIA Scheme = iota
	// SchemeRxPower prunes to the sections of the two strongest-rxPower
	// landmarks.
	SchemeRxPower
	// SchemeNaive searches the entire database (the CLOUD and MEC
	// baselines).
	SchemeNaive
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeNaive:
		return "Naive"
	case SchemeRxPower:
		return "rxPower"
	case SchemeACACIA:
		return "ACACIA"
	default:
		return "Scheme?"
	}
}

// ARPort is the CI server port the AR back-end listens on; LocPort receives
// localization reports.
const (
	ARPort  = 7000
	LocPort = 7001
)

// DBObjectFeatures is the stored feature count per database object,
// calibrated so a Naive search over the 105-object database at 720x480 on
// the eight-core i7 lands near the paper's ≈0.6 s (Fig. 11(a)).
const DBObjectFeatures = 200

// PruneRadius is the ACACIA search radius in meters around the estimated
// position: 2.5x the ≈3 m localization error, which covers the user's true
// subsection while keeping the search at the paper's 2-6 of 21 cells.
const PruneRadius = 7.5

// arFrameReq is the uplink frame payload.
type arFrameReq struct {
	user       string
	seq        int
	res        compute.Resolution
	truePos    geo.Point
	sentAt     sim.Time
	compressMS float64
}

// ARFrameResult is the downlink result payload (exposed through
// ARFrontend.OnResponse so experiments can observe per-frame outcomes).
type ARFrameResult struct {
	seq        int
	found      bool
	object     string
	matchMS    float64
	serverMS   float64 // decode + SURF (compute component on the server)
	candidates int
}

type locReport struct {
	user     string
	landmark string
	rxPower  float64
}

// ARBackend is the CI-server application: it decodes frames, extracts
// features, searches the geo-tagged database under its scheme, and replies
// with the match result. Processing runs on a processor-sharing compute
// server so concurrent clients slow each other down as in Fig. 12.
type ARBackend struct {
	Host   *netsim.Host
	eng    *sim.Engine
	dev    compute.Device
	srv    *compute.Server
	scheme Scheme
	floor  *geo.Floor
	db     *vision.DB
	lm     *LocalizationManager

	// Frames and Misses count served frames and no-match responses.
	Frames, Misses uint64
	// MigrationsOut counts sessions frozen and shipped away from this site;
	// MigrationsIn counts sessions resumed here (see migration.go).
	MigrationsOut, MigrationsIn uint64
	// CandidateStats samples the per-frame candidate-object counts.
	CandidateStats stats.Sample

	// migratingOut tracks in-progress outbound state transfers by user.
	migratingOut map[string]*outTransfer
	// migratedAway quiesces users whose state was frozen and shipped off
	// this site: frames and landmark reports still in flight toward the old
	// CI server are dropped instead of answered, because the reply path —
	// the user's dedicated bearer here — is already torn down. A user
	// migrating back is removed on the inbound state transfer.
	migratedAway map[string]bool

	// Registry mirrors under core/backend/<host>/.
	framesCtr, missesCtr              *telemetry.Counter
	migrationsOutCtr, migrationsInCtr *telemetry.Counter
}

// NewARBackend attaches an AR back-end to host, computing on dev under the
// given scheme. The localization manager may be nil for SchemeNaive.
func NewARBackend(host *netsim.Host, dev compute.Device, scheme Scheme, floor *geo.Floor, db *vision.DB, lm *LocalizationManager) *ARBackend {
	b := &ARBackend{
		Host: host, eng: host.Engine(), dev: dev,
		srv:    compute.NewServer(host.Engine(), dev),
		scheme: scheme, floor: floor, db: db, lm: lm,
		migratingOut: make(map[string]*outTransfer),
		migratedAway: make(map[string]bool),
	}
	scope := host.Engine().Metrics().Scope("core/backend").Scope(host.Node.Name())
	b.framesCtr = scope.Counter("frames")
	b.missesCtr = scope.Counter("misses")
	b.migrationsOutCtr = scope.Counter("migrations-out")
	b.migrationsInCtr = scope.Counter("migrations-in")
	host.Listen(ARPort, netsim.AppFunc(b.onFrame))
	host.Listen(LocPort, netsim.AppFunc(b.onLocReport))
	host.Listen(MigratePort, netsim.AppFunc(b.onMigrate))
	return b
}

// Scheme reports the backend's search scheme.
func (b *ARBackend) Scheme() Scheme { return b.scheme }

func (b *ARBackend) onLocReport(h *netsim.Host, p *netsim.Packet) {
	rep, ok := p.Payload.(locReport)
	h.Node.Network().Release(p)
	if !ok || b.lm == nil || b.migratedAway[rep.user] {
		return
	}
	b.lm.Report(rep.user, rep.landmark, rep.rxPower)
}

// candidateSubsections resolves the scheme's search space for a user.
// A nil slice means the whole database.
func (b *ARBackend) candidateSubsections(user string) []int {
	switch b.scheme {
	case SchemeACACIA:
		if b.lm != nil {
			if est, ok := b.lm.Estimate(user); ok {
				return b.floor.SubsectionsNear(est, PruneRadius)
			}
		}
		return nil // no estimate yet: fall back to full search
	case SchemeRxPower:
		if b.lm != nil {
			names := b.lm.StrongestLandmarks(user, 2)
			var sections []string
			for _, n := range names {
				if l := b.floor.Landmark(n); l != nil {
					sections = append(sections, l.Section)
				}
			}
			if len(sections) > 0 {
				return b.floor.SubsectionsOfSections(sections...)
			}
		}
		return nil
	default:
		return nil
	}
}

func (b *ARBackend) onFrame(h *netsim.Host, p *netsim.Packet) {
	req, ok := p.Payload.(arFrameReq)
	reply := p.Flow.Reverse()
	h.Node.Network().Release(p)
	if !ok || b.migratedAway[req.user] {
		return
	}
	b.Frames++
	b.framesCtr.Inc()

	// Stage 1: decode + SURF on the server.
	pixels := req.res.Pixels()
	serverPrep := b.dev.JPEGTime(pixels) + b.dev.SURFTime(pixels)
	prepWork := serverPrep.Seconds() * b.dev.MatchMACsPerSec

	// Stage 2: match against the (pruned) database.
	subs := b.candidateSubsections(req.user)
	cands := b.db.InSubsections(subs)
	nCand := len(cands)
	b.CandidateStats.Add(float64(nCand))
	qFeatures := req.res.Features()
	// Forward + symmetric reverse k-NN scans over every candidate object.
	matchWork := qFeatures * DBObjectFeatures * vision.DescriptorDim * 2 * float64(nCand)

	// Ground truth: the frame shows an object in the user's subsection; a
	// search finds it iff that subsection is in the candidate set.
	found := false
	object := ""
	if ss := b.floor.SubsectionAt(req.truePos); ss != nil {
		if subs == nil {
			found = true
		} else {
			for _, id := range subs {
				if id == ss.ID {
					found = true
					break
				}
			}
		}
		if found {
			if objs := b.db.InSubsections([]int{ss.ID}); len(objs) > 0 {
				object = objs[0].Name
			}
		}
	}
	if !found {
		b.Misses++
		b.missesCtr.Inc()
	}

	b.srv.Submit(&compute.Job{Work: prepWork, Done: func(prepElapsed time.Duration) {
		b.srv.Submit(&compute.Job{Work: matchWork, Done: func(matchElapsed time.Duration) {
			// The user may have migrated away while the frame was in
			// compute; its bearer here is gone, so the reply has no path.
			if b.migratedAway[req.user] {
				return
			}
			rp := b.Host.Node.NewPacket()
			rp.Flow, rp.Size = reply, 300
			rp.Payload = ARFrameResult{
				seq: req.seq, found: found, object: object,
				matchMS:    float64(matchElapsed) / float64(time.Millisecond),
				serverMS:   float64(prepElapsed) / float64(time.Millisecond),
				candidates: nCand,
			}
			b.Host.Node.Inject(rp)
		}})
	}})
}

// FrameStats aggregates the per-frame component latencies an AR session
// observed, all in milliseconds (Fig. 13's decomposition).
type FrameStats struct {
	Match   stats.Sample // server-side match time
	Compute stats.Sample // phone compress + server decode/SURF
	Network stats.Sample // transport (upload + downlink response)
	Total   stats.Sample // end-to-end per frame
}

// ARFrontend is the on-UE application: it paces frames at the camera rate,
// compresses them (JPEG 90 grayscale), uploads them to the CI server, and
// decomposes per-frame latency. It also implements CIApp so a device
// manager can drive it: discovery messages produce localization reports,
// and frame upload starts on connectivity.
type ARFrontend struct {
	ue     *netsim.Host
	eng    *sim.Engine
	user   string
	res    compute.Resolution
	phone  compute.Device
	server pkt.Addr
	pos    geo.Point

	seq     int
	pending map[int]frameTiming
	running bool

	// Migration state (see migration.go): the frame loop pauses between
	// relocation detection and migrateDone.
	migrating    bool
	migrateStart sim.Time
	migrateWatch sim.Timer
	lastRespAt   sim.Time

	// FrameTimeout bounds how long the closed loop waits for a response
	// before abandoning the frame and capturing the next (losses during
	// handover or congestion must not stall the session). Default 2 s.
	FrameTimeout time.Duration

	// Stats collects component latencies.
	Stats FrameStats
	// Responses counts results; Found counts successful matches; Timeouts
	// counts frames abandoned without a response.
	Responses, Found, Timeouts uint64
	// Migrations counts completed state migrations; MigratedBytes sums the
	// shipped state; MigrationTimeouts counts watchdog-resumed sessions.
	Migrations, MigratedBytes, MigrationTimeouts uint64
	// MigrateTransferMS is the last completed migration's duration, from
	// the fetch request to the done notification (pure protocol + transfer
	// time, free of frame-cadence phase).
	MigrateTransferMS float64
	// OnResponse, when set, observes every result.
	OnResponse func(ARFrameResult)

	// Per-stage latency histograms, shared across all frontends of the
	// engine under core/session/stage/ (the Fig. 13 decomposition as
	// always-on telemetry), plus the migration continuity-gap/state-size
	// pair under core/session/migrate/.
	matchHist, computeHist, networkHist, totalHist *telemetry.Histogram
	migrateGapHist, migrateSizeHist                *telemetry.Histogram
}

type frameTiming struct {
	sentAt     sim.Time
	compressMS float64
	timeout    sim.Timer
}

// NewARFrontend creates a front-end for the UE host. pos is the user's
// (ground-truth) position, used to label frames with the photographed
// object's location.
func NewARFrontend(ue *netsim.Host, user string, res compute.Resolution, pos geo.Point) *ARFrontend {
	f := &ARFrontend{
		ue: ue, eng: ue.Engine(), user: user, res: res,
		phone:        compute.OnePlusOne,
		pending:      make(map[int]frameTiming),
		FrameTimeout: 2 * time.Second,
	}
	stage := ue.Engine().Metrics().Scope("core/session/stage")
	f.matchHist = stage.Histogram("match-ms")
	f.computeHist = stage.Histogram("compute-ms")
	f.networkHist = stage.Histogram("network-ms")
	f.totalHist = stage.Histogram("total-ms")
	migrate := ue.Engine().Metrics().Scope("core/session/migrate")
	f.migrateGapHist = migrate.Histogram("gap-ms")
	f.migrateSizeHist = migrate.Histogram("state-kb")
	ue.Listen(ARPort, netsim.AppFunc(f.onResponse))
	ue.Listen(MigratePort, netsim.AppFunc(f.onMigrateDone))
	return f
}

// SetPos moves the user (the frames' ground-truth location follows).
func (f *ARFrontend) SetPos(p geo.Point) { f.pos = p }

// Pos reports the user's current position.
func (f *ARFrontend) Pos() geo.Point { return f.pos }

// Server reports the CI server currently in use.
func (f *ARFrontend) Server() pkt.Addr { return f.server }

// Start begins the closed-loop frame pipeline toward server: each frame is
// captured at the camera rate, compressed, uploaded; the next frame starts
// after the response (or the next camera slot, whichever is later). A
// running session re-Started with a different server (the MRS relocated its
// binding) migrates its backend state before resuming (migration.go).
func (f *ARFrontend) Start(server pkt.Addr) {
	old := f.server
	f.server = server
	if f.running {
		if server != old && !old.IsZero() {
			f.relocateTo(old, server)
		}
		return
	}
	f.running = true
	f.lastRespAt = f.eng.Now()
	f.captureAndSend()
}

// Stop halts the pipeline after the current frame.
func (f *ARFrontend) Stop() { f.running = false }

func (f *ARFrontend) captureAndSend() {
	if !f.running || f.migrating {
		return
	}
	// Camera delivers the frame, then the phone compresses it.
	compress := f.phone.JPEGTime(f.res.Pixels())
	f.eng.Schedule(compress, func() {
		if !f.running || f.migrating {
			return
		}
		f.seq++
		seq := f.seq
		f.pending[seq] = frameTiming{
			sentAt:     f.eng.Now(),
			compressMS: float64(compress) / float64(time.Millisecond),
			timeout: f.eng.Schedule(f.FrameTimeout, func() {
				if _, still := f.pending[seq]; !still {
					return
				}
				delete(f.pending, seq)
				f.Timeouts++
				f.captureAndSend()
			}),
		}
		f.ue.Send(f.server, uint16(ARPort), ARPort, pkt.ProtoTCP, media.AppFrameBytes(f.res), arFrameReq{
			user: f.user, seq: seq, res: f.res,
			truePos: f.pos, sentAt: f.eng.Now(),
			compressMS: float64(compress) / float64(time.Millisecond),
		})
	})
}

func (f *ARFrontend) onResponse(h *netsim.Host, p *netsim.Packet) {
	resp, ok := p.Payload.(ARFrameResult)
	h.Node.Network().Release(p)
	if !ok {
		return
	}
	timing, pending := f.pending[resp.seq]
	if !pending {
		return
	}
	timing.timeout.Cancel()
	delete(f.pending, resp.seq)
	f.Responses++
	f.lastRespAt = f.eng.Now()
	if resp.found {
		f.Found++
	}

	rtMS := f.eng.Now().Sub(timing.sentAt).Seconds() * 1000
	networkMS := rtMS - resp.matchMS - resp.serverMS
	if networkMS < 0 {
		networkMS = 0
	}
	computeMS := timing.compressMS + resp.serverMS
	f.Stats.Match.Add(resp.matchMS)
	f.Stats.Compute.Add(computeMS)
	f.Stats.Network.Add(networkMS)
	f.Stats.Total.Add(timing.compressMS + rtMS)
	f.matchHist.Observe(resp.matchMS)
	f.computeHist.Observe(computeMS)
	f.networkHist.Observe(networkMS)
	f.totalHist.Observe(timing.compressMS + rtMS)
	if f.OnResponse != nil {
		f.OnResponse(resp)
	}
	// Closed loop: next frame.
	f.captureAndSend()
}

// --- CIApp wiring ---

// OnDiscovery forwards the matched landmark's measurement to the CI
// server's localization manager (through the network, on whatever bearer
// currently carries CI traffic).
func (f *ARFrontend) OnDiscovery(d Discovery) {
	if f.server.IsZero() {
		return
	}
	f.ue.Send(f.server, uint16(LocPort), LocPort, pkt.ProtoUDP, 64, locReport{
		user: f.user, landmark: d.Message.From, rxPower: d.Message.RxPowerDBm,
	})
}

// OnConnected starts the AR session toward the assigned CI server.
func (f *ARFrontend) OnConnected(server pkt.Addr) { f.Start(server) }

// OnDisconnected halts the session.
func (f *ARFrontend) OnDisconnected(error) { f.Stop() }
