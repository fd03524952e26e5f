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

// ARPort is the CI server port the AR back-end listens on; LocPort receives
// localization reports.
const (
	ARPort  = 7000
	LocPort = 7001
)

// arFrameReq is the uplink frame payload.
type arFrameReq struct {
	user    string
	seq     int
	res     compute.Resolution
	truePos geo.Point
}

// ARFrameResult is the downlink result payload (exposed through
// ARFrontend.OnResponse so experiments can observe per-frame outcomes).
type ARFrameResult struct {
	seq      int
	found    bool
	matchMS  float64
	serverMS float64 // decode + SURF (compute component on the server)
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

	// metricNames name the four counts above, built by the first snapshot.
	metricNames *[4]string
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
	host.Engine().Metrics().Register(b)
	host.Listen(ARPort, netsim.AppFunc(b.onFrame))
	host.Listen(LocPort, netsim.AppFunc(b.onLocReport))
	host.Listen(MigratePort, netsim.AppFunc(b.onMigrate))
	return b
}

// AppendMetrics reports Frames, Misses, MigrationsOut and MigrationsIn as
// core/backend/<host>/{frames,misses,migrations-out,migrations-in}: the
// backend is the telemetry.Source NewARBackend registers.
func (b *ARBackend) AppendMetrics(dst []telemetry.Metric) []telemetry.Metric {
	if b.metricNames == nil {
		prefix := "core/backend/" + b.Host.Node.Name() + "/"
		b.metricNames = &[4]string{prefix + "frames", prefix + "misses", prefix + "migrations-out", prefix + "migrations-in"}
	}
	for i, n := range [4]uint64{b.Frames, b.Misses, b.MigrationsOut, b.MigrationsIn} {
		dst = append(dst, telemetry.Metric{Name: b.metricNames[i], Kind: telemetry.KindCounter, Count: n})
	}
	return dst
}

func (b *ARBackend) onLocReport(h *netsim.Host, p *netsim.Packet) {
	rep, ok := p.Payload.(locReport)
	h.Node.Network().Release(p)
	if !ok || b.lm == nil || b.migratedAway[rep.user] {
		return
	}
	b.lm.Report(rep.user, rep.landmark, rep.rxPower)
}

func (b *ARBackend) onFrame(h *netsim.Host, p *netsim.Packet) {
	req, ok := p.Payload.(arFrameReq)
	reply := p.Flow.Reverse()
	h.Node.Network().Release(p)
	if !ok || b.migratedAway[req.user] {
		return
	}
	b.Frames++

	// Stage 1: decode + SURF on the server.
	pixels := req.res.Pixels()
	serverPrep := b.dev.JPEGTime(pixels) + b.dev.SURFTime(pixels)
	prepWork := serverPrep.Seconds() * b.dev.MatchMACsPerSec

	// Stage 2: match against the (pruned) database. Only rxPower reads the
	// strongest landmarks, which cost a sort.
	var subs []int
	if b.lm != nil {
		est, hasEst := b.lm.Estimate(req.user)
		var strongest []string
		if b.scheme == SchemeRxPower {
			strongest = b.lm.StrongestLandmarks(req.user, 2)
		}
		subs = SearchSpace(b.floor, b.scheme, est, hasEst, strongest)
	}
	nCand := CandidateCount(b.floor, subs)
	b.CandidateStats.Add(float64(nCand))
	matchWork := MatchMACs(req.res.Features(), DBObjectFeatures, nCand)

	// Ground truth: the frame shows an object at the user's position.
	found := Covers(b.floor, subs, req.truePos)
	if !found {
		b.Misses++
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
				seq: req.seq, found: found,
				matchMS:  float64(matchElapsed) / float64(time.Millisecond),
				serverMS: float64(prepElapsed) / float64(time.Millisecond),
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

// frameTimeout bounds how long the closed loop waits for a response before
// abandoning the frame and capturing the next (losses during handover or
// congestion must not stall the session); it also bounds a migration
// before the watchdog resumes the loop.
const frameTimeout = 2 * time.Second

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
		ue: ue, eng: ue.Engine(), user: user, res: res, pos: pos,
		phone:   compute.OnePlusOne,
		pending: make(map[int]frameTiming),
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
			timeout: f.eng.Schedule(frameTimeout, func() {
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
			truePos: f.pos,
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
