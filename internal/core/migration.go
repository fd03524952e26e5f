package core

import (
	"fmt"

	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/vision"
)

// Application state migration: when the MRS relocates a session to the edge
// site local to the UE's new cell, the AR frontend runs a freeze/copy/resume
// protocol (the EdgeWarp/EDGECAT shape) that ships the user's session
// context plus the feature-DB slice around their last position estimate
// from the old site's backend to the new one, entirely over netsim links:
//
//	UE ──migrateFetch──▶ new backend ──migratePull──▶ old backend
//	UE ◀──migrateDone─── new backend ◀──migrateState── old backend
//
// The frontend pauses its frame loop when the relocation is detected and
// resumes on migrateDone (or a watchdog), so the continuity gap is directly
// measurable against the migrated state size — the transfer's packet Size
// is the computed state size, so bigger slices take proportionally longer
// on the inter-site path.

// MigratePort is the CI server (and UE) port the migration protocol uses.
const MigratePort = 7002

// migrateSessionCtxBytes is the fixed per-session context shipped alongside
// the feature slice: bearer/QoS descriptors, frame-loop state, annotations.
const migrateSessionCtxBytes = 256

// migrateFetch (UE -> new backend) asks the new site to pull the user's
// state from the old CI server; a zero from means there is nothing to move.
type migrateFetch struct {
	user string
	from pkt.Addr
}

// migratePull (new backend -> old backend) asks the old site to freeze the
// user's state and ship it to dest, then notify ue.
type migratePull struct {
	user string
	dest pkt.Addr
	ue   pkt.Addr
}

// migrateChunkBytes is the stop-and-wait segment size of the state
// transfer. States larger than one segment ship as a chunk train, each
// chunk acked before the next is offered, so the transfer never overruns a
// fabric queue and its duration grows linearly with the state size.
const migrateChunkBytes = 32 << 10

// migrateChunk (old backend -> new backend) is one sized segment of the
// state transfer; all state except the final segment travels as chunks.
type migrateChunk struct {
	user string
	seq  int
}

// migrateChunkAck (new backend -> old backend) clocks the chunk train.
type migrateChunkAck struct {
	user string
	seq  int
}

// migrateState (old backend -> new backend) is the transfer's final
// segment: it carries the frozen state and the total size; the packet's
// own Size is whatever the chunk train hasn't covered yet.
type migrateState struct {
	user  string
	ue    pkt.Addr
	track TrackSnapshot
	bytes int
}

// outTransfer is the old backend's bookkeeping for one in-progress
// outbound state transfer.
type outTransfer struct {
	dest  pkt.Addr
	ue    pkt.Addr
	track TrackSnapshot
	total int
	sent  int
	seq   int
}

// migrateDone (new backend -> UE) resumes the frontend's frame loop.
type migrateDone struct {
	user  string
	bytes int
}

// migrateStateBytes sizes the frozen state: the fixed session context, the
// landmark history, and the feature-DB slice the new site needs — the
// objects within the pruning radius of the user's last estimate (the whole
// database when no estimate exists, since nothing bounds the search).
func (b *ARBackend) migrateStateBytes(snap TrackSnapshot) int {
	n := migrateSessionCtxBytes + 24*len(snap.Landmarks)
	ids := SearchSpace(b.floor, SchemeACACIA, snap.Est, snap.HasEst, nil)
	for _, o := range b.db.InSubsections(ids) {
		// Per feature: one descriptor (float32 x DescriptorDim) + keypoint.
		n += o.FeatureCount() * (vision.DescriptorDim*4 + 16)
	}
	return n
}

// onMigrate is the backend's MigratePort handler, covering both roles: the
// new site (fetch in, state in) and the old site (pull in).
func (b *ARBackend) onMigrate(h *netsim.Host, p *netsim.Packet) {
	from, payload := p.Flow.Src, p.Payload
	h.Node.Network().Release(p)
	switch msg := payload.(type) {
	case migrateFetch:
		// This site is the user's new anchor: un-quiesce it here whatever
		// the transfer's outcome.
		delete(b.migratedAway, msg.user)
		ue := from
		if msg.from.IsZero() || msg.from == b.Host.Node.Addr() {
			// Nothing to pull: resume the frontend immediately.
			b.Host.Send(ue, MigratePort, MigratePort, pkt.ProtoTCP, 64, migrateDone{user: msg.user})
			return
		}
		b.Host.Send(msg.from, MigratePort, MigratePort, pkt.ProtoTCP, 128, migratePull{
			user: msg.user, dest: b.Host.Node.Addr(), ue: ue,
		})
	case migratePull:
		// Freeze: export the user's track (removing it here) and start the
		// acked chunk train sized as the real state transfer.
		var snap TrackSnapshot
		if b.lm != nil {
			snap, _ = b.lm.Export(msg.user)
		}
		size := b.migrateStateBytes(snap)
		b.migratedAway[msg.user] = true
		b.MigrationsOut++
		b.eng.Metrics().Scope("core/migrate").Emit("freeze",
			fmt.Sprintf("%s %s -> %v (%d bytes)", msg.user, b.Host.Node.Name(), msg.dest, size))
		b.migratingOut[msg.user] = &outTransfer{
			dest: msg.dest, ue: msg.ue, track: snap, total: size,
		}
		b.sendNextChunk(msg.user)
	case migrateChunk:
		b.Host.Send(from, MigratePort, MigratePort, pkt.ProtoTCP, 64, migrateChunkAck{
			user: msg.user, seq: msg.seq,
		})
	case migrateChunkAck:
		tr := b.migratingOut[msg.user]
		if tr == nil || msg.seq != tr.seq-1 {
			return
		}
		b.sendNextChunk(msg.user)
	case migrateState:
		// Resume: install the track so pruning works on the first frame,
		// and un-quiesce the user in case it is migrating back here.
		delete(b.migratedAway, msg.user)
		if b.lm != nil {
			b.lm.Import(msg.user, msg.track)
		}
		b.MigrationsIn++
		b.eng.Metrics().Scope("core/migrate").Emit("resume",
			fmt.Sprintf("%s at %s (%d bytes)", msg.user, b.Host.Node.Name(), msg.bytes))
		b.Host.Send(msg.ue, MigratePort, MigratePort, pkt.ProtoTCP, 64, migrateDone{
			user: msg.user, bytes: msg.bytes,
		})
	}
}

// sendNextChunk offers the next stop-and-wait segment of user's outbound
// transfer: a full chunk while more than one remains, then the final
// migrateState carrying the snapshot and whatever size is left.
func (b *ARBackend) sendNextChunk(user string) {
	tr := b.migratingOut[user]
	if tr == nil {
		return
	}
	if rem := tr.total - tr.sent; rem > migrateChunkBytes {
		b.Host.Send(tr.dest, MigratePort, MigratePort, pkt.ProtoTCP, migrateChunkBytes,
			migrateChunk{user: user, seq: tr.seq})
		tr.sent += migrateChunkBytes
		tr.seq++
		return
	}
	b.Host.Send(tr.dest, MigratePort, MigratePort, pkt.ProtoTCP, tr.total-tr.sent, migrateState{
		user: user, ue: tr.ue, track: tr.track, bytes: tr.total,
	})
	delete(b.migratingOut, user)
}

// relocateTo pauses the frame loop and starts the pull-based migration
// toward the new server. A watchdog bounds the pause: if the migration
// stalls (lossy inter-site path, dead old site), the session resumes cold
// rather than hanging.
func (f *ARFrontend) relocateTo(old, server pkt.Addr) {
	if f.migrating {
		return
	}
	f.migrating = true
	f.migrateStart = f.eng.Now()
	// The in-flight frame (closed loop: at most one pending) was addressed
	// to the old site, whose dedicated bearer is already torn down: count
	// it lost now instead of letting its 2 s timeout linger into the
	// resumed loop and double-start the chain.
	if tm, ok := f.pending[f.seq]; ok {
		tm.timeout.Cancel()
		delete(f.pending, f.seq)
		f.Timeouts++
	}
	f.ue.Send(server, uint16(MigratePort), MigratePort, pkt.ProtoTCP, 64, migrateFetch{
		user: f.user, from: old,
	})
	f.migrateWatch = f.eng.Schedule(frameTimeout, func() {
		if !f.migrating {
			return
		}
		f.migrating = false
		f.MigrationTimeouts++
		f.resumeFrames()
	})
}

// resumeFrames restarts the closed loop after migration, unless a pending
// frame is still in flight — then its own response/timeout continues the
// loop, keeping exactly one chain alive.
func (f *ARFrontend) resumeFrames() {
	if f.running && len(f.pending) == 0 {
		f.captureAndSend()
	}
}

// onMigrateDone resumes the frame loop after a completed migration and
// observes the continuity gap (time since the last frame response) against
// the migrated state size.
func (f *ARFrontend) onMigrateDone(h *netsim.Host, p *netsim.Packet) {
	msg, ok := p.Payload.(migrateDone)
	h.Node.Network().Release(p)
	if !ok || msg.user != f.user || !f.migrating {
		return
	}
	f.migrating = false
	f.migrateWatch.Cancel()
	f.Migrations++
	f.MigratedBytes += uint64(msg.bytes)
	f.MigrateTransferMS = f.eng.Now().Sub(f.migrateStart).Seconds() * 1000
	gapMS := f.eng.Now().Sub(f.lastRespAt).Seconds() * 1000
	f.migrateGapHist.Observe(gapMS)
	f.migrateSizeHist.Observe(float64(msg.bytes) / 1024)
	f.eng.Metrics().Scope("core/migrate").Emit("done",
		fmt.Sprintf("%s gap %.1fms state %d bytes", f.user, gapMS, msg.bytes))
	if f.running {
		f.captureAndSend()
	}
}
