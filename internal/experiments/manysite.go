package experiments

import (
	"fmt"
	"time"

	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sim"
	"acacia/internal/stats"
)

// portsByDst routes a multi-homed host's egress by destination address.
type portsByDst map[pkt.Addr]*netsim.Port

// ClassifyEgress implements netsim.Classifier.
func (m portsByDst) ClassifyEgress(p *netsim.Packet) *netsim.Port { return m[p.Flow.Dst] }

func init() { register(manySite()) }

// The many-site experiment is a hub-and-spoke workload: K edge sites, each
// with its own server and S user devices, exchange site-local
// request/response traffic plus periodic reports with a central hub. It
// prints per-site statistics and a state checksum per site.
//
// The scenario is built so zero timestamp ties exist across event owners:
// every timer period and link delay is a whole number of microseconds,
// every timer owner starts at a unique sub-microsecond offset, and links
// are pure delay lines (no serialization, no queueing, no jitter — and no
// RNG draws anywhere). Every event time is therefore congruent to its
// owner's offset modulo 1 µs, so no two owners ever schedule at the same
// instant.

// manyReq is the request/response payload: which UE sent it and its
// sequence number.
type manyReq struct{ ue, seq int }

// manyRep is a site server's periodic report to the hub.
type manyRep struct{}

// manySiteStats is one site's deterministic outcome.
type manySiteStats struct {
	served    uint64 // requests processed by the site server
	responses uint64 // responses received back by the site's UEs
	reports   uint64 // reports sent to the hub
	acks      uint64 // hub acks received
	checksum  uint64 // FNV over (ue, seq) in service order
	rttSumNs  int64  // total request round-trip virtual time
}

// manySiteRun is the full outcome of one run.
type manySiteRun struct {
	sites   []manySiteStats
	hubSeen uint64
}

func fnv1a(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// runManySite executes the scenario with the given shape.
func runManySite(seed uint64, sites, uesPerSite, vecLen int, dur time.Duration) manySiteRun {
	eng := sim.NewEngine(seed)
	nw := netsim.New(eng)

	// Unique per-owner sub-microsecond start offsets: the no-ties scheme
	// needs every timer owner below 1000 (one full microsecond of distinct
	// nanosecond phases).
	own := 1
	nextOff := func() time.Duration {
		o := own
		own++
		if own >= 1000 {
			panic("experiments: many-site exceeds 999 timer owners")
		}
		return time.Duration(o) * time.Nanosecond
	}

	hubN := nw.AddNode("hub", pkt.AddrFrom(10, 0, 0, 1))
	hub := netsim.NewHost(hubN)
	hubPorts := portsByDst{}
	hub.Egress = hubPorts

	out := manySiteRun{sites: make([]manySiteStats, sites)}
	hub.Listen(7003, netsim.AppFunc(func(h *netsim.Host, p *netsim.Packet) {
		rep := p.Payload.(manyRep)
		out.hubSeen++
		h.Send(p.Flow.Src, 7003, 7004, pkt.ProtoUDP, 200, rep)
		h.Node.Network().Release(p)
	}))

	for i := 0; i < sites; i++ {
		name := fmt.Sprintf("site-%d", i+1)
		srvN := nw.AddNode(name+"-srv", pkt.AddrFrom(10, byte(10+i), 0, 1))
		hubLink := nw.ConnectSymmetric(hubN, srvN, netsim.LinkConfig{Propagation: 5 * time.Millisecond})
		hubPorts[srvN.Addr()] = hubLink.A
		srv := netsim.NewHost(srvN)
		srvPorts := portsByDst{hubN.Addr(): hubLink.B}
		srv.Egress = srvPorts

		st := &out.sites[i]
		// Seed the checksum with the site index so identical per-site
		// workloads still yield distinct fingerprints — a request routed to
		// the wrong site's server changes two checksums, not zero.
		st.checksum = fnv1a(14695981039346656037, uint64(i+1))
		// Per-UE feature vectors are the site's working set: every request
		// sweeps its owner's vector.
		vecs := make([][]float64, uesPerSite)
		for j := range vecs {
			vecs[j] = make([]float64, vecLen)
		}
		srv.Listen(7001, netsim.AppFunc(func(h *netsim.Host, p *netsim.Packet) {
			req := p.Payload.(manyReq)
			w := vecs[req.ue]
			x := float64(req.seq % 97)
			for k := 0; k < len(w); k += 8 {
				w[k] = w[k]*0.5 + x
			}
			st.checksum = fnv1a(st.checksum, uint64(req.ue)<<32|uint64(uint32(req.seq)))
			st.served++
			h.Send(p.Flow.Src, 7001, 7002, pkt.ProtoUDP, 1000, req)
			h.Node.Network().Release(p)
		}))
		srv.Listen(7004, netsim.AppFunc(func(h *netsim.Host, p *netsim.Packet) {
			st.acks++
			h.Node.Network().Release(p)
		}))

		// The server's periodic hub report.
		hubAddr := hubN.Addr()
		eng.Schedule(nextOff(), func() {
			report := func() {
				st.reports++
				srv.Send(hubAddr, 7004, 7003, pkt.ProtoUDP, 200, manyRep{})
			}
			report()
			sim.NewTicker(eng, 25*time.Millisecond, report)
		})

		for j := 0; j < uesPerSite; j++ {
			ueN := nw.AddNode(fmt.Sprintf("%s-ue-%d", name, j+1), pkt.AddrFrom(10, byte(10+i), 1, byte(1+j)))
			ueLink := nw.ConnectSymmetric(srvN, ueN, netsim.LinkConfig{Propagation: 200 * time.Microsecond})
			srvPorts[ueN.Addr()] = ueLink.A
			ue := netsim.NewHost(ueN)
			sentAt := map[int]sim.Time{}
			ue.Listen(7002, netsim.AppFunc(func(h *netsim.Host, p *netsim.Packet) {
				req := p.Payload.(manyReq)
				if t0, ok := sentAt[req.seq]; ok {
					delete(sentAt, req.seq)
					st.responses++
					st.rttSumNs += int64(eng.Now().Sub(t0))
				}
				h.Node.Network().Release(p)
			}))
			srvAddr := srvN.Addr()
			eng.Schedule(nextOff(), func() {
				seq := 0
				request := func() {
					seq++
					sentAt[seq] = eng.Now()
					ue.Send(srvAddr, 7002, 7001, pkt.ProtoUDP, 1000, manyReq{ue: j, seq: seq})
				}
				request()
				sim.NewTicker(eng, 20*time.Millisecond, request)
			})
		}
	}

	eng.RunFor(dur)
	return out
}

// manySite declares the experiment: one run from a seed forked from the
// base seed by the experiment name, assembled into per-site statistics.
func manySite() Experiment {
	const id = "many-site"
	shape := func(opts Options) (sites, ues, vecLen int, dur time.Duration) {
		if opts.Full {
			return 12, 6, 8192, 6 * time.Second
		}
		return 4, 3, 2048, 2 * time.Second
	}
	return Experiment{
		ID:    id,
		Title: "Many-site hub-and-spoke workload",
		Trials: func(opts Options) []Trial {
			sites, ues, vecLen, dur := shape(opts)
			return []Trial{{
				Key: "all",
				Run: func(_ uint64) any { return runManySite(subSeed(opts.BaseSeed(), id), sites, ues, vecLen, dur) },
			}}
		},
		Assemble: func(opts Options, parts []any) *Result {
			sites, ues, _, dur := shape(opts)
			run := parts[0].(manySiteRun)
			tbl := stats.NewTable(
				fmt.Sprintf("Per-site outcome: %d sites x %d UEs, %v", sites, ues, dur),
				"site", "served", "responses", "reports", "acks", "mean-rtt-us", "checksum")
			var served uint64
			for i, s := range run.sites {
				rtt := 0.0
				if s.responses > 0 {
					rtt = float64(s.rttSumNs) / float64(s.responses) / 1e3
				}
				tbl.AddRow(fmt.Sprintf("site-%d", i+1), s.served, s.responses, s.reports, s.acks,
					fmt.Sprintf("%.1f", rtt), fmt.Sprintf("%016x", s.checksum))
				served += s.served
			}
			return &Result{
				ID: id, Title: Title(id),
				Tables: []*stats.Table{tbl},
				Notes: []string{
					fmt.Sprintf("total served %d, hub reports %d", served, run.hubSeen),
				},
			}
		},
	}
}
