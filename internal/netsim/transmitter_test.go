package netsim

import (
	"math"
	"testing"
	"time"

	"acacia/internal/pkt"
	"acacia/internal/sim"
)

// linkTrace is what an observer of one link direction sees: every
// delivery and the counters read at the sample instants.
type linkTrace struct {
	deliveries []linkDelivery
	stats      []LinkStats
	backlogs   []int
	processed  uint64
}

type linkDelivery struct {
	id   int
	at   sim.Time
	wait time.Duration
}

// offerLoad drives the A->B direction of a cfg link with seed's offered
// load and traces it. The load runs a moderate phase, an overload that
// drops at the 16 KiB queue, an idle gap and a near-saturated phase;
// counters are read at 300 seeded instants.
func offerLoad(t *testing.T, cfg LinkConfig, seed uint64) linkTrace {
	t.Helper()
	eng, ha, hb, l := twoHosts(t, cfg)
	var tr linkTrace
	hb.Listen(80, AppFunc(func(h *Host, p *Packet) {
		tr.deliveries = append(tr.deliveries, linkDelivery{p.Payload.(int), eng.Now(), p.QueueWait})
		h.Node.Network().Release(p)
	}))
	rng := sim.NewRNG(seed)
	meanTx := time.Duration(float64(782*8) / cfg.BitsPerSecond * float64(time.Second))
	at, id := time.Duration(0), 0
	for _, phase := range []struct {
		n   int
		rho float64
	}{{400, 0.7}, {600, 2}, {0, 0}, {300, 0.9}} {
		if phase.n == 0 {
			at += 200 * time.Millisecond
			continue
		}
		for i := 0; i < phase.n; i++ {
			at += time.Duration(rng.ExpFloat64() * float64(meanTx) / phase.rho)
			size, pid := 64+rng.Intn(1437), id
			eng.Schedule(at, func() { ha.Send(hb.Node.Addr(), 1, 80, pkt.ProtoUDP, size, pid) })
			id++
		}
	}
	for i := 0; i < 300; i++ {
		eng.Schedule(time.Duration(rng.Float64()*float64(at)), func() {
			tr.stats = append(tr.stats, l.StatsAB())
			tr.backlogs = append(tr.backlogs, l.BacklogAB())
		})
	}
	eng.Run()
	tr.stats = append(tr.stats, l.StatsAB())
	tr.processed = eng.Processed()
	return tr
}

// TestLazyTransmitterMatchesEventPath runs one seeded offered load through
// a FIFO direction (the lazily settled transmitter) and through a
// Prioritized one whose packets are all priority 0 (the txDone event
// path, serving the same FIFO order). Every delivery time, order and queue
// wait, every drop and every sampled counter must agree; only the event
// count differs.
func TestLazyTransmitterMatchesEventPath(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := LinkConfig{BitsPerSecond: 8e6, Propagation: 3 * time.Millisecond, QueueBytes: 16 << 10}
		lazy := offerLoad(t, cfg, seed)
		cfg.Prioritized = true
		event := offerLoad(t, cfg, seed)

		final := event.stats[len(event.stats)-1]
		if final.Dropped == 0 || final.Delivered < 1000 {
			t.Fatalf("seed %d: event path delivered %d and dropped %d; the load must overload the queue", seed, final.Delivered, final.Dropped)
		}
		if len(lazy.deliveries) != len(event.deliveries) {
			t.Fatalf("seed %d: lazy path delivered %d packets, event path %d", seed, len(lazy.deliveries), len(event.deliveries))
		}
		for i, want := range event.deliveries {
			if got := lazy.deliveries[i]; got != want {
				t.Fatalf("seed %d: delivery %d is %+v on the lazy path, %+v on the event path", seed, i, got, want)
			}
		}
		for i, want := range event.stats {
			if got := lazy.stats[i]; got != want {
				t.Fatalf("seed %d: sample %d reads %+v on the lazy path, %+v on the event path", seed, i, got, want)
			}
		}
		for i, want := range event.backlogs {
			if got := lazy.backlogs[i]; got != want {
				t.Fatalf("seed %d: sample %d backlog is %d on the lazy path, %d on the event path", seed, i, got, want)
			}
		}
		if lazy.processed >= event.processed {
			t.Errorf("seed %d: lazy path ran %d events, event path %d; want fewer", seed, lazy.processed, event.processed)
		}
	}
}

// TestLinkMD1Wait checks a queued FIFO direction against M/D/1 theory:
// Poisson arrivals of fixed-size packets at load rho wait, on average,
// rho*S/(2(1-rho)) for service time S (Pollaczek–Khinchine). The mean of
// batch means must lie within three standard errors of it, and that bound
// must be tight enough to tell the wait from the wait plus one service
// time.
func TestLinkMD1Wait(t *testing.T) {
	const (
		size     = 1000
		warmup   = 5000
		batches  = 20
		perBatch = 10000
	)
	cfg := LinkConfig{BitsPerSecond: 8e6, QueueBytes: 1 << 30}
	service := time.Duration(float64(size*8) / cfg.BitsPerSecond * float64(time.Second))
	for i, rho := range []float64{0.3, 0.6, 0.9} {
		eng, ha, hb, _ := twoHosts(t, cfg)
		var waits []float64
		hb.Listen(80, AppFunc(func(h *Host, p *Packet) {
			waits = append(waits, p.QueueWait.Seconds())
			h.Node.Network().Release(p)
		}))
		rng := sim.NewRNG(uint64(11 + i))
		gap := float64(service) / rho
		sent := 0
		var offer func()
		offer = func() {
			ha.Send(hb.Node.Addr(), 1, 80, pkt.ProtoUDP, size, nil)
			if sent++; sent < warmup+batches*perBatch {
				eng.Schedule(time.Duration(rng.ExpFloat64()*gap), offer)
			}
		}
		eng.Schedule(0, offer)
		eng.Run()
		if len(waits) != warmup+batches*perBatch {
			t.Fatalf("rho %.1f: %d deliveries, want %d", rho, len(waits), warmup+batches*perBatch)
		}
		var sum, sumSq float64
		for b := 0; b < batches; b++ {
			m := 0.0
			for _, w := range waits[warmup+b*perBatch : warmup+(b+1)*perBatch] {
				m += w
			}
			m /= perBatch
			sum += m
			sumSq += m * m
		}
		mean := sum / batches
		se := math.Sqrt((sumSq/batches - mean*mean) / (batches - 1))
		want := rho * service.Seconds() / (2 * (1 - rho))
		if math.Abs(mean-want) > 3*se {
			t.Errorf("rho %.1f: mean wait %.4g s, M/D/1 predicts %.4g s (3 s.e. = %.2g s)", rho, mean, want, 3*se)
		}
		if 3*se > service.Seconds()/2 {
			t.Errorf("rho %.1f: 3 s.e. = %.2g s cannot resolve one service time (%v)", rho, 3*se, service)
		}
	}
}

// md1kBlocking is the blocking probability of an M/D/1/K queue at load rho
// (K counts the packet in service), from the M/G/1/K embedded chain at
// departures: a_k = e^-rho rho^k / k! arrivals per service time, the
// departure distribution pi over 0..K-1 by the standard recursion, and
// P(block) = 1 - 1/(pi_0 + rho) by PASTA.
func md1kBlocking(rho float64, k int) float64 {
	a := make([]float64, k)
	a[0] = math.Exp(-rho)
	for i := 1; i < k; i++ {
		a[i] = a[i-1] * rho / float64(i)
	}
	pi := make([]float64, k)
	pi[0] = 1
	for j := 0; j+1 < k; j++ {
		v := pi[j] - pi[0]*a[j]
		for i := 1; i <= j; i++ {
			v -= pi[i] * a[j-i+1]
		}
		pi[j+1] = v / a[0]
	}
	sum := 0.0
	for _, v := range pi {
		sum += v
	}
	return 1 - 1/(pi[0]/sum+rho)
}

// TestLinkMD1KBlocking checks drop-tail loss against M/D/1/K blocking:
// Poisson arrivals of fixed-size packets at load rho, on the lazy FIFO
// direction and on its Prioritized twin (the event path). Only waiting
// bytes count against QueueBytes, so the system holds K =
// QueueBytes/size + 1 packets. The mean of batch loss rates must lie
// within three standard errors of the M/G/1/K prediction for K, and that
// bound must be tight enough to tell K from K-1 and K+1.
func TestLinkMD1KBlocking(t *testing.T) {
	const (
		size     = 1000
		warmup   = 5000
		batches  = 20
		perBatch = 10000
	)
	for _, prioritized := range []bool{false, true} {
		cfg := LinkConfig{BitsPerSecond: 8e6, QueueBytes: 3500, Prioritized: prioritized}
		k := cfg.QueueBytes/size + 1
		service := float64(size*8) / cfg.BitsPerSecond * float64(time.Second)
		for i, rho := range []float64{0.7, 1.0, 1.5} {
			eng, ha, hb, l := twoHosts(t, cfg)
			hb.Listen(80, AppFunc(func(h *Host, p *Packet) { h.Node.Network().Release(p) }))
			rng := sim.NewRNG(uint64(21 + i))
			var loss []float64
			var dropped uint64
			sent := 0
			var offer func()
			offer = func() {
				if n := sent - warmup; n >= 0 && n%perBatch == 0 {
					// Drops happen at offer time, so the counter read here
					// closes the batch of the arrivals before this one.
					st := l.StatsAB()
					if n > 0 {
						loss = append(loss, float64(st.Dropped-dropped)/perBatch)
					}
					dropped = st.Dropped
				}
				if sent == warmup+batches*perBatch {
					return
				}
				ha.Send(hb.Node.Addr(), 1, 80, pkt.ProtoUDP, size, nil)
				sent++
				eng.Schedule(time.Duration(rng.ExpFloat64()*service/rho), offer)
			}
			eng.Schedule(0, offer)
			eng.Run()
			if len(loss) != batches {
				t.Fatalf("prioritized %v, rho %.1f: %d batches, want %d", prioritized, rho, len(loss), batches)
			}
			var sum, sumSq float64
			for _, m := range loss {
				sum += m
				sumSq += m * m
			}
			mean := sum / batches
			se := math.Sqrt((sumSq/batches - mean*mean) / (batches - 1))
			want := md1kBlocking(rho, k)
			if math.Abs(mean-want) > 3*se {
				t.Errorf("prioritized %v, rho %.1f: loss %.4f, M/D/1/%d predicts %.4f (3 s.e. = %.4f)", prioritized, rho, mean, k, want, 3*se)
			}
			for _, other := range []int{k - 1, k + 1} {
				if d := math.Abs(md1kBlocking(rho, other) - want); 3*se > d {
					t.Errorf("prioritized %v, rho %.1f: 3 s.e. = %.4f cannot tell K = %d from %d (%.4f apart)", prioritized, rho, 3*se, k, other, d)
				}
			}
		}
	}
}

// TestQueuedChainOneEventPerHop pins the work of a packet train through a
// three-hop chain of finite-rate FIFO links that queue: one source tick
// per packet plus exactly one event per packet per hop (its arrival), no
// serialization events.
func TestQueuedChainOneEventPerHop(t *testing.T) {
	const n = 200
	eng := sim.NewEngine(1)
	nw := New(eng)
	src := nw.AddNode("src", pkt.AddrFrom(10, 0, 0, 1))
	r1 := nw.AddNode("r1", pkt.AddrFrom(10, 0, 1, 1))
	r2 := nw.AddNode("r2", pkt.AddrFrom(10, 0, 2, 1))
	dst := nw.AddNode("dst", pkt.AddrFrom(10, 0, 0, 2))
	hop := func(bps float64) LinkConfig {
		return LinkConfig{BitsPerSecond: bps, Propagation: 100 * time.Microsecond}
	}
	nw.ConnectSymmetric(src, r1, hop(10e6))
	nw.ConnectSymmetric(r1, r2, hop(8e6))
	nw.ConnectSymmetric(r2, dst, hop(10e6))
	NewRouter(r1).AddHostRoute(dst.Addr(), r1.Port(1))
	NewRouter(r2).AddHostRoute(dst.Addr(), r2.Port(1))
	hs, hd := NewHost(src), NewHost(dst)
	got := 0
	hd.Listen(80, AppFunc(func(h *Host, p *Packet) {
		got++
		h.Node.Network().Release(p)
	}))
	// 1,000-byte packets every 500 µs against 800 µs and 1 ms of
	// serialization: both of the first two hops build a queue.
	sent := 0
	var tk *sim.Ticker
	tk = sim.NewTicker(eng, 500*time.Microsecond, func() {
		hs.Send(dst.Addr(), 1, 80, pkt.ProtoUDP, 1000, nil)
		if sent++; sent == n {
			tk.Stop()
		}
	})
	eng.Run()
	if got != n {
		t.Fatalf("delivered %d of %d", got, n)
	}
	if want := uint64(n + 3*n); eng.Processed() != want {
		t.Errorf("%d packets over 3 hops ran %d events, want %d (one tick per packet, one per packet per hop)", n, eng.Processed(), want)
	}
}
