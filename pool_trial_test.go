package acacia

// Cross-trial pool-isolation tests. The packet and event pools, each a
// sim.Pool carving fresh records from its own slabs, hang off the Network
// and Engine respectively — never off package globals — so concurrent
// trials recycle only their own memory. These tests run real trials
// concurrently through the exec worker pool and fail under the race
// detector, or on any byte-level output divergence, if a pool ever leaks
// across trials.

import (
	"fmt"
	"testing"
	"time"

	"acacia/internal/exec"
	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sim"
)

// canaryTrial runs one seeded trial with heavy pool churn: a two-node
// network exchanging pooled packets, each stamped with the trial's marker
// TEID while owned and verified zeroed on re-acquisition. It returns a
// deterministic summary of the trial's outcome.
func canaryTrial(t *testing.T, seed uint64, marker uint32) string {
	eng := sim.NewEngine(seed)
	nw := netsim.New(eng)
	na := nw.AddNode("a", pkt.AddrFrom(10, 0, 0, 1))
	nb := nw.AddNode("b", pkt.AddrFrom(10, 0, 0, 2))
	ha := netsim.NewHost(na)
	netsim.NewSink(netsim.NewHost(nb), 9000)
	nw.ConnectSymmetric(na, nb, netsim.LinkConfig{BitsPerSecond: 1e8, Propagation: time.Millisecond})

	// Several slabs' worth of fresh packets, all held at once, then all
	// released: the loop below re-acquires them.
	held := make([]*netsim.Packet, 300)
	for i := range held {
		held[i] = nw.NewPacket()
		held[i].TEID = marker
	}
	for _, p := range held {
		nw.Release(p)
	}

	var received uint64
	for i := 0; i < 200; i++ {
		// Mutate-after-release canary: acquire a pooled packet, stamp the
		// trial marker, and release it. If another trial's pool ever handed
		// us its packet (or ours leaked out), the zero-on-release invariant
		// breaks visibly here or the race detector fires.
		p := nw.NewPacket()
		if p.TEID != 0 || p.Size != 0 {
			t.Errorf("trial %d: pooled packet arrived dirty: TEID=%d Size=%d", seed, p.TEID, p.Size)
		}
		p.TEID = marker
		nw.Release(p)

		size := 200 + eng.RNG().Intn(1200)
		ha.Send(pkt.AddrFrom(10, 0, 0, 2), 30000, 9000, pkt.ProtoUDP, size, nil)
		eng.Run()
		received++
	}
	return fmt.Sprintf("seed=%d events=%d now=%v sent=%d", seed, eng.Processed(), eng.Now(), received)
}

// TestPoolNoCrossTrialAliasing runs many canary trials concurrently, each
// with a distinct marker, and checks every trial's output is byte-identical
// to the same trial run alone: engine-owned pools make pooling invisible
// to the sequential-vs-parallel contract.
func TestPoolNoCrossTrialAliasing(t *testing.T) {
	const trials = 8
	solo := make([]string, trials)
	for i := 0; i < trials; i++ {
		solo[i] = canaryTrial(t, uint64(i+1), uint32(0x1000+i))
	}

	tasks := make([]exec.Task[string], trials)
	for i := 0; i < trials; i++ {
		i := i
		tasks[i] = exec.Task[string]{
			Key: fmt.Sprintf("canary-%d", i+1),
			Run: func() (string, error) {
				return canaryTrial(t, uint64(i+1), uint32(0x1000+i)), nil
			},
		}
	}
	outs := exec.RunProgress(trials, tasks, nil)

	for i := 0; i < trials; i++ {
		if outs[i].Err != nil {
			t.Errorf("trial %d failed: %v", i+1, outs[i].Err)
			continue
		}
		if outs[i].Value != solo[i] {
			t.Errorf("trial %d diverged under parallel pooling:\nsolo:     %s\nparallel: %s", i+1, solo[i], outs[i].Value)
		}
	}
}

// TestParallelAttachByteIdentity runs full testbed attach/detach cycles —
// the heaviest user of the packet, event, frame and transaction pools —
// concurrently and sequentially, and requires identical telemetry output.
func TestParallelAttachByteIdentity(t *testing.T) {
	run := func(seed uint64) string {
		tb := NewTestbed(TestbedConfig{Seed: seed})
		ue := tb.UEs[0]
		for i := 0; i < 3; i++ {
			if err := tb.Attach(ue); err != nil {
				t.Errorf("seed %d attach %d: %v", seed, i, err)
				return ""
			}
			done := false
			if err := ue.UE.Detach(func() { done = true }); err != nil {
				t.Errorf("seed %d detach %d: %v", seed, i, err)
				return ""
			}
			tb.Run(time.Second)
			if !done {
				t.Errorf("seed %d: detach %d did not complete", seed, i)
				return ""
			}
		}
		return tb.Eng.Metrics().Snapshot().String()
	}

	const trials = 4
	solo := make([]string, trials)
	for i := 0; i < trials; i++ {
		solo[i] = run(uint64(i + 1))
	}
	tasks := make([]exec.Task[string], trials)
	for i := 0; i < trials; i++ {
		i := i
		tasks[i] = exec.Task[string]{
			Key: fmt.Sprintf("attach-%d", i+1),
			Run: func() (string, error) { return run(uint64(i + 1)), nil },
		}
	}
	outs := exec.RunProgress(trials, tasks, nil)
	for i := 0; i < trials; i++ {
		if solo[i] == "" {
			continue // already failed above
		}
		if outs[i].Err != nil {
			t.Errorf("attach trial seed %d failed: %v", i+1, outs[i].Err)
			continue
		}
		if outs[i].Value != solo[i] {
			t.Errorf("attach trial seed %d not byte-identical under concurrency", i+1)
		}
	}
}
