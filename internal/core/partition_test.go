package core

import (
	"testing"
	"time"

	"acacia/internal/sim"
)

// TestIntraParallelMatchesSequential is the byte-identity contract for the
// partitioned testbed (DESIGN.md §3g): the retail scenario must produce the
// same frame counts, latency statistics, accounting totals and merged
// telemetry whether the edge-1 site shares the core's event queue
// (IntraParallel = 0) or runs on its own partition advanced in conservative
// windows. Any positive value selects that one partitioned mode; 1 and 2
// are both run because the benchmark's cluster.* probe sets 0/1/2 and
// requires equal fingerprints.
func TestIntraParallelMatchesSequential(t *testing.T) {
	type result struct {
		responses uint64
		total     float64
		match     float64
		acct      uint64
		metrics   string
		events    int
	}
	run := func(ip int) result {
		tb := newRetailTestbed(t, TestbedConfig{Seed: 31415, IntraParallel: ip})
		if (tb.EdgeSGW.Node().Engine() != tb.Eng) != (ip > 0) {
			t.Fatalf("IntraParallel=%d: edge-1 partition presence wrong", ip)
		}
		b := startRetail(t, tb, "electronics", electronicsSpot)
		tb.Run(15 * time.Second)
		snap := tb.MetricsSnapshot()
		return result{
			responses: b.Frontend.Responses,
			total:     b.Frontend.Stats.Total.Mean(),
			match:     b.Frontend.Stats.Match.Mean(),
			acct:      tb.EPC.Acct.TotalBytes(),
			metrics:   snap.String(),
			events:    len(snap.Events),
		}
	}
	seq := run(0)
	if seq.responses == 0 {
		t.Fatal("sequential run produced no AR responses")
	}
	for _, ip := range []int{1, 2} {
		got := run(ip)
		if got.responses != seq.responses || got.total != seq.total ||
			got.match != seq.match || got.acct != seq.acct {
			t.Errorf("IntraParallel=%d diverged: responses %d vs %d, total %v vs %v, match %v vs %v, acct %d vs %d",
				ip, got.responses, seq.responses, got.total, seq.total,
				got.match, seq.match, got.acct, seq.acct)
		}
		if got.events != seq.events {
			t.Errorf("IntraParallel=%d: %d timeline events vs %d sequential", ip, got.events, seq.events)
		}
		if got.metrics != seq.metrics {
			t.Errorf("IntraParallel=%d: merged metrics table differs from sequential\n--- sequential ---\n%s--- partitioned ---\n%s",
				ip, seq.metrics, got.metrics)
		}
	}
}

// TestIntraParallelAddEdgeSiteMatchesSequential extends the identity
// contract to AddEdgeSite: localization state is site-local, so every added
// site runs on its own partition and the multi-site retail scenario must
// replay byte-identically across IntraParallel = 0 and any positive value.
func TestIntraParallelAddEdgeSiteMatchesSequential(t *testing.T) {
	type result struct {
		responses uint64
		total     float64
		acct      uint64
		metrics   string
		events    int
	}
	run := func(ip int) result {
		tb := newRetailTestbed(t, TestbedConfig{Seed: 27182, IntraParallel: ip})
		s2 := tb.AddEdgeSite("edge-2")
		s3 := tb.AddEdgeSite("edge-3")
		engines := map[*sim.Engine]bool{tb.Eng: true}
		for _, s := range tb.Sites {
			engines[s.SGW.Node().Engine()] = true
		}
		want := 1
		if ip > 0 {
			want = 4
		}
		if len(engines) != want {
			t.Fatalf("IntraParallel=%d: %d partition engines, want %d (core + 3 sites when partitioned)", ip, len(engines), want)
		}
		b := startRetail(t, tb, "electronics", electronicsSpot)
		tb.Run(10 * time.Second)
		for _, s := range []*SiteBundle{s2, s3} {
			if s.Loc == tb.Loc || s.Backend == tb.EdgeBackend {
				t.Fatalf("site %s shares edge-1 state", s.Name)
			}
		}
		snap := tb.MetricsSnapshot()
		return result{
			responses: b.Frontend.Responses,
			total:     b.Frontend.Stats.Total.Mean(),
			acct:      tb.EPC.Acct.TotalBytes(),
			metrics:   snap.String(),
			events:    len(snap.Events),
		}
	}
	seq := run(0)
	if seq.responses == 0 {
		t.Fatal("sequential run produced no AR responses")
	}
	for _, ip := range []int{1, 3} {
		got := run(ip)
		if got.responses != seq.responses || got.total != seq.total || got.acct != seq.acct {
			t.Errorf("IntraParallel=%d diverged: responses %d vs %d, total %v vs %v, acct %d vs %d",
				ip, got.responses, seq.responses, got.total, seq.total, got.acct, seq.acct)
		}
		if got.events != seq.events {
			t.Errorf("IntraParallel=%d: %d timeline events vs %d sequential", ip, got.events, seq.events)
		}
		if got.metrics != seq.metrics {
			t.Errorf("IntraParallel=%d: merged metrics table differs from sequential\n--- sequential ---\n%s--- partitioned ---\n%s",
				ip, seq.metrics, got.metrics)
		}
	}
}
