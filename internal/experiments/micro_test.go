package experiments

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"acacia/internal/sdn"
)

// TestGWThroughputRecyclesPackets holds the Fig. 8 harness to the packet
// pool: a line-rate second sends ≈ 89k segments, so an extra second of run
// costing fewer than 1,000 allocations means the sink returns every
// segment and the source reuses it.
func TestGWThroughputRecyclesPackets(t *testing.T) {
	allocs := func(dur time.Duration) float64 {
		return testing.AllocsPerRun(1, func() {
			measureGWThroughput(1, sdn.IdealGWCosts, dur)
		})
	}
	short, long := allocs(time.Second), allocs(2*time.Second)
	if d := long - short; d >= 1000 {
		t.Fatalf("one more second at line rate allocated %.0f objects (1 s: %.0f, 2 s: %.0f), want < 1000",
			d, short, long)
	}
}

// BenchmarkAllocGWChain drives one segment end to end through the chain
// Fig. 8 and ablation-fastpath measure, at ideal switch costs: pool take at
// the source, two megaflow-cache hits, sink release.
func BenchmarkAllocGWChain(b *testing.B) {
	send := gwChainRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

// gwChainRig returns BenchmarkAllocGWChain's op once the first segments
// have filled both megaflow caches and the pools.
func gwChainRig(t testing.TB) func() {
	c := newGWChain(1, sdn.IdealGWCosts)
	send := func() {
		c.send()
		c.eng.RunFor(time.Millisecond)
	}
	send()
	send()
	if want := uint64(2 * gwSegment); c.bytes != want {
		t.Fatalf("warm-up delivered %d bytes, want %d", c.bytes, want)
	}
	return send
}

// TestGWChainAllocBudget holds gwChainRig to BenchmarkAllocGWChain's
// ALLOC_BUDGET.json entry; the root package's TestAllocBudgets holds every
// other entry and knows this one is held here.
func TestGWChainAllocBudget(t *testing.T) {
	raw, err := os.ReadFile("../../ALLOC_BUDGET.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget map[string]float64
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatal(err)
	}
	want, ok := budget["BenchmarkAllocGWChain"]
	if !ok {
		t.Fatal("ALLOC_BUDGET.json has no BenchmarkAllocGWChain")
	}
	if got := testing.AllocsPerRun(1000, gwChainRig(t)); got > want {
		t.Errorf("GW-U chain: %.0f allocs per segment, budget %.0f", got, want)
	}
}
