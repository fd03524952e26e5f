package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// trace collects "<time> <label>" lines so tests can compare full execution
// orders across runs and modes.
type trace struct {
	lines []string
}

func (tr *trace) add(e *Engine, label string) {
	tr.lines = append(tr.lines, fmt.Sprintf("%v %s", e.Now(), label))
}

func (tr *trace) String() string { return strings.Join(tr.lines, "\n") }

// pingPong builds a two-partition cluster where the partitions exchange
// cross-partition events every 2 ms (≥ the 1 ms lookahead) and returns the
// execution trace after running for dur.
func pingPong(dur time.Duration) string {
	master := NewEngine(7)
	c := NewCluster(master, 7)
	edge := c.AddPartition("site/edge-1")
	c.SetLookahead(time.Millisecond)

	var tr trace
	var volley func(e, peer *Engine, name string, n int)
	volley = func(e, peer *Engine, name string, n int) {
		tr.add(e, fmt.Sprintf("%s recv %d", name, n))
		if n < 8 {
			e.SendTo(peer, 2*time.Millisecond, func(arg any) {
				volley(peer, e, map[string]string{"core": "edge", "edge": "core"}[name], arg.(int))
			}, n+1)
		}
	}
	master.Schedule(time.Millisecond, func() { volley(master, edge, "core", 0) })
	c.RunFor(dur)
	return tr.String()
}

// TestClusterCrossDeliveryDeterministic checks cross-partition volleys
// execute, alternate between partitions at lookahead-respecting timestamps,
// and replay identically run-to-run.
func TestClusterCrossDeliveryDeterministic(t *testing.T) {
	got := pingPong(50 * time.Millisecond)
	if got != pingPong(50*time.Millisecond) {
		t.Error("same-seed cluster runs diverge")
	}
	if !strings.Contains(got, "core recv 0") || !strings.Contains(got, "edge recv 7") {
		t.Errorf("volley incomplete:\n%s", got)
	}
	if n := len(strings.Split(got, "\n")); n != 9 {
		t.Errorf("trace has %d events, want 9:\n%s", n, got)
	}
}

// TestClusterTieBreakBySourcePartition checks the documented cross-partition
// tie-break: events delivered to one destination at the same timestamp
// execute in (source partition, send order) order, regardless of which
// partition's window ran first.
func TestClusterTieBreakBySourcePartition(t *testing.T) {
	master := NewEngine(1)
	c := NewCluster(master, 1)
	b := c.AddPartition("site/b")
	d := c.AddPartition("site/d")
	c.SetLookahead(time.Millisecond)

	var tr trace
	send := func(src *Engine, name string) func() {
		return func() {
			// Both sources aim at the same destination timestamp (2 ms) and
			// each sends twice to exercise the send-order tie-break too.
			for i := 0; i < 2; i++ {
				i := i
				src.CrossSchedule(master, time.Millisecond, func() {
					tr.add(master, fmt.Sprintf("%s/%d", name, i))
				})
			}
		}
	}
	// Schedule d's window work before b's so heap order alone cannot
	// produce the expected source-partition order.
	d.Schedule(time.Millisecond, send(d, "d"))
	b.Schedule(time.Millisecond, send(b, "b"))
	c.RunFor(10 * time.Millisecond)

	want := "2ms b/0\n2ms b/1\n2ms d/0\n2ms d/1"
	if tr.String() != want {
		t.Errorf("tie-break order:\n%s\nwant:\n%s", tr.String(), want)
	}
}

// TestClusterLookaheadRequired checks a multi-partition cluster refuses to
// run without a declared safe horizon, while a single-partition cluster
// (nothing to synchronize against) runs fine without one.
func TestClusterLookaheadRequired(t *testing.T) {
	lone := NewEngine(1)
	solo := NewCluster(lone, 1)
	lone.Schedule(time.Millisecond, func() {})
	solo.RunFor(10 * time.Millisecond) // must not panic

	c := NewCluster(NewEngine(1), 1)
	c.AddPartition("site/x")
	defer func() {
		if recover() == nil {
			t.Error("multi-partition cluster ran without lookahead")
		}
	}()
	c.RunFor(time.Millisecond)
}

// TestClusterSendBelowLookaheadPanics checks the runtime safety net: a
// cross-partition send that would land inside the current window (delay
// shorter than the lookahead) panics instead of silently reordering.
func TestClusterSendBelowLookaheadPanics(t *testing.T) {
	master := NewEngine(1)
	c := NewCluster(master, 1)
	edge := c.AddPartition("site/edge-1")
	c.SetLookahead(time.Millisecond)

	master.Schedule(time.Millisecond, func() {
		master.SendTo(edge, 500*time.Microsecond, func(any) {}, nil)
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("short cross send did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "conservative window limit") {
			t.Errorf("panic = %v, want the lookahead violation message", r)
		}
	}()
	c.RunFor(10 * time.Millisecond)
}

// TestClusterSendToSelfIsLocal checks the degenerate same-engine paths:
// SendTo and CrossSchedule on the destination == source engine behave as
// plain AfterArg/Schedule — no cluster membership needed, shared sequence
// counter, no lookahead constraint.
func TestClusterSendToSelfIsLocal(t *testing.T) {
	eng := NewEngine(1) // deliberately not in any cluster
	var order []int
	eng.SendTo(eng, time.Millisecond, func(any) { order = append(order, 0) }, nil)
	eng.CrossSchedule(eng, time.Millisecond, func() { order = append(order, 1) })
	eng.AfterArg(time.Millisecond, func(any) { order = append(order, 2) }, nil)
	eng.Run()
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Errorf("order = %v, want FIFO [0 1 2] (shared sequence counter)", order)
	}
}

// TestClusterForeignEnginePanics checks cross sends between engines that do
// not share a cluster are rejected.
func TestClusterForeignEnginePanics(t *testing.T) {
	a := NewEngine(1)
	NewCluster(a, 1)
	b := NewEngine(2) // clusterless
	defer func() {
		if recover() == nil {
			t.Error("cross send to a clusterless engine did not panic")
		}
	}()
	a.SendTo(b, time.Second, func(any) {}, nil)
}

// TestClusterReattachPanics checks an engine cannot belong to two clusters.
func TestClusterReattachPanics(t *testing.T) {
	e := NewEngine(1)
	NewCluster(e, 1)
	defer func() {
		if recover() == nil {
			t.Error("second cluster adopted an owned engine")
		}
	}()
	NewCluster(e, 1)
}

// TestLabelSeedDerivation checks partition RNG streams are pure functions
// of (seed, label), distinct across labels, and that creating partitions
// never draws from — and therefore never perturbs — the master stream.
func TestLabelSeedDerivation(t *testing.T) {
	if labelSeed(7, "site/a") != labelSeed(7, "site/a") {
		t.Error("labelSeed not deterministic")
	}
	if labelSeed(7, "site/a") == labelSeed(7, "site/b") {
		t.Error("labels collide")
	}
	if labelSeed(7, "site/a") == labelSeed(8, "site/a") {
		t.Error("seed ignored")
	}

	// Master stream unperturbed by AddPartition.
	ref := NewEngine(42).RNG().Uint64()
	m := NewEngine(42)
	c := NewCluster(m, 42)
	a := c.AddPartition("site/a")
	c.AddPartition("site/b")
	if got := m.RNG().Uint64(); got != ref {
		t.Errorf("AddPartition perturbed the master RNG stream: %d != %d", got, ref)
	}

	// Partition streams reproduce across cluster constructions.
	p1 := NewCluster(NewEngine(42), 42).AddPartition("site/a").RNG().Uint64()
	p2 := a.RNG().Uint64()
	if p1 != p2 {
		t.Error("partition RNG stream not reproducible from (seed, label)")
	}
}

// TestClusterStopEndsAtBarrier checks Engine.Stop inside a window ends the
// cluster run at that window's barrier without forcing clocks to target.
func TestClusterStopEndsAtBarrier(t *testing.T) {
	master := NewEngine(1)
	c := NewCluster(master, 1)
	edge := c.AddPartition("site/edge-1")
	c.SetLookahead(time.Millisecond)

	ran := 0
	master.Schedule(2*time.Millisecond, func() { ran++; master.Stop() })
	edge.Schedule(50*time.Millisecond, func() { ran++ })
	c.RunFor(100 * time.Millisecond)
	if ran != 1 {
		t.Errorf("ran = %d, want 1 (stop must end the run)", ran)
	}
	if c.Now() != 0 {
		t.Errorf("cluster clock = %v, want 0 (stopped run does not adopt the target)", c.Now())
	}
	if edge.Pending() != 1 {
		t.Errorf("edge pending = %d, want the 50ms event intact", edge.Pending())
	}

	// A subsequent run clears the stop flag and finishes the work.
	c.RunFor(100 * time.Millisecond)
	if ran != 2 {
		t.Errorf("ran = %d after resume, want 2", ran)
	}
}
