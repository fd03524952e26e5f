package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsEventsInOrder(t *testing.T) {
	eng := NewEngine(1)
	var order []int
	eng.Schedule(3*time.Millisecond, func() { order = append(order, 3) })
	eng.Schedule(1*time.Millisecond, func() { order = append(order, 1) })
	eng.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	eng.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if eng.Now() != Time(3*time.Millisecond) {
		t.Errorf("clock = %v, want 3ms", eng.Now())
	}
}

func TestEngineFIFOAmongEqualTimestamps(t *testing.T) {
	eng := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	eng := NewEngine(1)
	var fired []Time
	eng.Schedule(time.Millisecond, func() {
		fired = append(fired, eng.Now())
		eng.Schedule(time.Millisecond, func() {
			fired = append(fired, eng.Now())
		})
	})
	eng.Run()
	if len(fired) != 2 || fired[0] != Time(time.Millisecond) || fired[1] != Time(2*time.Millisecond) {
		t.Errorf("fired = %v", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	eng := NewEngine(1)
	ran := false
	tm := eng.Schedule(time.Millisecond, func() { ran = true })
	tm.Cancel()
	tm.Cancel()      // idempotent
	Timer{}.Cancel() // the zero Timer names nothing
	eng.Run()
	if ran || eng.Processed() != 0 {
		t.Errorf("cancelled event ran (processed %d)", eng.Processed())
	}
}

func TestEngineRunUntil(t *testing.T) {
	eng := NewEngine(1)
	var count int
	for i := 1; i <= 10; i++ {
		eng.Schedule(time.Duration(i)*time.Millisecond, func() { count++ })
	}
	eng.RunUntil(Time(5 * time.Millisecond))
	if count != 5 {
		t.Errorf("count = %d after RunUntil(5ms), want 5", count)
	}
	if eng.Now() != Time(5*time.Millisecond) {
		t.Errorf("clock = %v, want 5ms", eng.Now())
	}
	if pending(eng) != 5 {
		t.Errorf("pending = %d, want 5", pending(eng))
	}
	eng.Run()
	if count != 10 {
		t.Errorf("count = %d after Run, want 10", count)
	}
}

func TestEngineRunForAdvancesClockWithoutEvents(t *testing.T) {
	eng := NewEngine(1)
	eng.RunFor(time.Second)
	if eng.Now() != Time(time.Second) {
		t.Errorf("clock = %v, want 1s", eng.Now())
	}
}

func TestEngineStop(t *testing.T) {
	eng := NewEngine(1)
	var count int
	for i := 1; i <= 10; i++ {
		eng.Schedule(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				eng.Stop()
			}
		})
	}
	eng.Run()
	if count != 3 {
		t.Errorf("count = %d, want 3 (stopped)", count)
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	NewEngine(1).Schedule(-time.Millisecond, func() {})
}

func TestEngineNextEventAt(t *testing.T) {
	eng := NewEngine(1)
	if _, ok := eng.NextEventAt(); ok {
		t.Error("empty engine reported a next event")
	}
	tm := eng.Schedule(5*time.Millisecond, func() {})
	if at, ok := eng.NextEventAt(); !ok || at != Time(5*time.Millisecond) {
		t.Errorf("NextEventAt = %v, %v", at, ok)
	}
	tm.Cancel()
	if _, ok := eng.NextEventAt(); ok {
		t.Error("cancelled-only queue reported a next event")
	}
}

func TestTicker(t *testing.T) {
	eng := NewEngine(1)
	var ticks []Time
	tk := NewTicker(eng, 10*time.Millisecond, func() {
		ticks = append(ticks, eng.Now())
	})
	eng.RunUntil(Time(35 * time.Millisecond))
	tk.Stop()
	eng.Run()
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want 3 firings", ticks)
	}
	for i, tt := range ticks {
		want := Time(time.Duration(i+1) * 10 * time.Millisecond)
		if tt != want {
			t.Errorf("tick %d at %v, want %v", i, tt, want)
		}
	}
}

func TestTickerStopFromHandler(t *testing.T) {
	eng := NewEngine(1)
	var tk *Ticker
	count := 0
	tk = NewTicker(eng, time.Millisecond, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	eng.Run()
	if count != 2 {
		t.Errorf("count = %d, want 2", count)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Errorf("Seconds = %v", tm.Seconds())
	}
	if tm.Milliseconds() != 1500 {
		t.Errorf("Milliseconds = %v", tm.Milliseconds())
	}
	if tm.Add(500*time.Millisecond) != Time(2*time.Second) {
		t.Error("Add")
	}
	if tm.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Error("Sub")
	}
	if !Time(1).Before(Time(2)) || Time(2).Before(Time(1)) {
		t.Error("Before")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		nn := int(n%100) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(nn)
			if v < 0 || v >= nn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(17)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(1)
	a := r.Fork("entity-a")
	// Same parent state + label yields the same child stream; different
	// labels diverge.
	r2 := NewRNG(1)
	b := r2.Fork("entity-b")
	diverged := false
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("forks with different labels produced identical streams")
	}
}

func TestEngineEventLimitGuard(t *testing.T) {
	eng := NewEngine(1)
	eng.Limit = 100
	var loop func()
	loop = func() { eng.Schedule(time.Nanosecond, loop) }
	eng.Schedule(time.Nanosecond, loop)
	defer func() {
		if recover() == nil {
			t.Error("runaway loop did not trip the event limit")
		}
	}()
	eng.Run()
}

func TestProcessedCount(t *testing.T) {
	eng := NewEngine(1)
	for i := 0; i < 5; i++ {
		eng.Schedule(time.Millisecond, func() {})
	}
	eng.Run()
	if eng.Processed() != 5 {
		t.Errorf("Processed = %d, want 5", eng.Processed())
	}
}
