package sim

import (
	"testing"
	"time"
)

// TestRunUntilTargetAtOrBeforeClock checks RunUntil degenerates safely when
// the target does not advance the clock: a target equal to the current clock
// runs nothing new, and a target in the past neither regresses the clock nor
// fires future events. Cluster.RunUntil leans on these semantics when a
// window barrier lands exactly on the caller's target.
func TestRunUntilTargetAtOrBeforeClock(t *testing.T) {
	eng := NewEngine(1)
	ran := 0
	eng.Schedule(5*time.Millisecond, func() { ran++ })
	eng.Schedule(10*time.Millisecond, func() { ran++ })

	eng.RunUntil(Time(5 * time.Millisecond))
	if ran != 1 || eng.Now() != Time(5*time.Millisecond) {
		t.Fatalf("setup: ran=%d clock=%v", ran, eng.Now())
	}

	// Target exactly at the clock: nothing fires, nothing moves.
	eng.RunUntil(Time(5 * time.Millisecond))
	if ran != 1 || eng.Now() != Time(5*time.Millisecond) || eng.Pending() != 1 {
		t.Errorf("target at clock: ran=%d clock=%v pending=%d, want 1, 5ms, 1", ran, eng.Now(), eng.Pending())
	}

	// Target before the clock: the clock must not run backwards and the
	// future event must stay pending.
	eng.RunUntil(Time(3 * time.Millisecond))
	if ran != 1 || eng.Now() != Time(5*time.Millisecond) || eng.Pending() != 1 {
		t.Errorf("target before clock: ran=%d clock=%v pending=%d, want 1, 5ms, 1", ran, eng.Now(), eng.Pending())
	}

	eng.Run()
	if ran != 2 {
		t.Errorf("ran = %d after drain, want 2", ran)
	}
}

// TestNextEventAtDrainsCancelledPooled checks the cancelled-event sweep in
// NextEventAt recycles pooled events back to the free-list instead of
// leaking them. No public API hands out a cancel handle for pooled events
// (that is the point of the pool), so the test marks them cancelled
// directly — the state a future API or an internal path could produce.
func TestNextEventAtDrainsCancelledPooled(t *testing.T) {
	eng := NewEngine(1)
	eng.After(time.Millisecond, func() {}) // pooled
	eng.After(time.Millisecond, func() {}) // pooled
	live := eng.Schedule(2*time.Millisecond, func() {})

	cancelled := 0
	for _, s := range eng.queue {
		if s.ev.pooled {
			s.ev.cancel = true
			cancelled++
		}
	}
	if cancelled != 2 {
		t.Fatalf("marked %d pooled events cancelled, want 2", cancelled)
	}

	free0 := len(eng.free)
	at, ok := eng.NextEventAt()
	if !ok || at != Time(2*time.Millisecond) {
		t.Errorf("NextEventAt = %v, %v; want the live event at 2ms", at, ok)
	}
	if len(eng.free) != free0+2 {
		t.Errorf("free-list grew by %d, want 2 (cancelled pooled events recycled)", len(eng.free)-free0)
	}
	if eng.Pending() != 1 || eng.queue[0].ev != live {
		t.Errorf("queue after sweep: pending=%d head=%p, want only the live event", eng.Pending(), eng.queue[0].ev)
	}

	// The recycled slots must be reusable: the next After must not allocate.
	eng.After(3*time.Millisecond, func() {})
	if len(eng.free) != free0+1 {
		t.Errorf("After did not reuse a recycled event (free=%d, want %d)", len(eng.free), free0+1)
	}
	eng.Run()
}

// TestTickerStopTwiceInsideTick checks Stop is idempotent even when invoked
// repeatedly from inside the tick it is cancelling, and that a stopped
// ticker never re-arms.
func TestTickerStopTwiceInsideTick(t *testing.T) {
	eng := NewEngine(1)
	var tk *Ticker
	count := 0
	tk = NewTicker(eng, time.Millisecond, func() {
		count++
		tk.Stop()
		tk.Stop() // second stop from the same tick must be harmless
	})
	other := 0
	eng.Schedule(5*time.Millisecond, func() { other++ })
	eng.Run()
	tk.Stop() // and a third, after the run
	if count != 1 {
		t.Errorf("ticks = %d, want 1 (stopped inside first tick)", count)
	}
	if other != 1 {
		t.Errorf("unrelated event ran %d times, want 1 (ticker stop must not disturb the queue)", other)
	}
	if eng.Pending() != 0 {
		t.Errorf("pending = %d after drain, want 0 (stopped ticker re-armed?)", eng.Pending())
	}
}
