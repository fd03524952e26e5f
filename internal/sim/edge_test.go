package sim

import (
	"testing"
	"time"
)

// TestRunUntilTargetAtOrBeforeClock checks RunUntil degenerates safely when
// the target does not advance the clock: a target equal to the current clock
// runs nothing new, and a target in the past neither regresses the clock nor
// fires future events.
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
	if ran != 1 || eng.Now() != Time(5*time.Millisecond) || pending(eng) != 1 {
		t.Errorf("target at clock: ran=%d clock=%v pending=%d, want 1, 5ms, 1", ran, eng.Now(), pending(eng))
	}

	// Target before the clock: the clock must not run backwards and the
	// future event must stay pending.
	eng.RunUntil(Time(3 * time.Millisecond))
	if ran != 1 || eng.Now() != Time(5*time.Millisecond) || pending(eng) != 1 {
		t.Errorf("target before clock: ran=%d clock=%v pending=%d, want 1, 5ms, 1", ran, eng.Now(), pending(eng))
	}

	eng.Run()
	if ran != 2 {
		t.Errorf("ran = %d after drain, want 2", ran)
	}
}

// TestNextEventAtDrainsCancelledPooled checks what happens to cancelled
// events: NextEventAt reads past them without firing, popping or recycling
// anything, and the run that passes them returns them to the free-list
// instead of leaking them.
func TestNextEventAtDrainsCancelledPooled(t *testing.T) {
	eng := NewEngine(1)
	a := eng.Schedule(time.Millisecond, func() { t.Error("cancelled event fired") })
	b := eng.Schedule(time.Millisecond, func() { t.Error("cancelled event fired") })
	ran := false
	eng.Schedule(2*time.Millisecond, func() { ran = true })
	a.Cancel()
	b.Cancel()

	free0 := len(eng.free)
	at, ok := eng.NextEventAt()
	if !ok || at != Time(2*time.Millisecond) {
		t.Errorf("NextEventAt = %v, %v; want the live event at 2ms", at, ok)
	}
	if pending(eng) != 3 || len(eng.free) != free0 || eng.Processed() != 0 || ran {
		t.Errorf("NextEventAt disturbed the queue: pending=%d free=%d processed=%d", pending(eng), len(eng.free), eng.Processed())
	}

	// A run reaching 1 ms passes the cancelled pair and recycles it.
	eng.RunUntil(Time(time.Millisecond))
	if len(eng.free) != free0+2 || eng.Processed() != 0 {
		t.Errorf("free-list grew by %d with %d processed, want 2, 0 (cancelled events recycled unfired)", len(eng.free)-free0, eng.Processed())
	}
	if pending(eng) != 1 {
		t.Errorf("pending = %d after the run passed the cancelled pair, want only the live event", pending(eng))
	}

	// The recycled events must be reusable: the next Schedule must not
	// allocate.
	eng.Schedule(3*time.Millisecond, func() {})
	if len(eng.free) != free0+1 {
		t.Errorf("Schedule did not reuse a recycled event (free=%d, want %d)", len(eng.free), free0+1)
	}
	eng.Run()
	if !ran {
		t.Error("live event behind the cancelled pair never fired")
	}
}

// TestRunEndingOnCancelledTimer is the case that leaves the queue's ref ahead
// of the clock: Run drains to a cancelled timer, whose pop moves ref but not
// Now, and the next schedules land between the two. They must fire, in
// order, at the times asked for.
func TestRunEndingOnCancelledTimer(t *testing.T) {
	eng := NewEngine(1)
	eng.Schedule(time.Millisecond, func() {})
	timer := eng.ScheduleArg(3*time.Second, func(any) { t.Error("cancelled timer fired") }, nil)
	timer.Cancel()
	eng.Run()
	if eng.Now() != Time(time.Millisecond) || pending(eng) != 0 {
		t.Fatalf("clock = %v, pending = %d; want 1ms, 0", eng.Now(), pending(eng))
	}

	var order []string
	var at []Time
	note := func(s string) func() {
		return func() { order = append(order, s); at = append(at, eng.Now()) }
	}
	eng.Schedule(time.Millisecond, note("1ms"))
	eng.Schedule(0, note("now"))
	eng.Schedule(time.Millisecond, note("1ms-second"))
	// Filed against the stale ref of 3 s, 2.9 s would sit in a lower bucket
	// than 2.2 s and fire first.
	eng.Schedule(2900*time.Millisecond, note("2.9s"))
	eng.Schedule(2200*time.Millisecond, note("2.2s"))
	eng.Run()
	want := []string{"now", "1ms", "1ms-second", "2.2s", "2.9s"}
	wantAt := []Time{Time(time.Millisecond), Time(2 * time.Millisecond), Time(2 * time.Millisecond), Time(2201 * time.Millisecond), Time(2901 * time.Millisecond)}
	for i := range want {
		if len(order) != len(want) || order[i] != want[i] || at[i] != wantAt[i] {
			t.Fatalf("order = %v at %v, want %v at %v", order, at, want, wantAt)
		}
	}
}

// TestScheduleAfterBoundedRun checks the bounded loops leave the queue ready
// for a schedule earlier than anything queued: RunUntil must not carry ref
// to the next event's time, and a bound one tick short of an event must
// leave it pending.
func TestScheduleAfterBoundedRun(t *testing.T) {
	eng := NewEngine(1)
	var order []string
	eng.Schedule(10*time.Millisecond, func() { order = append(order, "10ms") })
	eng.Schedule(11*time.Millisecond, func() { order = append(order, "11ms") }) // shares the 10ms event's bucket: a refill, not the lone-slot path
	eng.Schedule(time.Second, func() { order = append(order, "1s") })
	eng.RunUntil(Time(2 * time.Millisecond))
	if eng.queue.ref > eng.Now() {
		t.Fatalf("ref = %v ahead of the clock %v after RunUntil", eng.queue.ref, eng.Now())
	}
	eng.Schedule(time.Millisecond, func() { order = append(order, "3ms") })

	eng.RunUntil(Time(10*time.Millisecond) - 1)
	if len(order) != 1 || order[0] != "3ms" || pending(eng) != 3 {
		t.Fatalf("RunUntil(10ms-1): ran %v, pending %d; want [3ms], 3 (the event past the bound stays)", order, pending(eng))
	}
	eng.RunUntil(Time(10 * time.Millisecond))
	if len(order) != 2 || order[1] != "10ms" {
		t.Fatalf("RunUntil(10ms): ran %v, want the 10ms event", order)
	}
	eng.Run()
	if len(order) != 4 || order[2] != "11ms" || order[3] != "1s" {
		t.Fatalf("order = %v", order)
	}
}

// TestZeroDelayFromHandlerRunsAfterQueuedTies checks FIFO among equal
// timestamps holds for events added to the instant being drained: a
// zero-delay event scheduled by a handler runs after the same-time events
// that were queued before it, however they reached that instant.
func TestZeroDelayFromHandlerRunsAfterQueuedTies(t *testing.T) {
	eng := NewEngine(1)
	var order []string
	eng.Schedule(time.Millisecond, func() {
		order = append(order, "a")
		eng.Schedule(0, func() {
			order = append(order, "a0")
			eng.Schedule(0, func() { order = append(order, "a00") })
		})
	})
	eng.Schedule(500*time.Microsecond, func() {
		// Queued for 1 ms later than "a" and "b" were, from a different ref.
		eng.Schedule(500*time.Microsecond, func() { order = append(order, "c") })
	})
	eng.Schedule(time.Millisecond, func() { order = append(order, "b") })
	eng.Run()
	want := []string{"a", "b", "c", "a0", "a00"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestStopMidBucketThenRunResumes checks Stop between two events of one
// instant leaves the rest of that instant queued, and the next Run carries
// on from exactly there.
func TestStopMidBucketThenRunResumes(t *testing.T) {
	eng := NewEngine(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		eng.Schedule(time.Millisecond, func() {
			order = append(order, i)
			if i == 1 {
				eng.Stop()
			}
		})
	}
	eng.Schedule(2*time.Millisecond, func() { order = append(order, 5) })
	eng.Run()
	if len(order) != 2 || pending(eng) != 4 {
		t.Fatalf("after Stop: ran %v, pending %d; want [0 1], 4", order, pending(eng))
	}
	eng.Schedule(0, func() { order = append(order, 99) }) // same instant, queued last
	eng.Run()
	want := []int{0, 1, 2, 3, 4, 99, 5}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
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
	if pending(eng) != 0 {
		t.Errorf("pending = %d after drain, want 0 (stopped ticker re-armed?)", pending(eng))
	}
}
