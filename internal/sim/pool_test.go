package sim

import (
	"testing"
	"time"
)

// TestMixedSchedulingAPIsFIFO checks the determinism contract behind event
// pooling: Schedule, ScheduleArg and After share one enqueue, so
// interleaving them at equal timestamps fires in exact call order, whether
// the event came back from the free-list or was freshly allocated. Swapping
// one API for another in a hot path must never reorder a seeded run.
func TestMixedSchedulingAPIsFIFO(t *testing.T) {
	eng := NewEngine(1)
	for i := 0; i < 3; i++ { // three recycled events, then two fresh ones
		eng.Schedule(0, func() {})
	}
	eng.Run()
	var order []int
	note := func(v any) { order = append(order, v.(int)) }
	eng.Schedule(time.Millisecond, func() { order = append(order, 0) })
	eng.After(time.Millisecond, func() { order = append(order, 1) })
	eng.ScheduleArg(time.Millisecond, note, 2)
	eng.ScheduleArg(time.Millisecond, note, 3)
	eng.Schedule(time.Millisecond, func() { order = append(order, 4) })
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed-API firing order = %v, want 0..4 in call order", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5", len(order))
	}
}

// TestScheduleArgCancel checks a pre-bound timer behaves like a closure
// timer under Cancel.
func TestScheduleArgCancel(t *testing.T) {
	eng := NewEngine(1)
	fired := false
	tm := eng.ScheduleArg(time.Millisecond, func(any) { fired = true }, nil)
	tm.Cancel()
	eng.Run()
	if fired {
		t.Error("cancelled ScheduleArg event fired")
	}
}

// TestPooledEventArgIntegrity checks recycled events never leak a stale
// argument into a later firing: each ScheduleArg invocation sees exactly the
// argument it was scheduled with, across many recycle generations.
func TestPooledEventArgIntegrity(t *testing.T) {
	eng := NewEngine(1)
	next := 0
	var check func(any)
	check = func(v any) {
		if v.(int) != next {
			t.Fatalf("event fired with arg %v, want %d", v, next)
		}
		next++
		if next < 1000 {
			eng.ScheduleArg(time.Microsecond, check, next)
		}
	}
	eng.ScheduleArg(time.Microsecond, check, 0)
	eng.Run()
	if next != 1000 {
		t.Fatalf("fired %d chained events, want 1000", next)
	}
}

// TestCancelledRecycledEventSkipped checks lazy cancel coexists with event
// pooling: a cancelled recycled event is skipped without perturbing the live
// event behind it.
func TestCancelledRecycledEventSkipped(t *testing.T) {
	eng := NewEngine(1)
	// Warm one event and let it fire.
	eng.Schedule(time.Millisecond, func() {})
	eng.Run()
	// The recycled event, cancelled, ahead of a fresh one: the run must skip
	// it and still fire the live event at its time.
	tm := eng.Schedule(time.Millisecond, func() { t.Error("cancelled event fired") })
	want := eng.Now().Add(2 * time.Millisecond)
	var at Time
	eng.Schedule(2*time.Millisecond, func() { at = eng.Now() })
	tm.Cancel()
	eng.Run()
	if at != want || eng.Processed() != 2 {
		t.Fatalf("live event fired at %v after %d events; want %v, 2", at, eng.Processed(), want)
	}
}

// TestStaleTimerCancelSparesReusedEvent is the reason Timer carries a
// generation: A fires, its handler schedules B, which takes A's recycled
// event from the free-list, and cancelling through A's old Timer must not
// stop B — neither from inside A's handler nor after the run.
func TestStaleTimerCancelSparesReusedEvent(t *testing.T) {
	eng := NewEngine(1)
	bRan := false
	var a Timer
	a = eng.Schedule(time.Millisecond, func() {
		b := eng.Schedule(time.Millisecond, func() { bRan = true })
		if b.ev != a.ev {
			t.Fatal("B did not reuse A's recycled event")
		}
		a.Cancel()
	})
	eng.Run()
	if !bRan {
		t.Fatal("cancelling through A's stale Timer stopped B")
	}

	// The same after the run: the event is back on the free-list, and the
	// next use must start uncancelled.
	a.Cancel()
	ran := false
	if eng.Schedule(time.Millisecond, func() { ran = true }).ev != a.ev {
		t.Fatal("Schedule did not reuse the free event")
	}
	eng.Run()
	if !ran {
		t.Error("a stale Cancel on a free event carried over to its next use")
	}
}
