package sim

import (
	"sort"
	"testing"
	"time"
)

// TestEventQueueMatchesStableSort is the queue's ordering property: under any
// interleaving of pushes and pops, with timestamps drawn from a small range
// so most of them collide, pop returns exactly what a stable sort by
// timestamp of the still-queued slots (kept in push order, i.e. seq order)
// puts first.
func TestEventQueueMatchesStableSort(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRNG(seed)
		var q eventQueue
		var ref []slot
		var seq uint64
		pop := func() {
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].at < ref[j].at })
			want := ref[0]
			ref = ref[1:]
			if got := q.pop(); got != want {
				t.Fatalf("seed %d: pop = (at %d, seq %d), want (at %d, seq %d)", seed, got.at, got.seq, want.at, want.seq)
			}
		}
		for op := 0; op < 4000; op++ {
			// Push-biased, so the heap grows several levels deep.
			if len(ref) == 0 || rng.Intn(5) < 3 {
				s := slot{at: Time(rng.Intn(8)), seq: seq, ev: &Event{}}
				seq++
				q.push(s)
				ref = append(ref, s)
			} else {
				pop()
			}
			if len(q) != len(ref) {
				t.Fatalf("seed %d: len = %d, want %d", seed, len(q), len(ref))
			}
		}
		for len(ref) > 0 {
			pop()
		}
		if len(q) != 0 {
			t.Fatalf("seed %d: %d slots left after drain", seed, len(q))
		}
	}
}

// TestCancelledHeadDrain checks lazy cancel at the head of the queue on both
// paths that look at the head: NextEventAt sweeps cancelled events until a
// live one leads, and RunUntil pops them without running them, counting them
// or moving the clock to their timestamps.
func TestCancelledHeadDrain(t *testing.T) {
	eng := NewEngine(1)
	fired := 0
	var dead []*Event
	for i := 0; i < 6; i++ {
		dead = append(dead, eng.Schedule(time.Duration(1+i/2)*time.Millisecond, func() { t.Error("cancelled event fired") }))
	}
	eng.Schedule(3*time.Millisecond, func() { fired++ }) // ties with the last cancelled pair
	tail := eng.Schedule(9*time.Millisecond, func() { t.Error("cancelled tail fired") })
	for _, ev := range dead {
		ev.Cancel()
	}

	if at, ok := eng.NextEventAt(); !ok || at != Time(3*time.Millisecond) {
		t.Fatalf("NextEventAt = %v, %v; want the live event at 3ms", at, ok)
	}
	// The 1 ms and 2 ms pairs led the queue and are gone; the 3 ms pair was
	// scheduled before the live event, so it led too.
	if eng.Pending() != 2 {
		t.Errorf("pending = %d after sweep, want 2 (live + tail)", eng.Pending())
	}

	tail.Cancel()
	eng.RunUntil(Time(20 * time.Millisecond))
	if fired != 1 || eng.Processed() != 1 {
		t.Errorf("fired = %d, processed = %d; want 1, 1 (cancelled events are not processed)", fired, eng.Processed())
	}
	if eng.Pending() != 0 || eng.Now() != Time(20*time.Millisecond) {
		t.Errorf("pending = %d, clock = %v; want 0, 20ms", eng.Pending(), eng.Now())
	}
	if _, ok := eng.NextEventAt(); ok {
		t.Error("NextEventAt reports an event on an empty queue")
	}

	// A queue holding only cancelled events drains to empty through RunUntil
	// alone, and the clock lands on the target, not on their timestamps.
	eng.Schedule(time.Millisecond, func() { t.Error("cancelled event fired") }).Cancel()
	eng.RunUntil(Time(30 * time.Millisecond))
	if eng.Pending() != 0 || eng.Now() != Time(30*time.Millisecond) {
		t.Errorf("pending = %d, clock = %v; want 0, 30ms", eng.Pending(), eng.Now())
	}
}

// TestPooledHandleReuse checks an event coming back from the free-list
// carries nothing over from its last use: not the argument-style callback,
// and not the cancel flag.
func TestPooledHandleReuse(t *testing.T) {
	eng := NewEngine(1)
	eng.AfterArg(time.Millisecond, func(any) {}, "stale")
	first := eng.queue[0].ev
	eng.Run()
	if len(eng.free) != 1 || eng.free[0] != first {
		t.Fatalf("fired pooled event not on the free-list (free=%d)", len(eng.free))
	}

	// Same event, now in closure form: the stale afn must not shadow fn.
	ran := false
	eng.After(time.Millisecond, func() { ran = true })
	if eng.queue[0].ev != first {
		t.Fatal("After did not reuse the recycled event")
	}
	eng.Run()
	if !ran {
		t.Error("reused event did not run its new callback")
	}

	// Cancelled while queued, swept, reused: the flag must not survive.
	eng.After(time.Millisecond, func() { t.Error("cancelled event fired") })
	eng.queue[0].ev.cancel = true
	eng.Run()
	ran = false
	eng.After(time.Millisecond, func() { ran = true })
	if eng.queue[0].ev != first {
		t.Fatal("After did not reuse the swept event")
	}
	eng.Run()
	if !ran {
		t.Error("event reused after a cancelled sweep did not fire")
	}
}

// TestTickerReusesItsEvent checks the ticker re-queues one event for its
// whole life, that the event's At tracks the next firing, and that stopping
// between ticks leaves exactly that one cancelled event to drain.
func TestTickerReusesItsEvent(t *testing.T) {
	eng := NewEngine(1)
	ticks := 0
	tk := NewTicker(eng, 10*time.Millisecond, func() { ticks++ })
	ev := tk.ev
	for i := 1; i <= 3; i++ {
		eng.RunUntil(Time(time.Duration(i) * 10 * time.Millisecond))
		if tk.ev != ev || eng.Pending() != 1 || eng.queue[0].ev != ev {
			t.Fatalf("tick %d: ticker is not re-queueing its one event", i)
		}
		if want := Time(time.Duration(i+1) * 10 * time.Millisecond); ev.At() != want {
			t.Errorf("tick %d: next firing at %v, want %v", i, ev.At(), want)
		}
	}
	tk.Stop() // between ticks
	tk.Stop()
	eng.Run()
	if ticks != 3 || eng.Pending() != 0 {
		t.Errorf("ticks = %d, pending = %d; want 3, 0", ticks, eng.Pending())
	}
}

// TestTickerKeepsScheduleOrder pins the tie-break position of a re-armed
// tick: the sequence number is drawn when the tick re-arms (after its
// handler returns), so anything scheduled for the next tick's instant before
// that point — by the handler, or by an earlier event — runs ahead of it.
func TestTickerKeepsScheduleOrder(t *testing.T) {
	eng := NewEngine(1)
	var order []string
	period := time.Millisecond
	n := 0
	var tk *Ticker
	tk = NewTicker(eng, period, func() {
		n++
		order = append(order, "tick")
		if n == 1 {
			eng.Schedule(period, func() {
				order = append(order, "from-handler")
				// Ties with tick 3, scheduled before tick 2 re-arms.
				eng.Schedule(period, func() { order = append(order, "before-rearm") })
			})
		}
		if n == 3 {
			tk.Stop()
		}
	})
	eng.Run()
	want := []string{"tick", "from-handler", "tick", "before-rearm", "tick"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestTickerSteadyStateZeroAlloc pins the re-arm path: once running, a
// ticker period costs no allocation.
func TestTickerSteadyStateZeroAlloc(t *testing.T) {
	eng := NewEngine(1)
	ticks := 0
	tk := NewTicker(eng, time.Millisecond, func() { ticks++ })
	eng.RunFor(time.Millisecond)
	n := testing.AllocsPerRun(1000, func() { eng.RunFor(time.Millisecond) })
	tk.Stop()
	if n != 0 {
		t.Fatalf("ticker period allocates %.1f times, want 0", n)
	}
	if ticks < 1000 {
		t.Fatalf("ticks = %d, want at least one per measured period", ticks)
	}
}
