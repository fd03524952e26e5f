package sim

import (
	"math"
	"math/bits"
	"testing"
	"time"
)

// queued lists the engine's pending slots bucket by bucket (not in firing
// order): the white-box view the tests below use to follow events through
// the free-list.
func queued(e *Engine) []slot {
	var slots []slot
	for i := range e.queue.bucket {
		slots = append(slots, e.queue.live(i)...)
	}
	return slots
}

// pending reports the number of queued (possibly cancelled) events.
func pending(e *Engine) int {
	n := -e.queue.head
	for _, b := range e.queue.bucket {
		n += len(b)
	}
	return n
}

// checkInvariant verifies the radix queue's structure: every slot at or after
// ref and in the bucket its timestamp selects, bucket 0's head inside it, and
// the occupancy mask and count telling the truth.
func checkInvariant(t *testing.T, q *eventQueue) {
	t.Helper()
	for i, b := range q.bucket {
		if i == 0 {
			if q.head > len(b) || (q.head == len(b) && q.head != 0) {
				t.Fatalf("head = %d with %d slots in bucket 0", q.head, len(b))
			}
			b = b[q.head:]
		}
		if occupied := q.mask&(1<<uint(i)) != 0; occupied != (len(b) > 0) {
			t.Fatalf("bucket %d: mask says occupied=%v, holds %d slots", i, occupied, len(b))
		}
		if c := cap(q.bucket[i]); c != 0 && (c < minBucket || c&(c-1) != 0) {
			t.Fatalf("bucket %d: capacity %d is not a power-of-two class", i, c)
		}
		for _, s := range b {
			if s.at < q.ref {
				t.Fatalf("bucket %d: slot at %d below ref %d", i, s.at, q.ref)
			}
			if want := bits.Len64(uint64(s.at ^ q.ref)); want != i {
				t.Fatalf("slot at %d (ref %d) filed in bucket %d, want %d", s.at, q.ref, i, want)
			}
		}
	}
	for c, sp := range q.spare {
		for _, a := range sp {
			if len(a) != 0 || cap(a) != 1<<uint(c) {
				t.Fatalf("spare class %d holds an array of len %d cap %d", c, len(a), cap(a))
			}
		}
	}
}

// opDelays are the push distances the op stream draws from: exact ties, tens
// of nanoseconds, microseconds, a link latency, a frame period, and a jump
// past bit 40, so slots travel down through most of the bucket range.
var opDelays = [...]Time{0, 0, 1, 10, Time(time.Microsecond), Time(time.Millisecond), 100 * Time(time.Millisecond), 1 << 40}

// driveQueue interprets ops as a stream of (opcode, argument) byte pairs
// against an engine's queue and free-list and a model — the still-queued
// slots in push order — and checks every pop against a stable sort of the
// model by timestamp: the same slot (by event identity), with the cancel
// flag the model expects, nothing due at or before the limit withheld,
// nothing past it released, ref never carried past the limit. Pushes take
// events from the free-list and pops return them there, as Run does, so
// events are reused under new generations; cancels go through Timers, some
// of them stale, and a stale one must touch nothing. The model keeps a clock
// the way the engine does: a popped slot moves it unless its event is
// cancelled, so a cancelled pop leaves the clock behind ref and the pushes
// that follow land below ref.
func driveQueue(t *testing.T, ops []byte) {
	t.Helper()
	eng := &Engine{}
	q := &eng.queue
	type entry struct {
		s         slot
		tm        Timer
		cancelled bool
	}
	var model []entry
	var stale []Timer // Timers of popped events, whose use has ended
	now := Time(0)
	push := func(at Time) {
		tm := eng.enqueue(at, nil, nil, nil)
		model = append(model, entry{s: slot{at: at, ev: tm.ev}, tm: tm})
	}
	pop := func(limit Time) bool {
		min := -1
		for i, e := range model {
			if min < 0 || e.s.at < model[min].s.at {
				min = i
			}
		}
		refBefore := q.ref
		got, ok := q.popAtMost(limit)
		if q.ref > limit && q.ref != refBefore {
			t.Fatalf("popAtMost(%d) moved ref %d -> %d, past the limit", limit, refBefore, q.ref)
		}
		if min < 0 || model[min].s.at > limit {
			if ok {
				t.Fatalf("popAtMost(%d) released a slot at %d", limit, got.at)
			}
			return false
		}
		want := model[min]
		if !ok {
			t.Fatalf("popAtMost(%d) withheld the slot at %d", limit, want.s.at)
		}
		if got != want.s {
			t.Fatalf("popAtMost(%d) = slot at %d, want the one at %d pushed %d-th of %d queued", limit, got.at, want.s.at, min, len(model))
		}
		if got.ev.cancel != want.cancelled {
			t.Fatalf("slot at %d popped with cancel = %v, want %v", got.at, got.ev.cancel, want.cancelled)
		}
		model = append(model[:min], model[min+1:]...)
		if !want.cancelled {
			now = got.at
		}
		eng.recycle(got.ev)
		stale = append(stale, want.tm)
		return true
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], Time(ops[i+1])
		switch op % 16 {
		case 0, 1, 2, 3, 4, 5, 6, 7:
			push(now + opDelays[op%8]*(arg%16+1))
		case 8:
			// A burst inside one bucket, past the minimum array size.
			for k := Time(0); k < 17+arg%48; k++ {
				push(now + Time(time.Millisecond) + k%5)
			}
		case 9:
			for k := Time(0); k <= arg%32; k++ {
				push(now + opDelays[arg%8])
			}
		case 10:
			pop(now + arg)
		case 11:
			pop(now + arg*Time(time.Microsecond))
		case 12:
			for pop(now + arg*Time(time.Millisecond)) {
			}
		case 13:
			pop(math.MaxInt64)
		case 14:
			// Bit 4 picks a stale Timer: its event is free or queued again
			// under a later generation, and must not notice.
			if op&0x10 != 0 {
				if len(stale) > 0 {
					stale[int(arg)%len(stale)].Cancel()
				}
			} else if len(model) > 0 {
				e := &model[int(arg)%len(model)]
				e.tm.Cancel()
				e.cancelled = true
			}
		case 15:
			for k := Time(0); k <= arg && pop(math.MaxInt64); k++ {
			}
		}
		checkInvariant(t, q)
		if pending(eng) != len(model) {
			t.Fatalf("pending = %d, want %d", pending(eng), len(model))
		}
	}
	for pop(math.MaxInt64) {
	}
	checkInvariant(t, q)
	if pending(eng) != 0 || q.mask != 0 {
		t.Fatalf("%d slots (mask %x) left after drain", pending(eng), q.mask)
	}
}

// genOps draws a seeded op stream for driveQueue, push-biased so the queue
// grows a few thousand slots deep. Half its cancels go through stale Timers.
func genOps(seed uint64, n int) []byte {
	rng := NewRNG(seed)
	ops := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		op := byte(rng.Intn(16))
		if op >= 10 && rng.Intn(3) == 0 {
			op = byte(rng.Intn(10))
		}
		if op == 14 && rng.Intn(2) == 0 {
			op |= 0x10
		}
		ops = append(ops, op, byte(rng.Intn(256)))
	}
	return ops
}

// TestEventQueueMatchesStableSort is the queue's ordering property: under
// any interleaving of pushes, bounded pops and cancels (live or stale), with
// distances from
// exact ties to 2^40 ns, popAtMost returns exactly what a stable sort by
// timestamp of the still-queued slots (kept in push order, i.e. seq order)
// puts first, cancelled exactly when a live Timer cancelled it.
func TestEventQueueMatchesStableSort(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		driveQueue(t, genOps(seed, 3000))
	}
}

// FuzzEventQueue feeds arbitrary op streams to the same checker. Plain
// `go test` runs the seed corpus: the generated streams below, whose cancels
// include stale Timers of recycled events, plus the committed files under
// testdata/fuzz, which pin the shapes that once broke a prototype (cancelled
// tail then a push below ref; a bounded pop that must not drag ref along; a
// burst that outgrows the minimum array).
func FuzzEventQueue(f *testing.F) {
	for seed := uint64(100); seed < 104; seed++ {
		f.Add(genOps(seed, 400))
	}
	f.Fuzz(driveQueue)
}

// TestQueueArraysAreExchanged checks the memory side of the design. Which
// buckets a burst passes through depends on the bits of ref, so as the clock
// crosses power-of-two boundaries ever new buckets fill; they must take over
// the arrays the drained ones gave back rather than each growing and keeping
// one of its own high-water size.
func TestQueueArraysAreExchanged(t *testing.T) {
	var q eventQueue
	const n = 4096
	ev := &event{}
	for k := uint(22); k <= 40; k++ {
		base := q.ref + 1<<k
		for i := 0; i < n; i++ {
			q.add(slot{at: base + Time(i)*Time(time.Microsecond), ev: ev})
		}
		for q.mask != 0 {
			q.popAtMost(math.MaxInt64)
		}
		checkInvariant(t, &q)
	}
	held := 0
	for _, b := range q.bucket {
		held += cap(b)
	}
	for _, sp := range q.spare {
		for _, a := range sp {
			held += cap(a)
		}
	}
	// The burst's own array, the arrays it doubled through, and the halves
	// it splits into on the way down: about 4.5 n. Per-bucket high-water
	// arrays would come to over 20 n here.
	if held > 6*n {
		t.Errorf("queue holds %d slots of capacity after bursts of %d, want at most %d", held, n, 6*n)
	}
}

// TestCancelledHeadDrain checks lazy cancel at the head of the queue:
// cancelled events stay queued until a run passes them, and RunUntil pops
// them without running them, counting them or moving the clock to their
// timestamps.
func TestCancelledHeadDrain(t *testing.T) {
	eng := NewEngine(1)
	fired := 0
	var firedAt Time
	var dead []Timer
	for i := 0; i < 6; i++ {
		dead = append(dead, eng.Schedule(time.Duration(1+i/2)*time.Millisecond, func() { t.Error("cancelled event fired") }))
	}
	eng.Schedule(3*time.Millisecond, func() { fired, firedAt = fired+1, eng.Now() }) // ties with the last cancelled pair
	tail := eng.Schedule(9*time.Millisecond, func() { t.Error("cancelled tail fired") })
	for _, tm := range dead {
		tm.Cancel()
	}
	if pending(eng) != 8 {
		t.Errorf("pending = %d before any run, want 8 (cancel sweeps nothing)", pending(eng))
	}

	// A run that stops short of the live event sweeps the two cancelled
	// pairs due before it and nothing else.
	eng.RunUntil(Time(2 * time.Millisecond))
	if pending(eng) != 4 || eng.Processed() != 0 {
		t.Errorf("pending = %d, processed = %d at 2ms; want 4, 0", pending(eng), eng.Processed())
	}

	tail.Cancel()
	eng.RunUntil(Time(20 * time.Millisecond))
	if fired != 1 || firedAt != Time(3*time.Millisecond) || eng.Processed() != 1 {
		t.Errorf("fired = %d at %v, processed = %d; want 1 at 3ms, 1 (cancelled events are not processed)", fired, firedAt, eng.Processed())
	}
	if pending(eng) != 0 || eng.Now() != Time(20*time.Millisecond) {
		t.Errorf("pending = %d, clock = %v; want 0, 20ms", pending(eng), eng.Now())
	}

	// A queue holding only cancelled events drains to empty through RunUntil
	// alone, and the clock lands on the target, not on their timestamps.
	eng.Schedule(time.Millisecond, func() { t.Error("cancelled event fired") }).Cancel()
	eng.RunUntil(Time(30 * time.Millisecond))
	if pending(eng) != 0 || eng.Now() != Time(30*time.Millisecond) {
		t.Errorf("pending = %d, clock = %v; want 0, 30ms", pending(eng), eng.Now())
	}
}

// TestPooledHandleReuse checks an event coming back from the free-list
// carries nothing over from its last use: not the argument-style callback,
// not the cancel flag, and not the generation its old Timer names.
func TestPooledHandleReuse(t *testing.T) {
	eng := NewEngine(1)
	old := eng.ScheduleArg(time.Millisecond, func(any) {}, "stale")
	first := old.ev
	eng.Run()
	if len(eng.events.Idle()) != 1 || eng.events.Idle()[0] != first || first.gen == old.gen {
		t.Fatalf("fired event not on the free-list under a new generation (free=%d)", len(eng.events.Idle()))
	}

	// Same event, now in closure form: the stale afn must not shadow fn.
	ran := false
	if eng.Schedule(time.Millisecond, func() { ran = true }).ev != first {
		t.Fatal("Schedule did not reuse the recycled event")
	}
	eng.Run()
	if !ran {
		t.Error("reused event did not run its new callback")
	}

	// Cancelled while queued, swept, reused: the flag must not survive.
	eng.Schedule(time.Millisecond, func() { t.Error("cancelled event fired") }).Cancel()
	eng.Run()
	ran = false
	if eng.Schedule(time.Millisecond, func() { ran = true }).ev != first {
		t.Fatal("Schedule did not reuse the swept event")
	}
	eng.Run()
	if !ran {
		t.Error("event reused after a cancelled sweep did not fire")
	}
}

// TestTickerReusesItsEvent checks a lone ticker cycles one event for its
// whole life: each tick's event is recycled before the handler runs and the
// re-arm takes it straight back, so the queue holds that one event, due at
// the next firing. Stopping between ticks leaves exactly it, cancelled, to
// drain back to the free-list.
func TestTickerReusesItsEvent(t *testing.T) {
	eng := NewEngine(1)
	ticks := 0
	tk := NewTicker(eng, 10*time.Millisecond, func() { ticks++ })
	ev := tk.timer.ev
	for i := 1; i <= 3; i++ {
		eng.RunUntil(Time(time.Duration(i) * 10 * time.Millisecond))
		if tk.timer.ev != ev || pending(eng) != 1 || queued(eng)[0].ev != ev {
			t.Fatalf("tick %d: ticker is not re-queueing its one event", i)
		}
		want := Time(time.Duration(i+1) * 10 * time.Millisecond)
		if at := queued(eng)[0].at; at != want {
			t.Errorf("tick %d: next firing at %v, want %v", i, at, want)
		}
	}
	tk.Stop() // between ticks
	tk.Stop()
	eng.Run()
	if ticks != 3 || pending(eng) != 0 || len(eng.events.Idle()) != 1 || eng.events.Idle()[0] != ev {
		t.Errorf("ticks = %d, pending = %d, free = %d; want 3, 0, the ticker's event", ticks, pending(eng), len(eng.events.Idle()))
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
