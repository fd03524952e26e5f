package sim

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
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

// rec80 is an 80-byte record that holds pointers, the shape of a packet.
type rec80 struct {
	p *int
	x [9]int64
}

// TestPoolMatchesStackModel drives a Pool beside a slice-stack model with
// seeded interleavings of Take and Put: Take returns what the model's top
// holds, last put first, and with nothing resting a record never handed
// out before, zeroed. Put keeps whatever the record holds, Idle lists the
// resting records in model order, and Outstanding counts the taken ones.
func TestPoolMatchesStackModel(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := NewRNG(seed)
		var p Pool[rec80]
		var model, out []*rec80 // resting in model order; taken and not put
		tag := make(map[*rec80]int64)
		for op := int64(1); op <= 4000; op++ {
			if len(out) == 0 || rng.Float64() < 0.55 {
				r := p.Take()
				if n := len(model); n > 0 {
					if r != model[n-1] {
						t.Fatalf("seed %d op %d: Take is not last-in first-out", seed, op)
					}
					if r.x[0] != tag[r] || r.p == nil {
						t.Fatalf("seed %d op %d: a resting record lost its contents", seed, op)
					}
					model = model[:n-1]
				} else {
					if _, seen := tag[r]; seen {
						t.Fatalf("seed %d op %d: an empty pool handed out a record it had already given", seed, op)
					}
					if *r != (rec80{}) {
						t.Fatalf("seed %d op %d: fresh record not zeroed: %+v", seed, op, *r)
					}
				}
				r.p, r.x[0], tag[r] = new(int), op, op
				out = append(out, r)
			} else {
				i := rng.Intn(len(out))
				r := out[i]
				out[i], out = out[len(out)-1], out[:len(out)-1]
				p.Put(r)
				model = append(model, r)
			}
			if n := p.Outstanding(); n != len(out) {
				t.Fatalf("seed %d op %d: %d records outstanding, model has %d", seed, op, n, len(out))
			}
			idle := p.Idle()
			if len(idle) != len(model) {
				t.Fatalf("seed %d op %d: %d records idle, model holds %d", seed, op, len(idle), len(model))
			}
			for i := range idle {
				if idle[i] != model[i] {
					t.Fatalf("seed %d op %d: idle record %d differs from the model", seed, op, i)
				}
			}
		}
	}
}

// refillBytes measures what carving slab k of a Pool[T] allocates,
// averaged over fresh pools and the least of three rounds (a stray runtime
// allocation inflates a round), and the records that slab holds.
func refillBytes[T any](k int) (bytes uint64, n int) {
	const runs = 64
	bytes = ^uint64(0)
	for round := 0; round < 3; round++ {
		pools := make([]Pool[T], runs)
		for i := range pools {
			pools[i].slabs = k
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := range pools {
			pools[i].fresh()
		}
		runtime.ReadMemStats(&m1)
		bytes, n = min(bytes, (m1.TotalAlloc-m0.TotalAlloc)/runs), len(pools[0].slab)+1
	}
	return bytes, n
}

// spills reports whether an allocation of got bytes for n records of size
// bytes left room for one more record beside the payload and the 8-byte
// allocation header: the slab spilled into a size class a record larger.
func spills(got uint64, n int, size uintptr) bool {
	return got >= uint64(n+1)*uint64(size)+8
}

// checkSlabs holds the first eight slabs of a Pool[T] to their size class.
func checkSlabs[T any](t *testing.T) {
	var zero T
	size := unsafe.Sizeof(zero)
	for k := 0; k < 8; k++ {
		got, n := refillBytes[T](k)
		if n < 1 || spills(got, n, size) {
			t.Errorf("%d-byte records: slab %d holds %d records in %d bytes, room for another beside the header", size, k, n, got)
		}
	}
}

// TestPoolSlabsFitSizeClass holds every slab of pointerful records of
// several sizes to the allocator's size class: a slab spends its bytes on
// records and, above 512 bytes, the 8-byte header, never on a hole a record
// would fit. The control measures a hand-sized 16 x 80-byte slab: 1,280
// bytes of records plus the header land in the 1,408-byte class, and the
// check must catch it.
func TestPoolSlabsFitSizeClass(t *testing.T) {
	var m0, m1 runtime.MemStats
	sink := make([][]rec80, 64)
	runtime.ReadMemStats(&m0)
	for i := range sink {
		sink[i] = make([]rec80, 16)
	}
	runtime.ReadMemStats(&m1)
	if got := (m1.TotalAlloc - m0.TotalAlloc) / uint64(len(sink)); !spills(got, 16, unsafe.Sizeof(rec80{})) {
		t.Fatalf("control: 16 x 80-byte slab allocated %d bytes and passed the check", got)
	}
	checkSlabs[event](t)
	checkSlabs[rec80](t)
	checkSlabs[struct{ p *int }](t)
	checkSlabs[struct {
		p *int
		x [24]int64
	}](t)
	checkSlabs[struct {
		p *int
		x [150]int64
	}](t)
}
