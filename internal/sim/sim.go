// Package sim provides a deterministic discrete-event simulation engine.
//
// All ACACIA experiments run in virtual time: entities schedule events on a
// shared Engine, and the engine advances a virtual clock from event to event.
// This makes latency measurements exact and runs reproducible — two runs with
// the same seed produce identical results, regardless of host load.
//
// The engine is intentionally single-threaded: handlers run one at a time in
// timestamp order (ties broken by scheduling order), so entity state needs no
// locking. Concurrency in the simulated system is expressed by scheduling,
// not by goroutines.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"acacia/internal/telemetry"
)

// Time is a point in virtual time, measured as a duration since the start of
// the simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Common virtual-time unit helpers.
const (
	Nanosecond  Time = Time(time.Nanosecond)
	Microsecond Time = Time(time.Microsecond)
	Millisecond Time = Time(time.Millisecond)
	Second      Time = Time(time.Second)
)

// Duration converts t to a time.Duration since the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Milliseconds reports t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(time.Duration(t)) / float64(time.Millisecond) }

// Add returns t shifted forward by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// String formats t as a duration since the epoch.
func (t Time) String() string { return time.Duration(t).String() }

// event is a scheduled callback. Events are one-shot; recurring behaviour is
// built by re-scheduling from within the handler. Every event comes from the
// engine's free-list and goes back to it once it has fired or, cancelled, been
// popped.
//
// An event carries no queue position. Cancel is lazy — it only sets a flag
// the engine checks when the event is popped — so nothing ever needs to find
// or move an event inside the queue, and the ordering key lives in the queue
// slot instead.
type event struct {
	fn func()
	// afn/arg are the pre-bound form ScheduleArg uses: a method value
	// captured once at construction plus a per-call argument, so scheduling
	// allocates no closure. When afn is non-nil it takes precedence over fn.
	afn func(any)
	arg any
	// gen counts the event's recycles, so a Timer from an earlier use no
	// longer matches it.
	gen    uint64
	cancel bool
}

// Timer is the handle Schedule and ScheduleArg return. It names one use of a
// pooled event: once that event has fired, or been cancelled and popped, it is
// recycled under a new generation, and the Timer no longer reaches it. The
// zero Timer names nothing.
type Timer struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing. Cancelling a fired, cancelled or
// zero Timer is a no-op, and never touches whatever event the pool has since
// reused. Cancel must be called from simulation context (i.e. from within a
// handler or before Run).
func (t Timer) Cancel() {
	if t.ev != nil && t.ev.gen == t.gen {
		t.ev.cancel = true
	}
}

// slot is one queue entry; filing and refilling never dereference the event.
type slot struct {
	at Time
	ev *event
}

const minBucket = 16 // slots in the smallest bucket array; capacities double

// eventQueue is a monotone radix queue popping slots in (timestamp, push
// order) order — the (at, seq) order of a sequence number drawn per push.
// Invariant: every queued slot has at >= ref and sits in bucket
// bits.Len64(at ^ ref): bucket 0 holds the slots due exactly at ref, bucket
// i > 0 those whose highest bit differing from ref is bit i-1. Those are
// disjoint, ascending time ranges, so the earliest slot is in the lowest
// occupied bucket. Equal timestamps always share a bucket, and whatever
// moves slots (add appends; refill and rebase re-file a bucket front to
// back) keeps them in push order, so bucket 0 read front to back is FIFO
// with no sequence number stored or compared. DESIGN.md "The event queue".
type eventQueue struct {
	ref    Time
	mask   uint64 // bit i set iff bucket[i] holds an unpopped slot
	head   int    // bucket[0][:head] is already popped
	bucket [64][]slot
	// spare[c] holds idle bucket arrays of capacity 1<<c, so that buckets
	// exchange arrays instead of each keeping one of its high-water size.
	spare [32][][]slot
}

// add files s in the bucket its timestamp selects, behind what is there.
//
//acacia:hotpath
func (q *eventQueue) add(s slot) {
	if s.at < q.ref {
		q.rebase(s.at)
	}
	i := bits.Len64(uint64(s.at ^ q.ref))
	b := q.bucket[i]
	if len(b) == cap(b) {
		b = q.grow(b)
	}
	b = b[:len(b)+1]
	b[len(b)-1] = s
	q.bucket[i] = b
	q.mask |= 1 << uint(i)
}

// grow moves a full bucket into a spare or new array of twice the capacity.
// Noinline keeps the allocation out of the hotpath callers' escape profiles.
//
//go:noinline
func (q *eventQueue) grow(b []slot) []slot {
	n := max(2*cap(b), minBucket)
	sp := &q.spare[bits.Len(uint(n))-1]
	var nb []slot
	if k := len(*sp); k > 0 {
		nb, *sp = (*sp)[k-1][:len(b)], (*sp)[:k-1]
	} else {
		nb = make([]slot, len(b), n)
	}
	copy(nb, b)
	if cap(b) > 0 {
		q.retire(b)
	}
	return nb
}

// retire parks an emptied bucket array on the spare list, cleared so that it
// pins no fired event while it waits there.
func (q *eventQueue) retire(b []slot) {
	clear(b)
	sp := &q.spare[bits.Len(uint(cap(b)))-1]
	*sp = append(*sp, b[:0])
}

// empty marks bucket i drained. A minimum-size array stays with the bucket;
// a larger one is retired for whichever bucket grows next.
//
//acacia:hotpath
func (q *eventQueue) empty(i int, b []slot) {
	if cap(b) > minBucket {
		q.retire(b)
		b = nil
	}
	q.bucket[i] = b[:0]
	q.mask &^= 1 << uint(i)
}

// popAtMost removes and returns the earliest slot if it is due by limit. It
// never moves ref past limit: what is scheduled next must find at >= ref.
//
//acacia:hotpath
func (q *eventQueue) popAtMost(limit Time) (slot, bool) {
	if q.mask&1 == 0 {
		if q.mask == 0 {
			return slot{}, false
		}
		i := bits.TrailingZeros64(q.mask)
		b := q.bucket[i]
		if len(b) == 1 {
			// A lone slot is the minimum; sparse queues (a link with one
			// packet in flight) take this path for nearly every event.
			s := b[0]
			if s.at > limit {
				return slot{}, false
			}
			q.ref = s.at
			q.empty(i, b)
			return s, true
		}
		if !q.refill(i, b, limit) {
			return slot{}, false
		}
	}
	if q.ref > limit {
		return slot{}, false
	}
	b := q.bucket[0]
	s := b[q.head]
	q.head++
	if q.head == len(b) {
		q.head = 0
		q.empty(0, b)
	}
	return s, true
}

// refill advances ref to the earliest timestamp in b — bucket i, the lowest
// occupied one — unless that is past limit, and re-files b's slots. They
// agree with the new ref from bit i-1 up, so each lands in a lower bucket
// (all empty until now) in the order it had in b. Higher buckets stay
// valid: the new ref differs from the old one only below bit i.
//
//acacia:hotpath
func (q *eventQueue) refill(i int, b []slot, limit Time) bool {
	min := b[0].at
	for _, s := range b[1:] {
		if s.at < min {
			min = s.at
		}
	}
	if min > limit {
		return false
	}
	q.ref = min
	for _, s := range b {
		q.add(s)
	}
	q.empty(i, b)
	return true
}

// live returns the unpopped slots of bucket i.
func (q *eventQueue) live(i int) []slot {
	if i == 0 {
		return q.bucket[0][q.head:]
	}
	return q.bucket[i]
}

// rebase lowers ref to at, for an add below it: popping a cancelled event
// moves ref but not the clock, so Run draining to a cancelled timer leaves a
// gap. Re-filing every bucket front to back keeps ties in push order.
//
//go:noinline
func (q *eventQueue) rebase(at Time) {
	var queued []slot
	for m := q.mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		queued = append(queued, q.live(i)...)
		q.bucket[i] = q.bucket[i][:0]
	}
	q.head, q.mask, q.ref = 0, 0, at
	for _, s := range queued {
		q.add(s)
	}
}

// Engine is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now     Time
	queue   eventQueue
	rng     *RNG
	stopped bool
	// free is the engine-owned event free-list every scheduling call draws
	// from. Hanging it off the engine (never a package global) keeps trials
	// isolated: concurrent trials each recycle only their own events, so
	// pooling cannot perturb the byte-identity of seeded runs.
	free []*event
	// Processed counts events whose handlers have run.
	processed uint64
	// Limit, when non-zero, aborts Run after this many events as a runaway
	// guard. Runs that legitimately need more should raise it.
	Limit uint64
	// metrics is the engine-scoped telemetry registry every layer built on
	// this engine registers into.
	metrics *telemetry.Registry
}

// NewEngine returns an engine with its clock at the epoch and a deterministic
// random source derived from seed.
func NewEngine(seed uint64) *Engine {
	e := &Engine{rng: NewRNG(seed), Limit: 500_000_000, metrics: telemetry.New()}
	e.metrics.SetClock(func() time.Duration { return time.Duration(e.now) })
	return e
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Metrics returns the engine's telemetry registry: the single namespace all
// layers (netsim, sdn, epc, d2d, core) register their counters, gauges,
// histograms and timeline events into. Snapshots of it are the "everything
// that happened this run" view the experiments export.
func (e *Engine) Metrics() *telemetry.Registry { return e.metrics }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// Processed reports how many events have been executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Schedule runs fn after delay d (>= 0) of virtual time and returns a Timer
// that can cancel it. Callers that never cancel ignore the result.
//
//acacia:hotpath
func (e *Engine) Schedule(d time.Duration, fn func()) Timer {
	if d < 0 {
		badDelay(d)
	}
	return e.enqueue(e.now.Add(d), fn, nil, nil)
}

// ScheduleArg runs fn(arg) after delay d of virtual time, like Schedule. fn
// is typically a method value bound once at construction time and arg the
// per-call datum (a packet, a transaction), so the per-call cost is zero
// allocations: no event (pooled), no closure (pre-bound fn), and no boxing
// when arg is pointer-shaped.
//
//acacia:hotpath
func (e *Engine) ScheduleArg(d time.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		badDelay(d)
	}
	return e.enqueue(e.now.Add(d), nil, fn, arg)
}

// After is Schedule without the Timer. It exists only because the
// end-to-end benchmark's hold-model probe calls it.
func (e *Engine) After(d time.Duration, fn func()) { e.Schedule(d, fn) }

// enqueue is the one way into the queue: it fills a free-list event and adds
// its slot for time at. Every scheduling API ends here, which is what makes
// them share one FIFO tie-break order.
//
//acacia:hotpath
func (e *Engine) enqueue(at Time, fn func(), afn func(any), arg any) Timer {
	ev := e.takeEvent()
	ev.fn, ev.afn, ev.arg = fn, afn, arg
	e.queue.add(slot{at: at, ev: ev})
	return Timer{ev: ev, gen: ev.gen}
}

// takeEvent pops a recycled event from the free-list, or allocates one.
//
//acacia:hotpath
func (e *Engine) takeEvent() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return newEvent()
}

// newEvent is takeEvent's pool-miss refill path. Noinline keeps the
// unavoidable allocation out of the hotpath callers' escape profiles.
//
//go:noinline
func newEvent() *event {
	return &event{}
}

// recycle returns an event to the free-list once it can no longer fire:
// after it fired, or when it is popped cancelled. Bumping gen retires every
// Timer issued for the use that just ended.
//
//acacia:hotpath
func (e *Engine) recycle(ev *event) {
	*ev = event{gen: ev.gen + 1}
	e.free = append(e.free, ev)
}

// badDelay is noinline: inlined into a hotpath caller, its Sprintf boxing
// would count as an allocation inside the caller's line range and trip the
// hotpath-escape gate.
//
//go:noinline
func badDelay(d time.Duration) {
	panic(fmt.Sprintf("sim: negative delay %v", d))
}

// Stop makes Run return after the currently executing handler completes.
// Pending events remain queued and would run if Run were called again.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue drains, Stop is
// called, or the event limit is hit (which panics, as it indicates a
// scheduling loop).
func (e *Engine) Run() {
	e.stopped = false
	e.run(math.MaxInt64)
}

// RunUntil executes events with timestamps <= t and then sets the clock to t.
// Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	e.run(t)
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d of virtual time from the current clock.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

// run fires events with timestamps <= limit until none is left or Stop.
//
//acacia:hotpath
func (e *Engine) run(limit Time) {
	for !e.stopped {
		s, ok := e.queue.popAtMost(limit)
		if !ok {
			return
		}
		ev := s.ev
		if ev.cancel {
			e.recycle(ev)
			continue
		}
		e.now = s.at
		e.processed++
		if e.Limit != 0 && e.processed > e.Limit {
			e.limitExceeded()
		}
		// Copy the callback out before recycling so the handler may
		// immediately reuse the event slot for its own scheduling.
		fn, afn, arg := ev.fn, ev.afn, ev.arg
		e.recycle(ev)
		if afn != nil {
			afn(arg)
		} else {
			fn()
		}
	}
}

//go:noinline
func (e *Engine) limitExceeded() {
	panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v (scheduling loop?)", e.Limit, e.now))
}

// NextEventAt returns the timestamp of the earliest pending event that has
// not been cancelled, if any. It only reads: ref moves inside runs only.
func (e *Engine) NextEventAt() (Time, bool) {
	for m := e.queue.mask; m != 0; m &= m - 1 {
		best, ok := Time(0), false
		for _, s := range e.queue.live(bits.TrailingZeros64(m)) {
			if !s.ev.cancel && (!ok || s.at < best) {
				best, ok = s.at, true
			}
		}
		if ok {
			return best, true
		}
	}
	return 0, false
}

// Ticker repeatedly invokes a handler at a fixed virtual-time period until
// stopped. It is the simulation analog of time.Ticker.
type Ticker struct {
	eng    *Engine
	period time.Duration
	fn     func()
	// tickF is tick bound once at construction, so re-arming through
	// Schedule allocates nothing; timer is the pending tick.
	tickF func()
	timer Timer
	done  bool
}

// NewTicker schedules fn every period, with the first firing after one full
// period. Period must be positive.
func NewTicker(eng *Engine, period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{eng: eng, period: period, fn: fn}
	t.tickF = t.tick
	t.arm()
	return t
}

//acacia:hotpath
func (t *Ticker) arm() {
	t.timer = t.eng.Schedule(t.period, t.tickF)
}

func (t *Ticker) tick() {
	if t.done {
		return
	}
	t.fn()
	if !t.done {
		t.arm()
	}
}

// Stop halts future firings. It may be called from within the handler.
func (t *Ticker) Stop() {
	t.done = true
	t.timer.Cancel()
}

// RNG is a small, fast, deterministic random source (xoshiro256**). It is
// independent of math/rand so simulation results cannot drift with Go
// releases.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal deviate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		if u1 == 0 {
			continue
		}
		u2 := r.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// ExpFloat64 returns an exponential deviate with mean 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		return -math.Log(u)
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork derives an independent generator whose stream is a deterministic
// function of the parent's current state and the label. Useful for giving
// each simulated entity its own stream so adding entities does not perturb
// others.
func (r *RNG) Fork(label string) *RNG {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return NewRNG(r.Uint64() ^ h)
}
