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

// Event is a scheduled callback. Events are one-shot; recurring behaviour is
// built by re-scheduling from within the handler.
//
// An Event carries no queue position. Cancel is lazy — it only sets a flag
// the engine checks when the event reaches the head of the queue — so
// nothing ever needs to find or move an event inside the heap, and the
// ordering key (at, seq) lives in the queue slot instead.
type Event struct {
	at Time
	fn func()
	// afn/arg are the pre-bound form used by the pooled hot-path APIs
	// (After/AfterArg): a method value captured once at construction plus a
	// per-call argument, so scheduling allocates no closure. When afn is
	// non-nil it takes precedence over fn.
	afn    func(any)
	arg    any
	cancel bool
	// pooled marks events owned by the engine's free-list. They have no
	// outside handle (After returns nothing), so after firing they are
	// reset and recycled.
	pooled bool
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancel must be called from simulation
// context (i.e. from within a handler or before Run).
func (e *Event) Cancel() {
	if e != nil {
		e.cancel = true
	}
}

// Cancelled reports whether Cancel was called on the event.
func (e *Event) Cancelled() bool { return e != nil && e.cancel }

// At reports the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// slot is one queue entry. The ordering key is held by value so sifting
// compares and moves slots without dereferencing an Event.
type slot struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	ev  *Event
}

func (a slot) before(b slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of slots ordered by (at, seq). Four children
// per node halve the depth of a binary heap, and a node's children share one
// or two cache lines, which is what pop's sift-down walks. seq is unique, so
// the order is total and the pop sequence does not depend on the heap shape.
type eventQueue []slot

//acacia:hotpath
func (q *eventQueue) push(s slot) {
	h := append(*q, s)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = s
	*q = h
}

// pop removes and returns the minimum slot. The queue must be non-empty.
//
//acacia:hotpath
func (q *eventQueue) pop() slot {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = slot{}
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		small := c
		for j := c + 1; j < end; j++ {
			if h[j].before(h[small]) {
				small = j
			}
		}
		if !h[small].before(last) {
			break
		}
		h[i] = h[small]
		i = small
	}
	h[i] = last
	return top
}

// Engine is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now     Time
	queue   eventQueue
	seq     uint64
	rng     *RNG
	stopped bool
	// free is the engine-owned event free-list backing After/AfterArg.
	// Hanging it off the engine (never a package global) keeps trials
	// isolated: concurrent trials each recycle only their own events, so
	// pooling cannot perturb the byte-identity of seeded runs.
	free []*Event
	// Processed counts events whose handlers have run.
	processed uint64
	// Limit, when non-zero, aborts Run after this many events as a runaway
	// guard. Runs that legitimately need more should raise it.
	Limit uint64
	// metrics is the engine-scoped telemetry registry every layer built on
	// this engine registers into.
	metrics *telemetry.Registry
	// part is non-nil when the engine belongs to a Cluster (see cluster.go):
	// it identifies the partition for cross-partition sends.
	part *partition
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

// Schedule runs fn after delay d (>= 0) of virtual time and returns the
// event handle, which may be used to cancel it.
func (e *Engine) Schedule(d time.Duration, fn func()) *Event {
	if d < 0 {
		badDelay(d)
	}
	return e.ScheduleAt(e.now.Add(d), fn)
}

// ScheduleAt runs fn at absolute virtual time t, which must not be in the
// past.
func (e *Engine) ScheduleAt(t Time, fn func()) *Event {
	if t < e.now {
		badTime(t, e.now)
	}
	ev := &Event{fn: fn}
	e.enqueue(t, ev)
	return ev
}

// ScheduleArg runs fn(arg) after delay d of virtual time and returns the
// event handle, like Schedule. fn is typically a method value bound once at
// construction time and arg the per-call datum, so a cancellable timer can
// be armed without allocating a closure per call. The handle-bearing Event
// itself is still allocated (callers may retain it); fully pooled
// scheduling requires giving up the handle — see After/AfterArg.
//
// Firing order is identical to Schedule: all scheduling APIs share one
// sequence counter.
//
//acacia:hotpath
func (e *Engine) ScheduleArg(d time.Duration, fn func(any), arg any) *Event {
	if d < 0 {
		badDelay(d)
	}
	//acacia:allow hotpath-escape handle-bearing event: callers may retain the returned *Event to cancel it, so it cannot come from the free-list (see doc comment)
	ev := &Event{afn: fn, arg: arg}
	e.enqueue(e.now.Add(d), ev)
	return ev
}

// After runs fn after delay d of virtual time, like Schedule, but returns no
// handle: the event cannot be cancelled, which lets the engine recycle it
// through its free-list after it fires. Hot paths that never cancel (link
// transmit completions, CPU service, packet delivery) use this to schedule
// without allocating.
//
// Firing order is identical to Schedule: After and Schedule share one
// sequence counter, so interleaving the two APIs cannot reorder events.
//
//acacia:hotpath
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		badDelay(d)
	}
	e.enqueuePooled(e.now.Add(d), fn, nil, nil)
}

// AfterArg runs fn(arg) after delay d of virtual time through the event
// free-list. fn is typically a method value bound once at construction time
// and arg the per-call datum (a packet, a frame), so the per-call cost is
// zero allocations: no Event (pooled), no closure (pre-bound fn), and no
// boxing when arg is pointer-shaped.
//
//acacia:hotpath
func (e *Engine) AfterArg(d time.Duration, fn func(any), arg any) {
	if d < 0 {
		badDelay(d)
	}
	e.enqueuePooled(e.now.Add(d), nil, fn, arg)
}

// enqueuePooled queues a free-list event for time at. It backs the
// handle-less APIs: After, AfterArg and the cluster's barrier delivery.
//
//acacia:hotpath
func (e *Engine) enqueuePooled(at Time, fn func(), afn func(any), arg any) {
	ev := e.takeEvent()
	ev.fn = fn
	ev.afn = afn
	ev.arg = arg
	e.enqueue(at, ev)
}

// enqueue is the one way into the queue: it stamps ev with its firing time,
// draws the next sequence number and pushes the slot. Every scheduling API
// ends here, which is what makes them share one FIFO tie-break order. ev
// must not already be queued.
//
//acacia:hotpath
func (e *Engine) enqueue(at Time, ev *Event) {
	ev.at = at
	e.queue.push(slot{at: at, seq: e.seq, ev: ev})
	e.seq++
}

// takeEvent pops a recycled event from the free-list, or allocates one.
//
//acacia:hotpath
func (e *Engine) takeEvent() *Event {
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
func newEvent() *Event {
	return &Event{pooled: true}
}

// recycle returns a pooled event to the free-list once it can no longer
// fire. Handle-bearing events (Schedule/ScheduleAt) are never recycled:
// their callers may still inspect them.
//
//acacia:hotpath
func (e *Engine) recycle(ev *Event) {
	if !ev.pooled {
		return
	}
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.cancel = false
	e.free = append(e.free, ev)
}

// The panic helpers are marked noinline: inlined into a hotpath caller,
// their Sprintf boxing would count as an allocation inside the caller's
// line range and trip the hotpath-escape gate.
//
//go:noinline
func badDelay(d time.Duration) {
	panic(fmt.Sprintf("sim: negative delay %v", d))
}

//go:noinline
func badTime(t, now Time) {
	panic(fmt.Sprintf("sim: schedule at %v before now %v", t, now))
}

// Stop makes Run return after the currently executing handler completes.
// Pending events remain queued and would run if Run were called again.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue drains, Stop is
// called, or the event limit is hit (which panics, as it indicates a
// scheduling loop).
func (e *Engine) Run() {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		e.step()
	}
}

// RunUntil executes events with timestamps <= t and then sets the clock to t.
// Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped && e.queue[0].at <= t {
		e.step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d of virtual time from the current clock.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

//acacia:hotpath
func (e *Engine) step() {
	s := e.queue.pop()
	ev := s.ev
	if ev.cancel {
		e.recycle(ev)
		return
	}
	e.now = s.at
	e.processed++
	if e.Limit != 0 && e.processed > e.Limit {
		e.limitExceeded()
	}
	// Copy the callback out before recycling so the handler may immediately
	// reuse the event slot for its own scheduling.
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	e.recycle(ev)
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
}

//go:noinline
func (e *Engine) limitExceeded() {
	panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v (scheduling loop?)", e.Limit, e.now))
}

// Pending reports the number of queued (possibly cancelled) events.
func (e *Engine) Pending() int { return len(e.queue) }

// NextEventAt returns the timestamp of the earliest pending event and whether
// one exists.
func (e *Engine) NextEventAt() (Time, bool) {
	for len(e.queue) > 0 && e.queue[0].ev.cancel {
		e.recycle(e.queue.pop().ev)
	}
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// Ticker repeatedly invokes a handler at a fixed virtual-time period until
// stopped. It is the simulation analog of time.Ticker.
type Ticker struct {
	eng    *Engine
	period time.Duration
	fn     func()
	// ev is the ticker's one event, bound to tick at construction. A fired
	// event is out of the queue, so every period re-stamps and re-queues
	// this same event: re-arming allocates nothing.
	ev   *Event
	done bool
}

// NewTicker schedules fn every period, with the first firing after one full
// period. Period must be positive.
func NewTicker(eng *Engine, period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{eng: eng, period: period, fn: fn}
	t.ev = &Event{fn: t.tick}
	t.arm()
	return t
}

//acacia:hotpath
func (t *Ticker) arm() {
	t.eng.enqueue(t.eng.now.Add(t.period), t.ev)
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
	t.ev.Cancel()
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
