package telemetry

import (
	"fmt"
	"math/bits"
	"time"
)

// Event is one timeline entry: something that happened at a point in
// virtual time (a session state change, a bearer activation, a handover).
type Event struct {
	// At is the virtual time of the event, as a duration since the
	// simulation epoch (sim.Time and time.Duration are interconvertible).
	At time.Duration
	// Scope locates the emitter ("epc/session/<imsi>").
	Scope string
	// Name is the event kind ("state", "bearer", "handover").
	Name string
	// Detail is free-form annotation ("connected", "ebi=6 qci=3").
	Detail string
}

// record is how the timeline stores one Event: 32 bytes, with the scope and
// name pair interned as kind.
type record struct {
	at     time.Duration
	kind   uint32 // index into the log's eventKey table
	detail string
}

// eventKey is one interned (scope, name) pair.
type eventKey struct{ scope, name string }

// The timeline's chunk layout: chunk c < chunkDoublings holds firstChunk<<c
// records, every later chunk maxChunk (128 KiB). A registry that emits a
// few events pays for a few; a long run grows by whole chunks and never
// copies one, so a snapshot can share them.
const (
	firstChunk     = 8
	chunkDoublings = 9
	maxChunk       = firstChunk << chunkDoublings
	// doubledRecords is the capacity of the doubling chunks together.
	doubledRecords = firstChunk * (1<<chunkDoublings - 1)
)

// chunkLen is the capacity of chunk c.
func chunkLen(c int) int { return firstChunk << min(c, chunkDoublings) }

// locate maps record index i to its chunk and offset in that chunk.
func locate(i int) (chunk, off int) {
	if i < doubledRecords {
		c := bits.Len(uint(i/firstChunk+1)) - 1
		return c, i - firstChunk*(1<<c-1)
	}
	i -= doubledRecords
	return chunkDoublings + i/maxChunk, i % maxChunk
}

// Emit appends a timeline event stamped with the current virtual time.
//
//acacia:hotpath
func (r *Registry) Emit(scope, name, detail string) {
	kind, ok := r.eventKinds[eventKey{scope, name}]
	if !ok {
		kind = r.internEvent(eventKey{scope, name})
	}
	if len(r.tail) == 0 {
		r.growTimeline()
	}
	r.tail[0] = record{at: r.clock(), kind: kind, detail: detail}
	r.tail = r.tail[1:]
	r.nEvents++
}

// internEvent gives a new (scope, name) pair the next kind. Noinline, like
// growTimeline, keeps Emit free of allocation sites.
//
//go:noinline
func (r *Registry) internEvent(k eventKey) uint32 {
	if r.eventKinds == nil {
		r.eventKinds = make(map[eventKey]uint32)
	}
	kind := uint32(len(r.eventKeys))
	r.eventKeys = append(r.eventKeys, k)
	r.eventKinds[k] = kind
	return kind
}

// growTimeline appends the next chunk once the last one is full. The chunk
// list starts with room for the doubling chunks and the first full one, so
// it does not regrow while they fill.
//
//go:noinline
func (r *Registry) growTimeline() {
	if r.chunks == nil {
		r.chunks = make([][]record, 0, chunkDoublings+1)
	}
	r.tail = make([]record, chunkLen(len(r.chunks)))
	r.chunks = append(r.chunks, r.tail)
}

// Events returns the timeline in emission (= virtual-time) order, as a view
// of the registry's log: nothing is copied, and later emits do not show
// through.
func (r *Registry) Events() Timeline {
	return Timeline{
		chunks: r.chunks[:len(r.chunks):len(r.chunks)],
		keys:   r.eventKeys[:len(r.eventKeys):len(r.eventKeys)],
		n:      r.nEvents,
	}
}

// Timeline is a read-only view of an event log: Len events, read by At.
// The zero value is empty. A view shares its records with the log it was
// taken from, so it costs nothing to take and stays valid, and unchanged,
// after the registry emits more or is gone.
type Timeline struct {
	chunks [][]record
	keys   []eventKey
	// lo is the log index of the view's first event (a Delta's views start
	// past the earlier snapshot's events); n is the view's length.
	lo, n int
}

// Len reports the number of events in the view.
func (t Timeline) Len() int { return t.n }

// At returns the view's i-th event.
func (t Timeline) At(i int) Event {
	rec := t.record(i)
	k := t.keys[rec.kind]
	return Event{At: rec.at, Scope: k.scope, Name: k.name, Detail: rec.detail}
}

// record returns the stored record of the view's i-th event.
func (t Timeline) record(i int) *record {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("telemetry: event %d of a %d-event timeline", i, t.n))
	}
	c, off := locate(t.lo + i)
	return &t.chunks[c][off]
}

// from returns the view's events from index i on.
func (t Timeline) from(i int) Timeline {
	if i >= t.n {
		return Timeline{}
	}
	t.lo += i
	t.n -= i
	return t
}
