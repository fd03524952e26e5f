// Package telemetry is the testbed's unified metrics spine: an
// engine-scoped registry of named counters, gauges, histograms and a
// virtual-time event timeline that every simulation layer (netsim, sdn,
// epc, d2d, core) registers into.
//
// Names are hierarchical slash-separated paths — "epc/s1ap/bytes",
// "sdn/edge-sgw-u/fastpath/hits", "core/session/stage/match-ms" — so one
// Snapshot of the registry answers "what happened this session" across all
// layers at once, where the pre-spine code kept four incompatible ad-hoc
// counter structs.
//
// Determinism contract: a Snapshot lists metrics in sorted name order and
// timeline events in emission order (which, under the single-threaded sim
// engine, is virtual-time order). Two runs with the same seed therefore
// render byte-identical snapshots, and snapshots of independent trials
// merge deterministically regardless of scheduling (see MergeSnapshots).
//
// Hot-path contract: Counter.Inc/Add, Gauge.Set and Histogram.Observe on
// an already-registered metric perform no allocation and no map lookup —
// layers resolve *Counter handles once at construction and increment
// through the pointer. Named registration (Registry.Counter etc.) allocates
// the name and a map entry, so it is for metrics shared across emitters
// (every UE's frontend observing into one stage histogram, one switch's
// hit counters). An entity that exists per UE or per link keeps its
// metrics as plain fields instead and registers itself as a Source: that
// costs one slice append, and its names are built on the first Snapshot —
// a registry nobody snapshots names nothing.
//
// The registry is deliberately single-threaded, like the sim engine that
// owns it: each trial builds its own engine and therefore its own registry,
// so no synchronization is needed (the race detector guards this contract
// at the trial-scheduler level).
package telemetry

import (
	"fmt"
	"strconv"
	"time"
)

// smallInts interns the decimal strings of small non-negative integers so
// numeric name components (link indices, port ids) can be rendered without
// allocating. The table is immutable after package init, so sharing it
// across trials cannot couple them.
var smallInts = func() [1024]string {
	var t [1024]string
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return t
}()

// Itoa returns the decimal string of n, interned for small non-negative
// values. Hot paths use it in place of fmt.Sprintf("%d", n) when assembling
// metric names.
//
//acacia:hotpath
func Itoa(n int) string {
	if n >= 0 && n < len(smallInts) {
		return smallInts[n]
	}
	return strconv.Itoa(n)
}

// Kind discriminates metric types in snapshots.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

var kindNames = [...]string{KindCounter: "counter", KindGauge: "gauge", KindHistogram: "histogram"}

// String names the kind.
func (k Kind) String() string {
	if uint(k) < uint(len(kindNames)) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Counter is a monotonically increasing uint64. The zero value is usable
// (a registry-less counter still counts); registered counters are created
// by Registry.Counter.
type Counter struct{ n uint64 }

// Inc adds one.
//
//acacia:hotpath
func (c *Counter) Inc() { c.n++ }

// Add adds delta.
//
//acacia:hotpath
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.n }

// Gauge is a last-observed value (queue depth, cache occupancy).
type Gauge struct{ v float64 }

// Set replaces the value.
//
//acacia:hotpath
func (g *Gauge) Set(v float64) { g.v = v }

// Add shifts the value by delta.
//
//acacia:hotpath
func (g *Gauge) Add(delta float64) { g.v += delta }

// Value reports the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram summarizes a stream of observations with count, sum, min and
// max — enough for deterministic mean/extent reporting without storing
// samples (experiments needing percentiles keep using stats.Sample; the
// registry histogram is the always-on observability view).
type Histogram struct {
	count    uint64
	sum      float64
	min, max float64
}

// Observe records one sample.
//
//acacia:hotpath
func (h *Histogram) Observe(x float64) {
	if h.count == 0 || x < h.min {
		h.min = x
	}
	if h.count == 0 || x > h.max {
		h.max = x
	}
	h.count++
	h.sum += x
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum reports the observation total.
func (h *Histogram) Sum() float64 { return h.sum }

// Min reports the smallest observation (0 when empty).
func (h *Histogram) Min() float64 { return h.min }

// Max reports the largest observation (0 when empty).
func (h *Histogram) Max() float64 { return h.max }

// Registry is one engine's metric namespace. The zero value is not usable;
// call New. sim.NewEngine creates one per engine and wires its clock, so
// layers reach it through Engine.Metrics().
type Registry struct {
	now      func() time.Duration
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// kinds records every registered name for cross-kind collision checks.
	kinds   map[string]Kind
	sources []Source
	// srcScratch is the buffer Snapshot collects source metrics into; it is
	// reused, so a repeated snapshot does not regrow it.
	srcScratch []Metric
	// chunks hold the event timeline (timeline.go), filled in order and
	// never moved, so snapshots share them; tail is the last chunk's
	// unwritten part and nEvents the events emitted.
	chunks  [][]record
	tail    []record
	nEvents int
	// prefixes interns joined scope prefixes: re-deriving the same child
	// scope (Scope("epc/session").Scope(imsi), once per state transition)
	// hits the table instead of re-concatenating the name.
	prefixes map[prefixKey]string
	// eventKinds interns each event's (scope, name) pair as the kind a
	// record stores; eventKeys maps a kind back to its pair.
	eventKinds map[eventKey]uint32
	eventKeys  []eventKey
}

// prefixKey identifies one parent-prefix + child-name join.
type prefixKey struct{ prefix, name string }

// New returns an empty registry with a zero clock (SetClock installs the
// engine's virtual clock).
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		kinds:    make(map[string]Kind),
		prefixes: make(map[prefixKey]string),
	}
}

// SetClock installs the virtual-time source used to stamp timeline events
// and snapshots.
func (r *Registry) SetClock(now func() time.Duration) { r.now = now }

func (r *Registry) clock() time.Duration {
	if r.now == nil {
		return 0
	}
	return r.now()
}

func (r *Registry) checkKind(name string, k Kind) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	if prev, ok := r.kinds[name]; ok && prev != k {
		panic(fmt.Sprintf("telemetry: %q already registered as %v, requested %v", name, prev, k))
	}
	r.kinds[name] = k
}

// Counter returns the counter registered under name, creating it on first
// use. Registering the same name twice returns the same counter, so
// independent entities may share a metric (all UEs' frontends observe into
// one stage histogram, for example).
func (r *Registry) Counter(name string) *Counter {
	r.checkKind(name, KindCounter)
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.checkKind(name, KindGauge)
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.checkKind(name, KindHistogram)
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Source is an entity that keeps its own metrics as plain fields (a link
// direction's packet counts, a protocol's message tally) and names them
// only when a snapshot reads them.
type Source interface {
	// AppendMetrics appends the source's current values to dst, in any
	// order, and returns the extended slice. A source whose names are built
	// at run time builds them on the first call and reuses them after, so a
	// repeated snapshot allocates no new names.
	AppendMetrics(dst []Metric) []Metric
}

// Register adds src to every later Snapshot. It only appends src to a
// slice: naming, sorting and the duplicate-name check happen at Snapshot.
func (r *Registry) Register(src Source) { r.sources = append(r.sources, src) }

// Scope is a name-prefix view of a registry: Scope("epc").Counter("s1ap/msgs")
// registers "epc/s1ap/msgs". Scopes nest.
type Scope struct {
	r      *Registry
	prefix string
}

// Scope roots a naming prefix on the registry.
//
//acacia:hotpath
func (r *Registry) Scope(name string) Scope { return Scope{r: r, prefix: r.internPrefix("", name)} }

// Scope nests a further prefix.
//
//acacia:hotpath
func (s Scope) Scope(name string) Scope {
	return Scope{r: s.r, prefix: s.r.internPrefix(s.prefix, name)}
}

// internPrefix joins prefix+name+"/" through the registry's intern table,
// so repeated derivations of the same scope allocate only once.
func (r *Registry) internPrefix(prefix, name string) string {
	k := prefixKey{prefix, name}
	if s, ok := r.prefixes[k]; ok {
		return s
	}
	return r.internPrefixSlow(k)
}

// internPrefixSlow is the intern-miss path: each distinct scope pays the
// join exactly once. Noinline keeps that one-time allocation out of the
// hotpath Scope callers' escape profiles.
//
//go:noinline
func (r *Registry) internPrefixSlow(k prefixKey) string {
	s := k.prefix + k.name + "/"
	r.prefixes[k] = s
	return s
}

// Counter registers a counter under the scope.
func (s Scope) Counter(name string) *Counter { return s.r.Counter(s.prefix + name) }

// Gauge registers a gauge under the scope.
func (s Scope) Gauge(name string) *Gauge { return s.r.Gauge(s.prefix + name) }

// Histogram registers a histogram under the scope.
func (s Scope) Histogram(name string) *Histogram { return s.r.Histogram(s.prefix + name) }

// Emit appends a timeline event with the scope's prefix (sans trailing
// slash) as the event scope.
//
//acacia:hotpath
func (s Scope) Emit(name, detail string) {
	s.r.Emit(s.prefix[:len(s.prefix)-1], name, detail)
}
