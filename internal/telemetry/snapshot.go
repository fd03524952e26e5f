package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"
)

// Metric is one snapshotted metric value. Field use depends on Kind:
//
//	counter:   Count is the value
//	gauge:     Value is the value
//	histogram: Count/Value are observation count and sum; Min/Max the extent
type Metric struct {
	Name     string
	Kind     Kind
	Count    uint64
	Value    float64
	Min, Max float64
}

// Snapshot is a point-in-time copy of a registry: metrics in sorted name
// order, timeline events in emission order. Snapshots are plain data — safe
// to retain, diff and merge after the engine that produced them is gone,
// which is how per-trial telemetry crosses the worker-pool boundary.
type Snapshot struct {
	// TakenAt is the virtual time the snapshot was taken.
	TakenAt time.Duration
	Metrics []Metric
	// Events shares the registry's append-only event log, capped at the
	// snapshot's length so later emits never show through: it is
	// read-only.
	Events []Event
}

// Snapshot captures the registry's current state: the named metrics and
// every registered Source's, merged. Metrics are emitted in sorted name
// order — the determinism contract that makes same-seed runs render
// byte-identical tables. A name reported twice (by two sources, or by a
// source and a named metric) panics: sources name themselves only here, so
// this is where a collision is first visible.
func (r *Registry) Snapshot() *Snapshot {
	names := make([]string, 0, len(r.kinds))
	for name := range r.kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	// Source metrics are sorted apart and merged in: sorting the named run
	// as strings swaps 16-byte names, not 56-byte metrics.
	src := r.srcScratch[:0]
	for _, source := range r.sources {
		src = source.AppendMetrics(src)
	}
	r.srcScratch = src
	slices.SortFunc(src, func(a, b Metric) int { return strings.Compare(a.Name, b.Name) })
	s := &Snapshot{TakenAt: r.clock(), Metrics: make([]Metric, 0, len(names)+len(src))}
	for _, name := range names {
		for len(src) > 0 && src[0].Name <= name {
			s.Metrics = append(s.Metrics, src[0])
			src = src[1:]
		}
		switch r.kinds[name] {
		case KindCounter:
			s.Metrics = append(s.Metrics, Metric{Name: name, Kind: KindCounter, Count: r.counters[name].Value()})
		case KindGauge:
			s.Metrics = append(s.Metrics, Metric{Name: name, Kind: KindGauge, Value: r.gauges[name].Value()})
		case KindHistogram:
			h := r.hists[name]
			s.Metrics = append(s.Metrics, Metric{Name: name, Kind: KindHistogram,
				Count: h.Count(), Value: h.Sum(), Min: h.Min(), Max: h.Max()})
		}
	}
	s.Metrics = append(s.Metrics, src...)
	for i := 1; i < len(s.Metrics); i++ {
		if s.Metrics[i].Name == s.Metrics[i-1].Name {
			panic(fmt.Sprintf("telemetry: %q reported twice (as %v and %v)", s.Metrics[i].Name, s.Metrics[i-1].Kind, s.Metrics[i].Kind))
		}
	}
	if n := len(r.events); n > 0 {
		s.Events = r.events[:n:n]
	}
	return s
}

// Get returns the metric with the given name and whether it exists.
func (s *Snapshot) Get(name string) (Metric, bool) {
	i := sort.Search(len(s.Metrics), func(i int) bool { return s.Metrics[i].Name >= name })
	if i < len(s.Metrics) && s.Metrics[i].Name == name {
		return s.Metrics[i], true
	}
	return Metric{}, false
}

// CounterValue returns the value of a counter metric, or 0 if absent.
func (s *Snapshot) CounterValue(name string) uint64 {
	m, _ := s.Get(name)
	return m.Count
}

// Delta returns the activity between since and s (two snapshots of the
// same registry, since taken earlier): counter values and histogram
// count/sum subtract; gauges and histogram min/max keep s's value (they are
// not interval quantities); events are those emitted after since. Metrics
// absent from since are treated as zero.
func (s *Snapshot) Delta(since *Snapshot) *Snapshot {
	d := &Snapshot{TakenAt: s.TakenAt, Metrics: make([]Metric, 0, len(s.Metrics))}
	for _, m := range s.Metrics {
		prev, _ := since.Get(m.Name)
		switch m.Kind {
		case KindCounter:
			m.Count -= prev.Count
		case KindHistogram:
			m.Count -= prev.Count
			m.Value -= prev.Value
		}
		d.Metrics = append(d.Metrics, m)
	}
	if n := len(since.Events); n < len(s.Events) {
		d.Events = append(d.Events, s.Events[n:]...)
	}
	return d
}

// MergeSnapshots combines snapshots from independent registries (one per
// trial) into one: counters and histogram counts/sums add, histogram
// min/max combine, and gauges add (each is one engine's last-observed
// value; the merged value reads as the fleet total). Events are
// concatenated in argument order and stably sorted by virtual time, so the
// merged timeline is deterministic as long as the argument order is —
// Experiment.Assemble passes trial snapshots in declaration order, giving
// parallel runs byte-identical merges to sequential ones. Nil snapshots are
// skipped; TakenAt is the maximum input TakenAt.
func MergeSnapshots(snaps ...*Snapshot) *Snapshot {
	merged := map[string]Metric{}
	out := &Snapshot{}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if s.TakenAt > out.TakenAt {
			out.TakenAt = s.TakenAt
		}
		for _, m := range s.Metrics {
			acc, ok := merged[m.Name]
			if !ok {
				merged[m.Name] = m
				continue
			}
			if acc.Kind != m.Kind {
				panic(fmt.Sprintf("telemetry: merging %q as both %v and %v", m.Name, acc.Kind, m.Kind))
			}
			switch m.Kind {
			case KindCounter:
				acc.Count += m.Count
			case KindGauge:
				acc.Value += m.Value
			case KindHistogram:
				if m.Count > 0 {
					if acc.Count == 0 || m.Min < acc.Min {
						acc.Min = m.Min
					}
					if acc.Count == 0 || m.Max > acc.Max {
						acc.Max = m.Max
					}
				}
				acc.Count += m.Count
				acc.Value += m.Value
			}
			merged[m.Name] = acc
		}
		out.Events = append(out.Events, s.Events...)
	}
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)
	out.Metrics = make([]Metric, 0, len(names))
	for _, name := range names {
		out.Metrics = append(out.Metrics, merged[name])
	}
	sort.SliceStable(out.Events, func(i, j int) bool { return out.Events[i].At < out.Events[j].At })
	return out
}

// String renders the snapshot as an aligned metric table, one line per
// metric in sorted name order.
func (s *Snapshot) String() string {
	var b strings.Builder
	wName := len("metric")
	for _, m := range s.Metrics {
		if len(m.Name) > wName {
			wName = len(m.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s  %-9s  %s\n", wName, "metric", "kind", "value")
	for _, m := range s.Metrics {
		fmt.Fprintf(&b, "%-*s  %-9s  %s\n", wName, m.Name, m.Kind, formatMetricValue(m))
	}
	return b.String()
}

func formatMetricValue(m Metric) string {
	switch m.Kind {
	case KindCounter:
		return fmt.Sprintf("%d", m.Count)
	case KindGauge:
		return fmt.Sprintf("%g", m.Value)
	default:
		if m.Count == 0 {
			return "n=0"
		}
		return fmt.Sprintf("n=%d mean=%.4g min=%.4g max=%.4g", m.Count, m.Value/float64(m.Count), m.Min, m.Max)
	}
}

// timelineEntry is the JSON shape of one timeline event.
type timelineEntry struct {
	TNs    int64  `json:"t_ns"`
	T      string `json:"t"`
	Scope  string `json:"scope"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
}

// WriteTimelineJSON writes the snapshot's events as an indented JSON array
// ordered by virtual time (events already are; merged snapshots sort on
// merge).
func (s *Snapshot) WriteTimelineJSON(w io.Writer) error {
	entries := make([]timelineEntry, 0, len(s.Events))
	for _, e := range s.Events {
		entries = append(entries, timelineEntry{
			TNs: int64(e.At), T: e.At.String(),
			Scope: e.Scope, Name: e.Name, Detail: e.Detail,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(entries)
}
