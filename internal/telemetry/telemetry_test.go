package telemetry

import (
	"slices"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	c := r.Counter("a/b/c")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("a/b/c") != c {
		t.Error("re-registration returned a different counter")
	}

	g := r.Gauge("q/depth")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("gauge = %g, want 5", g.Value())
	}

	h := r.Histogram("lat-ms")
	for _, x := range []float64{3, 1, 2} {
		h.Observe(x)
	}
	if h.Count() != 3 || h.Sum() != 6 || h.Min() != 1 || h.Max() != 3 {
		t.Errorf("histogram = n=%d sum=%g min=%g max=%g", h.Count(), h.Sum(), h.Min(), h.Max())
	}
}

func TestKindCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("registering one name as two kinds did not panic")
		}
	}()
	r := New()
	r.Counter("x")
	r.Gauge("x")
}

func TestScopeNesting(t *testing.T) {
	r := New()
	s := r.Scope("epc").Scope("s1ap")
	s.Counter("msgs").Inc()
	if r.Counter("epc/s1ap/msgs").Value() != 1 {
		t.Error("scoped counter not registered under the full path")
	}
}

func TestSnapshotSortedAndDeterministic(t *testing.T) {
	r := New()
	r.Counter("z").Add(1)
	r.Counter("a").Add(2)
	r.Gauge("m").Set(3)
	s := r.Snapshot()
	for i := 1; i < len(s.Metrics); i++ {
		if s.Metrics[i-1].Name >= s.Metrics[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", s.Metrics[i-1].Name, s.Metrics[i].Name)
		}
	}
	if s.String() != r.Snapshot().String() {
		t.Error("two snapshots of the same state render differently")
	}
	if got := s.CounterValue("a"); got != 2 {
		t.Errorf("CounterValue(a) = %d, want 2", got)
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("Get found a missing metric")
	}
}

func TestDelta(t *testing.T) {
	r := New()
	now := time.Duration(0)
	r.SetClock(func() time.Duration { return now })
	c := r.Counter("msgs")
	h := r.Histogram("lat")
	g := r.Gauge("depth")
	c.Add(3)
	h.Observe(10)
	g.Set(5)
	r.Emit("sess", "state", "idle")
	before := r.Snapshot()

	now = time.Second
	c.Add(4)
	h.Observe(2)
	g.Set(9)
	r.Counter("new").Inc() // registered after the first snapshot
	r.Emit("sess", "state", "connected")
	d := r.Snapshot().Delta(before)

	if got := d.CounterValue("msgs"); got != 4 {
		t.Errorf("delta msgs = %d, want 4", got)
	}
	if got := d.CounterValue("new"); got != 1 {
		t.Errorf("delta new = %d, want 1 (absent-in-before treated as zero)", got)
	}
	if m, _ := d.Get("lat"); m.Count != 1 || m.Value != 2 {
		t.Errorf("delta histogram = n=%d sum=%g, want 1/2", m.Count, m.Value)
	}
	if m, _ := d.Get("depth"); m.Value != 9 {
		t.Errorf("delta gauge = %g, want 9 (last observed)", m.Value)
	}
	if len(d.Events) != 1 || d.Events[0].Detail != "connected" || d.Events[0].At != time.Second {
		t.Errorf("delta events = %+v, want the one post-snapshot event", d.Events)
	}
}

// TestSnapshotEventsShared takes a snapshot, emits more events into the
// log it shares, and checks the snapshot still reads its own events, and
// that Delta and MergeSnapshots over shared logs read as over copies.
func TestSnapshotEventsShared(t *testing.T) {
	r := New()
	now := time.Duration(0)
	r.SetClock(func() time.Duration { return now })
	emit := func(n int) {
		for i := 0; i < n; i++ {
			now += time.Millisecond
			r.Emit("s", "e", now.String())
		}
	}
	emit(3) // the log's capacity is now 4: the next emit writes in place
	early := r.Snapshot()
	want := slices.Clone(early.Events)
	if &early.Events[0] != &r.Events()[0] {
		t.Error("the snapshot copied the event log")
	}
	emit(5)
	if !slices.Equal(early.Events, want) || cap(early.Events) != len(want) {
		t.Fatalf("later emits showed through: %+v, want %+v", early.Events, want)
	}
	late := r.Snapshot()
	all := slices.Clone(late.Events)
	if d := late.Delta(early); !slices.Equal(d.Events, all[3:]) {
		t.Errorf("delta events = %+v, want %+v", d.Events, all[3:])
	}
	other := New()
	other.SetClock(func() time.Duration { return 2500 * time.Microsecond })
	other.Emit("o", "e", "")
	m := MergeSnapshots(early, other.Snapshot(), late)
	wantMerged := slices.Concat(want, other.Events(), all) // argument order
	slices.SortStableFunc(wantMerged, func(a, b Event) int { return int(a.At - b.At) })
	if !slices.Equal(m.Events, wantMerged) {
		t.Errorf("merged events = %+v, want %+v", m.Events, wantMerged)
	}
	if !slices.Equal(early.Events, want) || !slices.Equal(late.Events, all) {
		t.Error("merging reordered an input snapshot's events")
	}
}

func TestMergeSnapshots(t *testing.T) {
	mk := func(ctr uint64, hmin, hmax float64, at time.Duration) *Snapshot {
		r := New()
		now := at
		r.SetClock(func() time.Duration { return now })
		r.Counter("c").Add(ctr)
		h := r.Histogram("h")
		h.Observe(hmin)
		h.Observe(hmax)
		r.Gauge("g").Set(1)
		r.Emit("s", "e", "")
		return r.Snapshot()
	}
	m := MergeSnapshots(mk(1, 5, 6, 2*time.Second), nil, mk(2, 1, 9, time.Second))
	if got := m.CounterValue("c"); got != 3 {
		t.Errorf("merged counter = %d, want 3", got)
	}
	if h, _ := m.Get("h"); h.Count != 4 || h.Min != 1 || h.Max != 9 {
		t.Errorf("merged histogram = n=%d min=%g max=%g", h.Count, h.Min, h.Max)
	}
	if g, _ := m.Get("g"); g.Value != 2 {
		t.Errorf("merged gauge = %g, want 2 (sum)", g.Value)
	}
	if len(m.Events) != 2 || m.Events[0].At != time.Second {
		t.Errorf("merged events not sorted by time: %+v", m.Events)
	}
	if m.TakenAt != 2*time.Second {
		t.Errorf("merged TakenAt = %v", m.TakenAt)
	}
}

func TestTimelineJSON(t *testing.T) {
	r := New()
	now := 1500 * time.Millisecond
	r.SetClock(func() time.Duration { return now })
	r.Emit("epc/session/001", "state", "connected")
	var b strings.Builder
	if err := r.Snapshot().WriteTimelineJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"t_ns": 1500000000`, `"t": "1.5s"`, `"scope": "epc/session/001"`, `"detail": "connected"`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("timeline JSON lacks %s:\n%s", want, b.String())
		}
	}
}

// The spine's promise to every hot path: incrementing a registered metric
// allocates nothing (go test -bench Telemetry -benchmem must report
// 0 allocs/op).

func BenchmarkTelemetryCounterInc(b *testing.B) {
	c := New().Counter("bench/ctr")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkTelemetryCounterAdd(b *testing.B) {
	c := New().Counter("bench/ctr")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1400)
	}
}

func BenchmarkTelemetryGaugeSet(b *testing.B) {
	g := New().Gauge("bench/gauge")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkTelemetryHistogramObserve(b *testing.B) {
	h := New().Histogram("bench/hist")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 1023))
	}
}

// entity is a per-entity metric block in the shape a netsim link keeps:
// plain fields, named on the first snapshot that reads them.
type entity struct {
	id     int
	sent   uint64
	depth  float64
	names  *[2]string
	builds int
}

func (e *entity) AppendMetrics(dst []Metric) []Metric {
	if e.names == nil {
		e.builds++
		prefix := "ent/" + Itoa(e.id) + "/"
		e.names = &[2]string{prefix + "sent", prefix + "depth"}
	}
	return append(dst,
		Metric{Name: e.names[0], Kind: KindCounter, Count: e.sent},
		Metric{Name: e.names[1], Kind: KindGauge, Value: e.depth})
}

func TestSourceMergesSortedWithRegistered(t *testing.T) {
	r := New()
	r.Counter("ent/1/bytes").Add(9)
	r.Histogram("zz/lat").Observe(2)
	e := &entity{id: 1, sent: 3, depth: 4}
	r.Register(e)
	r.Gauge("a/level").Set(1)
	if e.builds != 0 {
		t.Fatal("Register built the source's names")
	}
	s := r.Snapshot()
	var names []string
	for _, m := range s.Metrics {
		names = append(names, m.Name)
	}
	want := "a/level ent/1/bytes ent/1/depth ent/1/sent zz/lat"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("snapshot order = %s, want %s", got, want)
	}
	if got := s.CounterValue("ent/1/sent"); got != 3 {
		t.Errorf("source counter = %d, want 3", got)
	}
	if m, _ := s.Get("ent/1/depth"); m.Kind != KindGauge || m.Value != 4 {
		t.Errorf("source gauge = %+v, want gauge 4", m)
	}
}

func TestSourceDuplicateNamePanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(r *Registry)
	}{
		{"source and registered", func(r *Registry) {
			r.Counter("ent/1/sent")
			r.Register(&entity{id: 1})
		}},
		{"two sources", func(r *Registry) {
			r.Register(&entity{id: 1})
			r.Register(&entity{id: 1})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New()
			tc.build(r)
			defer func() {
				if recover() == nil {
					t.Error("a name reported twice did not panic at Snapshot")
				}
			}()
			r.Snapshot()
		})
	}
}

func TestSourceDeltaAndMerge(t *testing.T) {
	r := New()
	e := &entity{id: 1, sent: 5, depth: 2}
	r.Register(e)
	before := r.Snapshot()
	e.sent, e.depth = 12, 7
	d := r.Snapshot().Delta(before)
	if got := d.CounterValue("ent/1/sent"); got != 7 {
		t.Errorf("delta of a source counter = %d, want 7", got)
	}
	if m, _ := d.Get("ent/1/depth"); m.Value != 7 {
		t.Errorf("delta of a source gauge = %g, want 7 (last observed)", m.Value)
	}

	other := New()
	other.Register(&entity{id: 1, sent: 1, depth: 1})
	other.Register(&entity{id: 2, sent: 4})
	m := MergeSnapshots(r.Snapshot(), other.Snapshot())
	if got := m.CounterValue("ent/1/sent"); got != 13 {
		t.Errorf("merged source counter = %d, want 13", got)
	}
	if g, _ := m.Get("ent/1/depth"); g.Value != 8 {
		t.Errorf("merged source gauge = %g, want 8 (sum)", g.Value)
	}
	if got := m.CounterValue("ent/2/sent"); got != 4 {
		t.Errorf("source present in one snapshot merged to %d, want 4", got)
	}
}

// TestSourceNamesOnce: a source names itself on the first snapshot only, so
// repeated snapshots of an unchanged registry allocate the snapshot, its
// metric slice and the sorted named-metric list, and nothing per source.
func TestSourceNamesOnce(t *testing.T) {
	r := New()
	r.Counter("shared/total").Inc()
	ents := make([]*entity, 100)
	for i := range ents {
		ents[i] = &entity{id: i}
		r.Register(ents[i])
	}
	r.Snapshot()
	if n := testing.AllocsPerRun(20, func() { r.Snapshot() }); n > 3 {
		t.Errorf("repeated snapshot of 100 sources allocates %.0f times, want <= 3", n)
	}
	for _, e := range ents {
		if e.builds != 1 {
			t.Fatalf("source %d built its names %d times, want 1", e.id, e.builds)
		}
	}
}
