package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval around a call the benchmark itself makes into
// the simulator. Spans inside the program are a later change; these are
// recorded from outside, kept in memory and written out at exit.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// Calls is how many calls into the layer the span covers (1 unless it
	// wraps a batch).
	Calls int `json:"calls"`
}

// tracer records spans on host time relative to its creation. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under parent (0 = root) and returns its id.
func (t *tracer) begin(parent int, name string) int { return t.beginN(parent, name, 1) }

// beginN opens a span covering calls calls.
func (t *tracer) beginN(parent int, name string, calls int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload,
		StartNs: int64(time.Since(t.t0)), Calls: calls,
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNs = int64(time.Since(t.t0))
}

// setCalls corrects a span's call count once the batch knows how many calls
// it turned out to cover.
func (t *tracer) setCalls(id, calls int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].Calls = calls
}

// perCallNs groups finished spans by name and returns, per name, each
// span's duration divided by the calls it covers.
func perCallNs(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		if s.EndNs == 0 || s.Calls == 0 {
			continue
		}
		out[s.Name] = append(out[s.Name], float64(s.EndNs-s.StartNs)/float64(s.Calls))
	}
	return out
}

// writeSpans writes spans as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if spans == nil {
		spans = []span{}
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readSpans(path string) ([]span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []span
	return spans, json.Unmarshal(data, &spans)
}

// --- small order statistics shared by every reporter ---

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; 0 for an empty slice.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linear-interpolated q-quantile of v; 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
