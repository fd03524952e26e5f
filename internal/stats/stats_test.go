package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty sample should report zeros")
	}
	s.AddAll(3, 1, 2)
	if s.N() != 3 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 2 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 3 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.Median() != 2 {
		t.Errorf("Median = %v", s.Median())
	}
}

func TestMerge(t *testing.T) {
	var a, b Sample
	a.AddAll(5, 1)
	b.AddAll(3, 9)
	a.Merge(&b)
	if a.N() != 4 || a.Mean() != 4.5 || a.Min() != 1 || a.Max() != 9 {
		t.Errorf("merged sample: N=%d mean=%v min=%v max=%v", a.N(), a.Mean(), a.Min(), a.Max())
	}
	// The source is untouched, even after the destination sorts.
	if b.N() != 2 || b.Values()[0] != 3 || b.Values()[1] != 9 {
		t.Errorf("source mutated by Merge: %v", b.Values())
	}
	a.Merge(nil)
	a.Merge(&Sample{})
	if a.N() != 4 {
		t.Errorf("nil/empty merge changed N to %d", a.N())
	}
	// Merging after a sort invalidates the cached order.
	var c Sample
	c.AddAll(10, 20)
	_ = c.Max()
	var d Sample
	d.Add(1)
	c.Merge(&d)
	if c.Min() != 1 {
		t.Errorf("Min after post-sort merge = %v, want 1", c.Min())
	}
}

// TestMergeMatchesSequential checks that splitting a stream into partial
// samples and merging reproduces the single-sample statistics — the
// property per-trial partial results rely on.
func TestMergeMatchesSequential(t *testing.T) {
	xs := []float64{7, 3, 3, 11, 0.5, 2, 9, 4}
	var whole Sample
	whole.AddAll(xs...)
	var merged Sample
	for i := 0; i < len(xs); i += 3 {
		part := &Sample{}
		part.AddAll(xs[i:min(i+3, len(xs))]...)
		merged.Merge(part)
	}
	if merged.N() != whole.N() || merged.Mean() != whole.Mean() ||
		merged.Median() != whole.Median() || merged.Percentile(95) != whole.Percentile(95) {
		t.Errorf("merged stats diverge: mean %v median %v vs mean %v median %v", merged.Mean(), merged.Median(), whole.Mean(), whole.Median())
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(50); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("P50 = %v, want 50.5", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("P100 = %v, want 100", got)
	}
	if got := s.Percentile(95); math.Abs(got-95.05) > 1e-9 {
		t.Errorf("P95 = %v, want 95.05", got)
	}
}

// TestPercentileNaN checks that a NaN p reports NaN instead of indexing
// the sample at int(NaN).
func TestPercentileNaN(t *testing.T) {
	var s Sample
	if got := s.Percentile(math.NaN()); got != 0 {
		t.Errorf("empty Percentile(NaN) = %v, want 0", got)
	}
	s.AddAll(3, 1, 2)
	if got := s.Percentile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Percentile(NaN) = %v, want NaN", got)
	}
}

func TestPercentileMonotonic(t *testing.T) {
	f := func(vals []float64, a, b float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		pa := math.Mod(math.Abs(a), 100)
		pb := math.Mod(math.Abs(b), 100)
		if pa > pb {
			pa, pb = pb, pa
		}
		var s Sample
		s.AddAll(vals...)
		return s.Percentile(pa) <= s.Percentile(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := NewTable("Fig X", "scheme", "latency_ms")
	tbl.AddRow("ACACIA", 13.5)
	tbl.AddRow("CLOUD", 70.0)
	out := tbl.String()
	if !strings.Contains(out, "# Fig X") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, two rows
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[2], "ACACIA") || !strings.Contains(lines[3], "70") {
		t.Errorf("rows: %q", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{12345, "12345"},
		{70.25, "70.2"},
		{3.14159, "3.14"},
		{0.0123, "0.0123"},
		{0.0001234, "0.000123"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.in); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 2) != 5 {
		t.Error("Ratio(10,2)")
	}
	if Ratio(10, 0) != 0 {
		t.Error("Ratio by zero should be 0")
	}
}

func TestMeanMatchesManualComputation(t *testing.T) {
	f := func(vals []float64) bool {
		var s Sample
		var sum float64
		ok := true
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e15 {
				ok = false
				break
			}
			s.Add(v)
			sum += v
		}
		if !ok || s.N() == 0 {
			return true
		}
		want := sum / float64(s.N())
		return math.Abs(s.Mean()-want) <= 1e-9*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("Fig X", "scheme", "latency,ms", "note")
	tbl.AddRow("ACACIA", 13.5, `says "fast"`)
	out := tbl.CSV()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines: %q", out)
	}
	if lines[1] != `scheme,"latency,ms",note` {
		t.Errorf("header: %q", lines[1])
	}
	if lines[2] != `ACACIA,13.5,"says ""fast"""` {
		t.Errorf("row: %q", lines[2])
	}
}

// sliceSample is Sample as a plain slice grown by append: the reference
// model for the block-chained storage. Every query must agree with it bit
// for bit, Values order included.
type sliceSample struct {
	xs     []float64
	sorted bool
}

func (s *sliceSample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

func (s *sliceSample) AddAll(xs ...float64) {
	s.xs = append(s.xs, xs...)
	s.sorted = false
}

func (s *sliceSample) Merge(other *sliceSample) {
	s.xs = append(s.xs, other.xs...)
	s.sorted = false
}

func (s *sliceSample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

func (s *sliceSample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

func (s *sliceSample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	return s.xs[0]
}

func (s *sliceSample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

func (s *sliceSample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min()
	}
	if p >= 100 {
		return s.Max()
	}
	s.sort()
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// modelValues returns k observations drawn by splitmix64 from seed: mixed
// magnitudes, so summation order shows in the low bits, with repeats and
// signed zeros, so sort order among equal values shows in Values.
func modelValues(seed uint64, k int) []float64 {
	xs := make([]float64, k)
	for i := range xs {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		switch {
		case z%17 == 0:
			xs[i] = math.Copysign(0, float64(int(z%2))-0.5)
		case z%13 == 0:
			xs[i] = 1.5
		default:
			xs[i] = float64(z>>11) / (1 << 53) * math.Pow(10, float64(z%7)-2)
		}
	}
	return xs
}

// modelMaxN bounds the sample the model driver grows, so a run stays fast
// while still crossing flatMax and several blocks.
const modelMaxN = 40000

// runSampleModel applies ops to a Sample and a sliceSample and fails t on
// the first disagreement. It returns the most blocks the Sample held. Each op word carries its kind in the low 3 bits,
// a count in the next 14 and a value seed in the rest; kind 7 takes its
// observation's bits from the following word.
func runSampleModel(t *testing.T, ops []uint64) (maxBlocks int) {
	t.Helper()
	var s Sample
	var m sliceSample
	for i := 0; i < len(ops); i++ {
		maxBlocks = max(maxBlocks, len(s.blocks))
		op := ops[i]
		k := int(op >> 3 & (1<<14 - 1))
		seed := op >> 17
		if len(m.xs)+2*k > modelMaxN {
			k = 0
		}
		switch op & 7 {
		case 0:
			x := modelValues(seed, 1)[0]
			s.Add(x)
			m.Add(x)
		case 1:
			xs := modelValues(seed, k)
			s.AddAll(xs...)
			m.AddAll(xs...)
		case 2:
			// Merge another sample, itself sorted midway when seed is odd,
			// so a merged source can carry a sorted prefix and blocks.
			var o Sample
			var om sliceSample
			xs := modelValues(seed, k)
			half := len(xs) / 2
			o.AddAll(xs[:half]...)
			om.AddAll(xs[:half]...)
			if seed%2 == 1 {
				o.Median()
				om.Percentile(50)
			}
			o.AddAll(xs[half:]...)
			om.AddAll(xs[half:]...)
			s.Merge(&o)
			m.Merge(&om)
			compareSample(t, &o, &om, false)
		case 3:
			if 2*len(m.xs) <= modelMaxN {
				s.Merge(&s)
				m.Merge(&m)
			}
		case 4:
			compareSample(t, &s, &m, false)
		case 5:
			compareSample(t, &s, &m, true)
		case 6:
			p := float64(seed%1001) / 10
			if got, want := s.Percentile(p), m.Percentile(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("op %d: Percentile(%v) = %v, want %v", i, p, got, want)
			}
		case 7:
			if i+1 < len(ops) {
				i++
				x := math.Float64frombits(ops[i])
				s.Add(x)
				m.Add(x)
			}
		}
		if t.Failed() {
			t.Fatalf("after op %d (%#x)", i, op)
		}
	}
	compareSample(t, &s, &m, true)
	return max(maxBlocks, len(s.blocks))
}

// compareSample checks N, Values and the sums, then, when sorting, every
// order-dependent query, each with bitwise equality.
func compareSample(t *testing.T, s *Sample, m *sliceSample, sorting bool) {
	t.Helper()
	same := func(what string, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %v (%#x), want %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if s.N() != len(m.xs) {
		t.Fatalf("N = %d, want %d", s.N(), len(m.xs))
	}
	vs := s.Values()
	if len(vs) != len(m.xs) {
		t.Fatalf("len(Values) = %d, want %d", len(vs), len(m.xs))
	}
	for i, v := range vs {
		if math.Float64bits(v) != math.Float64bits(m.xs[i]) {
			t.Fatalf("Values[%d] = %v, want %v", i, v, m.xs[i])
		}
	}
	same("Mean", s.Mean(), m.Mean())
	if !sorting {
		return
	}
	same("Min", s.Min(), m.Min())
	same("Max", s.Max(), m.Max())
	same("Median", s.Median(), m.Percentile(50))
	for _, p := range []float64{0, 1, 25, 90, 95, 99, 99.9, 100} {
		same("Percentile", s.Percentile(p), m.Percentile(p))
	}
}

// TestSampleMatchesSliceModel runs seeded interleavings of adds, merges
// (self-merges included) and queries that cross flatMax and several block
// boundaries, with adds after sorts, against the slice model.
func TestSampleMatchesSliceModel(t *testing.T) {
	maxBlocks := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]uint64, 120)
		for i := range ops {
			ops[i] = rng.Uint64()
			// Keep most batches small so single adds and queries
			// interleave with the boundary crossings.
			if rng.Intn(4) > 0 {
				ops[i] &^= (1<<14 - 1<<8) << 3
			}
		}
		maxBlocks = max(maxBlocks, runSampleModel(t, ops))
	}
	if maxBlocks < 4 {
		t.Errorf("interleavings reached %d blocks, want >= 4", maxBlocks)
	}
	// One long plain-Add run straight across the blocks, queried at the end.
	var s Sample
	var m sliceSample
	for i, x := range modelValues(7, modelMaxN) {
		s.Add(x)
		m.Add(x)
		if i == modelMaxN/2 {
			compareSample(t, &s, &m, true)
		}
	}
	compareSample(t, &s, &m, true)
}

func FuzzSample(f *testing.F) {
	word := func(ws ...uint64) []byte {
		b := make([]byte, 8*len(ws))
		for i, w := range ws {
			binary.LittleEndian.PutUint64(b[8*i:], w)
		}
		return b
	}
	op := func(kind, k, seed uint64) uint64 { return kind | k<<3 | seed<<17 }
	f.Add(word(op(0, 0, 1), op(5, 0, 0)))
	f.Add(word(op(1, 3000, 2), op(4, 0, 0), op(6, 0, 990), op(1, 9000, 3), op(5, 0, 0)))
	f.Add(word(op(1, 1500, 4), op(3, 0, 0), op(5, 0, 0), op(0, 0, 5), op(3, 0, 0), op(4, 0, 0), op(5, 0, 0)))
	f.Add(word(op(2, 4000, 7), op(2, 5000, 6), op(5, 0, 0), op(1, 12000, 8), op(4, 0, 0)))
	f.Add(word(op(1, 2000, 9), op(7, 0, 0), math.Float64bits(math.NaN()), op(7, 0, 0), math.Float64bits(math.Inf(-1)), op(5, 0, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]uint64, (len(data)+7)/8)
		for i := range ops {
			var w [8]byte
			copy(w[:], data[8*i:])
			ops[i] = binary.LittleEndian.Uint64(w[:])
		}
		runSampleModel(t, ops)
	})
}

// TestSampleBytesLinear holds a large sample to about the bytes it stores:
// the adds may not regrow-copy, the first sort allocates one exact-size
// slice, and a second query allocates nothing.
func TestSampleBytesLinear(t *testing.T) {
	const n = 1 << 20
	// A collection allocates a little of its own (the first one starts
	// the mark workers): run one now and keep the rest out of the windows.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	total := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	var s Sample
	t0 := total()
	for i := 0; i < n; i++ {
		s.Add(float64(i*7919%n) / 3)
	}
	t1 := total()
	s.Percentile(99)
	t2 := total()
	s.Percentile(50)
	t3 := total()
	if limit := uint64(8*n*11/10 + 64<<10); t1-t0 > limit {
		t.Errorf("%d adds allocated %d B, want <= %d", n, t1-t0, limit)
	}
	if t2-t1 > 8*n {
		t.Errorf("first sort allocated %d B, want <= %d", t2-t1, 8*n)
	}
	if t3 != t2 {
		t.Errorf("second query allocated %d B, want 0", t3-t2)
	}
}
