package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"acacia"
)

// protoEnc is the few lines of profile.proto encoding the synthetic profile
// needs; the decoder under test shares none of it.
type protoEnc struct{ b []byte }

func (e *protoEnc) varint(v uint64) {
	for v >= 0x80 {
		e.b = append(e.b, byte(v)|0x80)
		v >>= 7
	}
	e.b = append(e.b, byte(v))
}

func (e *protoEnc) uintField(num int, v uint64) {
	e.varint(uint64(num)<<3 | 0)
	e.varint(v)
}

func (e *protoEnc) bytesField(num int, data []byte) {
	e.varint(uint64(num)<<3 | 2)
	e.varint(uint64(len(data)))
	e.b = append(e.b, data...)
}

// synthProfile builds a CPU profile from stacks of function names (leaf
// first), each with a sample count. Every function gets its own location;
// packed selects how the repeated location ids and values are written (the
// Go runtime uses both forms).
func synthProfile(stacks [][]string, counts []uint64, packed bool) []byte {
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	funcID := map[string]uint64{}
	var prof protoEnc
	for _, st := range stacks {
		for _, fn := range st {
			if _, ok := funcID[fn]; ok {
				continue
			}
			id := uint64(len(funcID) + 1)
			funcID[fn] = id
			strIdx[fn] = uint64(len(strs))
			strs = append(strs, fn)

			var f protoEnc
			f.uintField(1, id)
			f.uintField(2, strIdx[fn])
			prof.bytesField(5, f.b)

			var line, loc protoEnc
			line.uintField(1, id)
			loc.uintField(1, id)
			loc.bytesField(4, line.b)
			prof.bytesField(4, loc.b)
		}
	}
	for i, st := range stacks {
		var s protoEnc
		if packed {
			var ids, vals protoEnc
			for _, fn := range st {
				ids.varint(funcID[fn])
			}
			vals.varint(counts[i])
			vals.varint(counts[i] * 10e6)
			s.bytesField(1, ids.b)
			s.bytesField(2, vals.b)
		} else {
			for _, fn := range st {
				s.uintField(1, funcID[fn])
			}
			s.uintField(2, counts[i])
			s.uintField(2, counts[i]*10e6)
		}
		prof.bytesField(2, s.b)
	}
	for _, str := range strs {
		prof.bytesField(6, []byte(str))
	}
	return prof.b
}

func TestAttributionOnSyntheticProfile(t *testing.T) {
	stacks := [][]string{
		// The heap's sift-down is stdlib code, but the sim engine called it.
		{"container/heap.down", "container/heap.Pop", "acacia/internal/sim.(*Engine).step", "acacia/internal/sim.(*Engine).Run", "main.runChild"},
		// An allocation belongs to the layer that allocated.
		{"runtime.mallocgc", "runtime.newobject", "acacia/internal/epc.(*Core).AttachBatch", "acacia/internal/experiments.runScale"},
		// A background mark worker has no repo frame above it.
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		// Scheduler idle time is neither.
		{"runtime.futex", "runtime.notesleep", "runtime.mcall"},
		// An internal package without a bucket of its own, and the
		// benchmark's own frames.
		{"acacia/internal/media.Compress", "acacia/internal/experiments.compressionTrial"},
		{"main.checkMetro", "main.runChild"},
		// A closure inside a layer still carries the package path.
		{"acacia/internal/sdn.(*Switch).installFlow", "acacia/internal/sdn.(*Controller).InstallFlow.func1", "acacia/internal/ctl.(*Endpoint).Receive"},
	}
	counts := []uint64{40, 10, 20, 5, 5, 5, 15}
	want := map[string]float64{
		"sim": 0.40, "epc": 0.10, "runtime_gc": 0.20, "runtime_other": 0.05, "other": 0.10, "sdn": 0.15,
	}
	for _, packed := range []bool{false, true} {
		att, err := attribute(synthProfile(stacks, counts, packed))
		if err != nil {
			t.Fatalf("packed=%v: %v", packed, err)
		}
		if att.Samples != 100 {
			t.Errorf("packed=%v: %d samples, want 100", packed, att.Samples)
		}
		var sum float64
		for _, b := range layerBuckets {
			got, ok := att.Shares[b]
			if !ok {
				t.Errorf("packed=%v: bucket %s missing", packed, b)
			}
			sum += got
			if math.Abs(got-want[b]) > 1e-9 {
				t.Errorf("packed=%v: share.%s = %v, want %v", packed, b, got, want[b])
			}
		}
		if math.Abs(sum-1) > 0.001 {
			t.Errorf("packed=%v: shares sum to %v, want 1", packed, sum)
		}
	}
	if _, err := attribute([]byte{0x12, 0x7f, 0x01}); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

// TestAttributionOnRealProfile profiles a small metro run in-process and
// requires nearly every sample to land in a named bucket: a decoder that
// lost its function names would put everything in runtime_other or other.
func TestAttributionOnRealProfile(t *testing.T) {
	// Long enough that the steady frame loop, not scenario build, fills
	// the ~70 samples: 5 % of fewer would be one stray stack.
	cfg := smokeShape(2016).frames
	cfg.Hold = 80 * time.Second
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	acacia.RunScaleScenario(2016, cfg)
	pprof.StopCPUProfile()
	att, err := attribute(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if att.Samples < 40 {
		t.Skipf("only %d samples; host too fast or profiling throttled", att.Samples)
	}
	var sum, layers float64
	for _, b := range layerBuckets {
		sum += att.Shares[b]
		if b != "other" && b != "runtime_gc" && b != "runtime_other" {
			layers += att.Shares[b]
		}
	}
	if math.Abs(sum-1) > 0.001 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if named := 1 - att.Shares["other"]; named < 0.95 {
		t.Errorf("%.1f%% of %d samples attributed to a named bucket, want >= 95%%: %v", named*100, att.Samples, att.Shares)
	}
	if layers < 0.5 {
		t.Errorf("only %.1f%% of samples reached a repo layer: %v", layers*100, att.Shares)
	}
}
