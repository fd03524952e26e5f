package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layer attribution of a CPU profile, done from outside the program: every
// sample goes to the nearest frame (leaf to root) that belongs to one of the
// repo's layers, so container/heap.down lands in sim and mallocgc in the
// layer that allocated. The decoder reads just the five profile.proto
// fields that needs; adding a go.mod dependency for it is not allowed.

// layerBuckets are the share.* metrics, in reporting order. They sum to 1.
var layerBuckets = []string{
	"sim", "netsim", "sdn", "pkt", "ctl", "epc", "core", "vision", "d2d",
	"telemetry", "experiments", "other", "runtime_gc", "runtime_other",
}

const internalPrefix = "acacia/internal/"

// namedLayers are the internal packages that get their own bucket; every
// other acacia/internal package (localization, media, compute, ...) and the
// benchmark's own frames go to "other".
var namedLayers = map[string]bool{
	"sim": true, "netsim": true, "sdn": true, "pkt": true, "ctl": true, "epc": true,
	"core": true, "vision": true, "d2d": true, "telemetry": true, "experiments": true,
}

// gcPrefixes mark a stack with no repo frame as garbage-collector work:
// background mark workers, sweepers, the scavenger and their helpers.
var gcPrefixes = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.(*gc",
	"runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.greyobject",
	"runtime.sweepone", "runtime.(*sweepLocked)", "runtime.(*mheap).reclaim",
	"runtime.(*scavenge", "runtime.wbBufFlush",
}

// classify attributes one stack, given leaf-first function names.
func classify(stack []string) string {
	own := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			if namedLayers[pkg] {
				return pkg
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "acacia.") {
			own = true
		}
	}
	if own {
		return "other"
	}
	for _, fn := range stack {
		for _, p := range gcPrefixes {
			if strings.HasPrefix(fn, p) {
				return "runtime_gc"
			}
		}
	}
	return "runtime_other"
}

// attribution is the result of attributing one profile.
type attribution struct {
	Samples int64
	// Shares maps each of layerBuckets to its fraction of Samples.
	Shares map[string]float64
}

// attribute decodes a (gzipped or raw) pprof CPU profile and buckets its
// samples by layer.
func attribute(data []byte) (attribution, error) {
	stacks, err := decodeProfile(data)
	if err != nil {
		return attribution{}, err
	}
	att := attribution{Shares: map[string]float64{}}
	counts := map[string]int64{}
	for _, s := range stacks {
		counts[classify(s.funcs)] += s.count
		att.Samples += s.count
	}
	for _, b := range layerBuckets {
		att.Shares[b] = 0
		if att.Samples > 0 {
			att.Shares[b] = float64(counts[b]) / float64(att.Samples)
		}
	}
	return att, nil
}

// --- profile.proto, the part we need ---
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (leaf first), 2 value (value[0] = sample count)
//	Location: 1 id, 4 line (innermost inlined callee first)
//	Line:     1 function_id
//	Function: 1 id, 2 name (string index)

type stackSample struct {
	funcs []string // leaf first
	count int64
}

type protoBuf struct{ b []byte }

var errTruncated = errors.New("profile: truncated message")

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field reads one field header and its payload: for varint fields the value
// is returned in v, for length-delimited ones the bytes in data; fixed-width
// fields are skipped.
func (p *protoBuf) field() (num int, wire int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		err = p.skip(8)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, 0, nil, errTruncated
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		err = p.skip(4)
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return num, wire, v, data, err
}

func (p *protoBuf) skip(n int) error {
	if n > len(p.b) {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}

// repeatedVarint appends a repeated integer field's values: one value when
// it arrived unpacked (wire 0), all of them when packed (wire 2). The Go
// runtime emits short lists unpacked and long ones packed.
func repeatedVarint(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	p := protoBuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	top := protoBuf{data}
	for len(top.b) > 0 {
		num, _, _, msg, err := top.field()
		if err != nil {
			return nil, err
		}
		sub := protoBuf{msg}
		switch num {
		case 2: // Sample
			var s rawSample
			var values []uint64
			for len(sub.b) > 0 {
				n, w, v, d, err := sub.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = repeatedVarint(s.locs, w, v, d)
				case 2:
					values, err = repeatedVarint(values, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(sub.b) > 0 {
				n, _, v, d, err := sub.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4:
					line := protoBuf{d}
					for len(line.b) > 0 {
						ln, _, lv, _, err := line.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			for len(sub.b) > 0 {
				n, _, v, _, err := sub.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6:
			strs = append(strs, string(msg))
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}
