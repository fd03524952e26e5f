package vision

import (
	"reflect"
	"testing"

	"acacia/internal/geo"
	"acacia/internal/sim"
)

func buildIndexedDB(t *testing.T) (*DB, *Index) {
	t.Helper()
	db := BuildRetailDB(geo.RetailFloor(), 64)
	ix := BuildIndex(db, IndexConfig{}, sim.NewRNG(41))
	return db, ix
}

func TestLSHFindsTrueObjectInTopCandidates(t *testing.T) {
	db, ix := buildIndexedDB(t)
	hits := 0
	const trials = 15
	for i := 0; i < trials; i++ {
		target := db.Objects[(i*13)%db.Len()]
		frame := GenerateFrame(target.Features(), DefaultFrameParams(96), sim.NewRNG(uint64(100+i)))
		cands, _ := ix.CandidateObjects(frame, 5)
		for _, c := range cands {
			if c == target {
				hits++
				break
			}
		}
	}
	if hits < trials*8/10 {
		t.Errorf("LSH top-5 recall = %d/%d, want >= 80%%", hits, trials)
	}
}

func TestSearchWithIndexMatchesAndSavesWork(t *testing.T) {
	db, ix := buildIndexedDB(t)
	m := NewMatcher(MatcherConfig{}, sim.NewRNG(43))
	target := db.Objects[37]
	frame := GenerateFrame(target.Features(), DefaultFrameParams(96), sim.NewRNG(200))

	full := db.Search(frame, nil, m)
	indexed := db.SearchWithIndex(frame, ix, 5, m)

	if full.Best != target {
		t.Fatalf("brute force missed the target")
	}
	if indexed.Best != target {
		t.Fatalf("indexed search missed the target (candidates=%d)", indexed.Candidates)
	}
	if indexed.MACs >= full.MACs/3 {
		t.Errorf("indexed MACs %.3g not well below brute force %.3g", indexed.MACs, full.MACs)
	}
	if indexed.Candidates > 5 {
		t.Errorf("candidates = %d, want <= topM", indexed.Candidates)
	}
}

func TestLSHDeterministicForSeed(t *testing.T) {
	db := BuildRetailDB(geo.RetailFloor(), 32)
	a := BuildIndex(db, IndexConfig{}, sim.NewRNG(7))
	b := BuildIndex(db, IndexConfig{}, sim.NewRNG(7))
	frame := GenerateFrame(db.Objects[3].Features(), DefaultFrameParams(64), sim.NewRNG(9))
	ca, _ := a.CandidateObjects(frame, 8)
	cb, _ := b.CandidateObjects(frame, 8)
	if len(ca) != len(cb) {
		t.Fatalf("candidate counts differ: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatal("same seed produced different candidate ordering")
		}
	}
}

func TestLSHConfigBounds(t *testing.T) {
	cfg := IndexConfig{Bits: 40, Tables: 0}.withDefaults()
	if cfg.Bits != 32 {
		t.Errorf("bits clamped to %d", cfg.Bits)
	}
	if cfg.Tables != 8 {
		t.Errorf("tables default = %d", cfg.Tables)
	}
}

func TestLSHTopMClampedToAvailable(t *testing.T) {
	db, ix := buildIndexedDB(t)
	frame := GenerateFrame(db.Objects[0].Features(), DefaultFrameParams(64), sim.NewRNG(5))
	cands, _ := ix.CandidateObjects(frame, 10_000)
	if len(cands) > db.Len() {
		t.Errorf("candidates = %d beyond database size", len(cands))
	}
}

// TestBuildIndexMatchesAppendModel rebuilds every table the direct way,
// appending each object to its signature's bucket unless it is already the
// bucket's last entry, and requires BuildIndex's sorted, carved buckets to
// hold the same objects in the same order.
func TestBuildIndexMatchesAppendModel(t *testing.T) {
	db, ix := buildIndexedDB(t)
	for tb, table := range ix.tables {
		model := make(map[uint32][]int32)
		for objIdx, obj := range db.Objects {
			descs := obj.Features().Descriptors
			for d := range descs {
				sig := ix.signature(tb, &descs[d])
				if b := model[sig]; len(b) == 0 || b[len(b)-1] != int32(objIdx) {
					model[sig] = append(b, int32(objIdx))
				}
			}
		}
		if !reflect.DeepEqual(table, model) {
			t.Fatalf("table %d: %d buckets, the append model %d, or their contents differ", tb, len(table), len(model))
		}
		spare := 0 // capacity past a bucket's objects, reaching the next bucket
		for _, b := range table {
			spare += cap(b) - len(b)
		}
		if spare != 0 {
			t.Fatalf("table %d: buckets reach %d entries past their objects", tb, spare)
		}
	}
}
