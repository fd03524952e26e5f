package vision

import (
	"cmp"
	"slices"
	"sort"

	"acacia/internal/sim"
)

// LSH prefiltering: an approximate-nearest-neighbour index over the whole
// database's descriptors. Random-hyperplane signatures bucket similar
// descriptors together; a query votes for the objects its descriptors
// collide with, and only the top-voted objects go through the full
// (expensive) matching pipeline. This is the classic way AR back-ends scale
// beyond what geo-pruning alone covers, and the ablation quantifies the
// work/recall trade against brute force.

// IndexConfig tunes the LSH index; zero values select defaults.
type IndexConfig struct {
	// Bits is the signature width per table (default 16, max 32).
	Bits int
	// Tables is the number of independent hash tables (default 8).
	Tables int
}

func (c IndexConfig) withDefaults() IndexConfig {
	c.Bits, c.Tables = min(cmp.Or(c.Bits, 16), 32), cmp.Or(c.Tables, 8)
	return c
}

// Index is an LSH index over a database's descriptors.
type Index struct {
	cfg    IndexConfig
	db     *DB
	planes [][]Descriptor       // [table][bit] hyperplane normals
	tables []map[uint32][]int32 // signature -> object indices (deduplicated per bucket)
}

// BuildIndex hashes every descriptor of every object in db. The rng seeds
// the hyperplanes; the same seed reproduces the same index.
func BuildIndex(db *DB, cfg IndexConfig, rng *sim.RNG) *Index {
	cfg = cfg.withDefaults()
	ix := &Index{cfg: cfg, db: db}
	ix.planes = make([][]Descriptor, cfg.Tables)
	ix.tables = make([]map[uint32][]int32, cfg.Tables)
	for t := 0; t < cfg.Tables; t++ {
		ix.planes[t] = make([]Descriptor, cfg.Bits)
		for b := 0; b < cfg.Bits; b++ {
			ix.planes[t][b] = randomDescriptor(rng)
		}
	}
	// Each table collects its (signature, object) pairs, packed so that
	// sorting orders them by signature and, within one, by object: the
	// order objects are hashed in. A bucket is one run of the sorted pairs
	// with repeats dropped, carved from the table's single backing array.
	var pairs []uint64
	for t := range ix.tables {
		pairs = pairs[:0]
		for objIdx, obj := range db.Objects {
			descs := obj.Features().Descriptors
			for d := range descs {
				pairs = append(pairs, uint64(ix.signature(t, &descs[d]))<<32|uint64(objIdx))
			}
		}
		slices.Sort(pairs)
		ps := slices.Compact(pairs)
		objs, buckets := make([]int32, len(ps)), 0
		for i, p := range ps {
			objs[i] = int32(uint32(p))
			if i == 0 || p>>32 != ps[i-1]>>32 {
				buckets++
			}
		}
		table := make(map[uint32][]int32, buckets)
		for lo := 0; lo < len(ps); {
			hi := lo + 1
			for hi < len(ps) && ps[hi]>>32 == ps[lo]>>32 {
				hi++
			}
			table[uint32(ps[lo]>>32)] = objs[lo:hi:hi]
			lo = hi
		}
		ix.tables[t] = table
	}
	return ix
}

// signature computes the table's bit signature for a descriptor.
func (ix *Index) signature(table int, d *Descriptor) uint32 {
	var sig uint32
	for b, plane := range ix.planes[table] {
		var dot float64
		for i := 0; i < DescriptorDim; i++ {
			dot += float64(d[i]) * float64(plane[i])
		}
		if dot >= 0 {
			sig |= 1 << uint(b)
		}
	}
	return sig
}

// hashMACs is the descriptor work of hashing one descriptor across all
// tables (Bits*Tables dot products of DescriptorDim each).
func (ix *Index) hashMACs() float64 {
	return float64(ix.cfg.Bits*ix.cfg.Tables) * DescriptorDim
}

// CandidateObjects votes for the objects most similar to the query frame
// and returns the topM, plus the hashing workload in MACs.
func (ix *Index) CandidateObjects(query *FeatureSet, topM int) ([]*Object, float64) {
	votes := make(map[int32]int)
	for d := range query.Descriptors {
		desc := &query.Descriptors[d]
		for t := 0; t < ix.cfg.Tables; t++ {
			sig := ix.signature(t, desc)
			for _, objIdx := range ix.tables[t][sig] {
				votes[objIdx]++
			}
		}
	}
	type scored struct {
		idx   int32
		votes int
	}
	all := make([]scored, 0, len(votes))
	for idx, v := range votes {
		all = append(all, scored{idx, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].votes != all[j].votes {
			return all[i].votes > all[j].votes
		}
		return all[i].idx < all[j].idx
	})
	if topM > len(all) {
		topM = len(all)
	}
	out := make([]*Object, 0, topM)
	for _, s := range all[:topM] {
		out = append(out, ix.db.Objects[s.idx])
	}
	return out, float64(query.Len()) * ix.hashMACs()
}

// SearchWithIndex prefilters the database with the LSH index, then runs the
// full matching pipeline over only the topM voted objects.
func (db *DB) SearchWithIndex(query *FeatureSet, ix *Index, topM int, m *Matcher) SearchResult {
	cands, hashWork := ix.CandidateObjects(query, topM)
	res := SearchResult{MACs: hashWork}
	res.score(query, cands, m)
	return res
}
