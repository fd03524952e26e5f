package vision

import "acacia/internal/geo"

// Object is one entry of the AR database: an annotated, geo-tagged item in
// the store with its canonical feature set.
type Object struct {
	// Subsection geo-tags the object's location on the floor.
	Subsection int
	// Pos is the object's position, used to generate evaluation frames at
	// checkpoints.
	Pos geo.Point
	// An object records the (seed, n) of its canonical feature set and
	// generates it on first read.
	seed     uint64
	n        int
	features *FeatureSet
}

// Features returns the object's canonical SURF feature set. The first call
// generates it — exactly
// GenerateObjectFeatures(seed, n) — and later calls return the same set. A
// DB is owned by one trial: the accessor is not safe for concurrent use.
func (o *Object) Features() *FeatureSet {
	if o.features == nil {
		o.features = GenerateObjectFeatures(o.seed, o.n)
	}
	return o.features
}

// FeatureCount reports Features().Len() without generating anything.
func (o *Object) FeatureCount() int { return o.n }

// Materialised reports whether the feature set has been generated.
func (o *Object) Materialised() bool { return o.features != nil }

// DB is the geo-tagged object database of the AR back-end. Objects are
// indexed by subsection so a location estimate prunes the search space.
type DB struct {
	Objects      []*Object
	bySubsection map[int][]*Object
}

// NewDB builds an empty database.
func NewDB() *DB {
	return &DB{bySubsection: make(map[int][]*Object)}
}

// Add inserts an object.
func (db *DB) Add(o *Object) {
	db.Objects = append(db.Objects, o)
	db.bySubsection[o.Subsection] = append(db.bySubsection[o.Subsection], o)
}

// Len reports the object count.
func (db *DB) Len() int { return len(db.Objects) }

// InSubsections returns the objects tagged with any of the given
// subsection IDs; a nil ids slice means the entire database.
func (db *DB) InSubsections(ids []int) []*Object {
	if ids == nil {
		return db.Objects
	}
	var out []*Object
	for _, id := range ids {
		out = append(out, db.bySubsection[id]...)
	}
	return out
}

// ObjectsPerRetailSubsection is the retail database density: 5 objects in
// each of the 21 subsections = 105 objects, the paper's database size.
const ObjectsPerRetailSubsection = 5

// BuildRetailDB populates the 105-object retail database over the floor's
// subsections, with featuresPerObject canonical features per object.
// Feature sets derive deterministically from stable per-object seeds, so
// every run sees the same database, and are generated on first read
// (Object.Features): a testbed's AR back-end reads only counts, and
// 105 x 200 descriptors cost ~60 ms per build.
func BuildRetailDB(floor *geo.Floor, featuresPerObject int) *DB {
	db := NewDB()
	for _, ss := range floor.Subsections {
		for k := 0; k < ObjectsPerRetailSubsection; k++ {
			// Spread object positions inside the subsection.
			frac := (float64(k) + 0.5) / ObjectsPerRetailSubsection
			db.Add(&Object{
				Subsection: ss.ID,
				Pos:        ss.Bounds.Min.Lerp(ss.Bounds.Max, frac),
				seed:       retailSeed(ss.ID, k),
				n:          featuresPerObject,
			})
		}
	}
	return db
}

func retailSeed(subsection, k int) uint64 { return uint64(subsection)*1000 + uint64(k) + 0xACAC1A }

// SearchResult is the outcome of a database search.
type SearchResult struct {
	// Best is the matched object, or nil for no-match.
	Best *Object
	// BestInliers is the consensus size for Best.
	BestInliers int
	// Candidates is how many objects were compared.
	Candidates int
	// MACs is the total descriptor workload of the search, which the
	// compute device models convert into the runtime the paper measures.
	MACs float64
}

// Search matches the query frame against the objects in the given
// subsections (nil = whole database) and returns the best accepted match.
// All candidates are scanned; the best consensus wins, mirroring the AR
// back-end's exhaustive scoring within its (pruned) search space.
func (db *DB) Search(query *FeatureSet, subsections []int, m *Matcher) SearchResult {
	var res SearchResult
	res.score(query, db.InSubsections(subsections), m)
	return res
}

// score runs the full matching pipeline over cands, keeping the best
// accepted match.
func (res *SearchResult) score(query *FeatureSet, cands []*Object, m *Matcher) {
	for _, obj := range cands {
		res.Candidates++
		r := m.Match(query, obj.Features())
		res.MACs += r.MACs
		if r.Matched && r.Inliers > res.BestInliers {
			res.Best = obj
			res.BestInliers = r.Inliers
		}
	}
}
