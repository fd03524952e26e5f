// Package unreferenced is the fixture of the unreferenced-declaration guard.
// Its one root is init: everything else is live only if init reaches it.
package unreferenced

import "encoding/json"

// Writes are not reads: a field only ever assigned, or given through a
// keyed or unkeyed composite literal, is dead.
type counters struct {
	hits   int
	misses int // want "field .*counters.misses"
	resets int // want "field .*counters.resets"
}

type pair struct {
	a int
	b int // want "field .*pair.b"
}

// Copying a field into itself is not a read: a field only ever copied from
// one record to another, or swapped between two, is dead; one more read
// keeps it.
type packet struct {
	id    int // want "field .*packet.id"
	size  int
	owner int // want "field .*packet.owner"
}

// Hashing and comparing read every field: a map key and an == operand.
type key struct{ shard, slot int }

type version struct{ major, minor int }

// A tag other than json:"-" is read by reflection.
type record struct {
	Name string `json:"name"`
	Skip string `json:"-"` // want "field .*record.Skip"
}

// Selecting through an embedded field reads it.
type inner struct{ depth int }

type outer struct {
	inner
}

const used = 1

const unused = 2 // want "const .*unused"

var sink int

// reachedByDeadOnly is read only by dead; both are dead.
var reachedByDeadOnly = 3 // want "var .*reachedByDeadOnly"

func dead() int { return reachedByDeadOnly } // want "func .*dead"

// direct is only ever called, so its unused parameter is a finding.
func direct(n, ignored int) int { return n } // want "param .*direct.ignored"

// handler is used as a value: its signature is fixed by its use, so an
// unused parameter is not a finding.
func handler(ignored int) {}

var handlers = []func(int){handler}

func init() {
	c := &counters{resets: 1}
	c.hits++
	c.misses = c.hits
	sink += c.hits

	p := pair{1, 2}
	sink += p.a

	src, dst := &packet{id: 1, size: 2, owner: 3}, &packet{}
	dst.id = src.id
	dst.size = (src.size)
	sink += dst.size
	src.owner, dst.owner = dst.owner, src.owner

	seen := map[key]bool{{shard: 1, slot: 2}: true}
	sink += len(seen)
	if (version{major: 1, minor: 2}) == (version{}) {
		sink++
	}

	b, _ := json.Marshal(record{Name: "x", Skip: "y"})
	sink += len(b)

	var o outer
	sink += o.depth + used + direct(1, 2)
	for _, h := range handlers {
		h(sink)
	}
}
