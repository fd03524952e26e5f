// Package unwritten is the fixture of the write-side field guard. Its one
// root is init: a field is read by live code when init reaches the read.
package unwritten

import "encoding/json"

// Each field of stores is read in init and written by exactly one store.
type stores struct {
	assigned  int
	added     int
	incr      int
	decr      int
	slots     [2]int
	nested    inner // written by the store into nested.depth
	addressed int
	buf       buffer // written by the pointer method reset
}

type inner struct{ depth int }

type buffer struct{ n int }

func (b *buffer) reset() { b.n = 0 }

// A promoted pointer method writes the embedded field it is called on.
type embeds struct {
	buffer
}

// Composite literals write their keyed and positional elements.
type keyed struct{ k int }

type positional struct{ p int }

type elided struct{ e int }

// A tag other than json:"-" is written by reflection.
type record struct {
	Name string `json:"name"`
}

// Findings: a field live code reads and nothing writes, one only a test
// writes, and one only a pointer method called through it stores behind
// (the call writes the buffer it points at, not the field).
type knobs struct {
	never    int     // want "field .*knobs.never"
	testOnly int     // want "field .*knobs.testOnly"
	ptr      *buffer // want "field .*knobs.ptr"
}

// A decoder's stores into the type it decodes into, as receiver or as
// result, are no writes: header.version and frame.kind are findings. Its
// stores into a decoder-local helper (cursor.off) are writes.
type header struct {
	version int // want "field .*header.version"
	length  int // the encoder's caller writes it
}

type frame struct {
	kind int // want "field .*frame.kind"
}

type cursor struct{ off int }

func (h *header) decode(b []byte) {
	c := &cursor{off: 1}
	h.version = int(b[0])
	h.length = int(b[c.off])
}

func decodeFrame(b []byte) *frame {
	return &frame{kind: int(b[0])}
}

// Only dead code reads unread: the read-side guard's finding, not this one.
type unreadOnly struct{ unread int }

func dead(u unreadOnly) int { return u.unread }

var sink int

func init() {
	var s stores
	s.assigned = 1
	s.added += 2
	s.incr++
	s.decr--
	s.slots[0] = 3
	s.nested.depth = 4
	p := &s.addressed
	*p = 5
	s.buf.reset()
	sink += s.assigned + s.added + s.incr + s.decr + s.slots[1] + s.nested.depth + s.addressed + s.buf.n

	var e embeds
	e.reset()
	sink += e.n

	sink += keyed{k: 1}.k + positional{2}.p + []*elided{{e: 3}}[0].e

	var r record
	_ = json.Unmarshal([]byte(`{"name":"x"}`), &r)
	sink += len(r.Name)

	h := header{length: 2}
	h.decode([]byte{1, 0})
	sink += h.version + h.length + decodeFrame([]byte{3}).kind

	var k knobs
	if k.ptr != nil {
		k.ptr.reset()
	}
	sink += k.never + k.testOnly
}
