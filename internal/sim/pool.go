package sim

import "unsafe"

// Pool is a LIFO free list of records of type T: Take pops the record Put
// pushed last, and with none resting carves a fresh, zeroed record from the
// pool's current slab, so a miss costs one allocation per slab. A Pool
// hangs off what owns its records (engine, network, transport, core), never
// a package global, so concurrent trials recycle only their own memory in
// the same order every run. Put clears nothing: the recycler decides what a
// record's next use may see. A record never put back pins its slab until
// the owner goes, the end of its trial. The zero value is an empty pool.
type Pool[T any] struct {
	free   []*T
	slab   []T // fresh records not yet taken
	slabs  int // slabs carved so far
	carved int // records those slabs hold
}

// SlabLen is how many size-byte records an allocation of budget bytes
// holds, at least one. A heap object over 512 bytes that holds pointers
// carries an 8-byte allocation header, so there the records give up the
// room the header takes rather than spill into the next size class.
func SlabLen(budget, size uintptr) int {
	if budget > 512 {
		budget -= 8
	}
	return int(max(budget/max(size, 1), 1))
}

// Take returns a record: the last one Put, else a fresh zeroed one. The
// popped slot keeps its pointer, into slabs that live as long as the pool.
//
//acacia:hotpath
func (p *Pool[T]) Take() *T {
	n := len(p.free)
	if n == 0 {
		return p.fresh()
	}
	r := p.free[n-1]
	p.free = p.free[:n-1]
	return r
}

// fresh hands out the next record of the current slab, carving a new slab
// when that one is used up: the first within 512 bytes, each later one
// twice the last's budget up to 8 KiB. Noinline keeps the allocation out
// of the hotpath callers' escape profiles.
//
//go:noinline
func (p *Pool[T]) fresh() *T {
	if len(p.slab) == 0 {
		p.slab = make([]T, SlabLen(512<<min(p.slabs, 4), unsafe.Sizeof(*new(T))))
		p.slabs, p.carved = p.slabs+1, p.carved+len(p.slab)
	}
	r := &p.slab[0]
	p.slab = p.slab[1:]
	return r
}

// Put returns r to the pool, to be the next record Take hands out.
//
//acacia:hotpath
func (p *Pool[T]) Put(r *T) {
	p.free = append(p.free, r)
}

// Idle returns the records resting in the pool, the next Take's last. The
// slice aliases the pool until its next Take or Put.
func (p *Pool[T]) Idle() []*T { return p.free }

// Outstanding counts the records taken and not put back: every record
// carved so far, less those resting and those not yet handed out.
func (p *Pool[T]) Outstanding() int { return p.carved - len(p.free) - len(p.slab) }
