package netsim

import (
	"math/bits"
	"unsafe"

	"acacia/internal/sim"
)

// Block sizes of a FIFO's chain: the first block is sized for
// fifoFirstBlock entries and each new block doubles the last, up to
// fifoMaxBlock, less the entries the allocation header displaces
// (sim.SlabLen): one, for the 16-byte link-lane and switch entries. A
// 0–1-deep queue lives in its first block; Fig. 8's 500k-packet backlog is
// a chain of largest blocks, never one array copied on regrowth.
const (
	fifoFirstBlock = 16
	fifoMaxBlock   = 1024
)

// fifoBlock is one link of a FIFO's chain.
type fifoBlock[T any] struct {
	items []T
	next  *fifoBlock[T]
}

// FIFO is an unbounded first-in first-out queue held as a chain of blocks.
// Push writes at the tail block, Pop reads at the head and zeroes the slot
// it read, so a served entry pins nothing. A head block that has been read
// through goes on the queue's spare list and is reused before a new block
// is allocated, and a queue that drains rewinds into the block it is in:
// the memory held follows the queue's high-water mark, and no entry is
// ever copied. The zero value is an empty queue.
type FIFO[T any] struct {
	head, tail *fifoBlock[T]
	spare      *fifoBlock[T] // read-through blocks, chained by next
	r, w       int           // read index in head, write index in tail
	n          int
}

// Len reports the entries waiting.
func (q *FIFO[T]) Len() int { return q.n }

// At returns the entry i places behind the head, in place. i must be below
// Len.
//
//acacia:hotpath
func (q *FIFO[T]) At(i int) *T {
	b, i := q.head, q.r+i
	for i >= len(b.items) {
		i -= len(b.items)
		b = b.next
	}
	return &b.items[i]
}

// Last returns the newest entry, in place. The queue must not be empty.
func (q *FIFO[T]) Last() *T { return &q.tail.items[q.w-1] }

// Push appends v at the tail.
//
//acacia:hotpath
func (q *FIFO[T]) Push(v T) {
	if q.tail == nil || q.w == len(q.tail.items) {
		q.link()
	}
	q.tail.items[q.w] = v
	q.w++
	q.n++
}

// Pop removes and returns the oldest entry. The queue must not be empty.
//
//acacia:hotpath
func (q *FIFO[T]) Pop() T {
	b := q.head
	v := b.items[q.r]
	var zero T
	b.items[q.r] = zero
	q.r++
	q.n--
	if q.n == 0 {
		// A non-empty tail block always holds an entry, so an empty queue
		// is down to one block: rewind into it.
		q.r, q.w = 0, 0
	} else if q.r == len(b.items) {
		q.retire()
	}
	return v
}

// link gives a full (or absent) tail a successor: a spare block if there
// is one, else a new block twice the tail's size. Noinline keeps the
// allocation out of the hotpath callers' escape profiles.
//
//go:noinline
func (q *FIFO[T]) link() {
	b := q.spare
	if b != nil {
		q.spare, b.next = b.next, nil
	} else {
		n := fifoFirstBlock
		if q.tail != nil {
			// The tail was sized for the power of two its length rounds up to.
			n = min(2<<bits.Len(uint(len(q.tail.items)-1)), fifoMaxBlock)
		}
		size := unsafe.Sizeof(*new(T))
		b = &fifoBlock[T]{items: make([]T, sim.SlabLen(uintptr(n)*size, size))}
	}
	if q.tail == nil {
		q.head = b
	} else {
		q.tail.next = b
	}
	q.tail, q.w = b, 0
}

// retire moves a read-through head block to the spare list and advances
// to the next block.
//
//go:noinline
func (q *FIFO[T]) retire() {
	b := q.head
	q.head, q.r = b.next, 0
	b.next, q.spare = q.spare, b
}

// Cap reports the slots the queue holds: waiting, free in its blocks and
// on its spare list. It walks the chain; tests use it to bound memory.
func (q *FIFO[T]) Cap() int {
	n := 0
	for _, b := range [2]*fifoBlock[T]{q.head, q.spare} {
		for ; b != nil; b = b.next {
			n += len(b.items)
		}
	}
	return n
}
