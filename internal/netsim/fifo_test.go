package netsim

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"acacia/internal/sim"
)

// fifoModel drives a FIFO[*int] beside a slice model and checks the queue
// after every operation: order and count against the model, every slot
// outside the waiting run zero (a served entry pins nothing), and the
// memory bound.
type fifoModel struct {
	t    testing.TB
	q    FIFO[*int]
	want []*int
	next int
	hwm  int // high-water mark of Len
}

func (m *fifoModel) push() {
	v := new(int)
	*v = m.next
	m.next++
	m.q.Push(v)
	m.want = append(m.want, v)
	m.hwm = max(m.hwm, len(m.want))
}

func (m *fifoModel) pop() {
	if len(m.want) == 0 {
		return
	}
	got := m.q.Pop()
	if got != m.want[0] {
		m.t.Fatalf("popped %d, want %d", *got, *m.want[0])
	}
	m.want = m.want[1:]
}

// fifoBound is the memory a FIFO may hold at high-water mark hwm. A block
// is allocated only when the tail is full and no spare is left, so every
// slot held then is waiting, in the head block's read prefix or in the new
// block: at most two of the queue's largest blocks beyond hwm, and never
// more than two of the largest blocks.
func fifoBound[T any](q *FIFO[T], hwm int) int {
	largest := 0
	for _, b := range [2]*fifoBlock[T]{q.head, q.spare} {
		for ; b != nil; b = b.next {
			largest = max(largest, len(b.items))
		}
	}
	return hwm + 2*largest
}

// check verifies the queue against the model.
func (m *fifoModel) check() {
	q := &m.q
	if q.Len() != len(m.want) {
		m.t.Fatalf("Len = %d, model holds %d", q.Len(), len(m.want))
	}
	if c, bound := q.Cap(), fifoBound(q, m.hwm); c > bound {
		m.t.Fatalf("holds %d slots at high-water mark %d, want at most %d", c, m.hwm, bound)
	}
	if q.n == 0 && (q.head != q.tail || q.r != 0 || q.w != 0) {
		m.t.Fatalf("drained queue not rewound into one block (r %d, w %d, one block %v)", q.r, q.w, q.head == q.tail)
	}
	for i, v := range m.want {
		if got := *q.At(i); got != v {
			m.t.Fatalf("At(%d) is %v, want %d", i, got, *v)
		}
	}
	if n := len(m.want); n != 0 && *q.Last() != m.want[n-1] {
		m.t.Fatalf("Last is %v, want %d", *q.Last(), *m.want[n-1])
	}
	// Walk the waiting run from the head and hold every other slot to nil.
	i := 0
	for b := q.head; b != nil; b = b.next {
		for j, v := range b.items {
			live := (b != q.head || j >= q.r) && (b != q.tail || j < q.w)
			if !live {
				if v != nil {
					m.t.Fatalf("dead slot %d of a %d-entry block still holds entry %d", j, len(b.items), *v)
				}
				continue
			}
			if v != m.want[i] {
				m.t.Fatalf("waiting entry %d is %v, want %d", i, v, *m.want[i])
			}
			i++
		}
	}
	for b := q.spare; b != nil; b = b.next {
		for _, v := range b.items {
			if v != nil {
				m.t.Fatalf("spare block still holds entry %d", *v)
			}
		}
	}
}

// TestFIFOMatchesSliceModel runs seeded phases of pushes and pops: a deep
// backlog past several largest blocks, full drains, and a 0–2-deep
// trickle that never drains.
func TestFIFOMatchesSliceModel(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		rng := sim.NewRNG(seed)
		m := &fifoModel{t: t}
		// pushBias is the probability of a push in each phase; -1 drains.
		for _, pushBias := range []float64{0.8, -1, 0.5, 0.55, -1, 0.9, 0.3, -1} {
			for op := 0; op < 6000; op++ {
				if pushBias < 0 && len(m.want) == 0 {
					break
				}
				if pushBias >= 0 && rng.Float64() < pushBias {
					m.push()
				} else {
					m.pop()
				}
				if op%97 == 0 || len(m.want) < 4 {
					m.check()
				}
			}
			m.check()
		}
		if len(m.want) != 0 {
			t.Fatalf("seed %d: %d entries left after the final drain", seed, len(m.want))
		}
	}
}

// FuzzFIFO reads each input byte as a run: the high bit pops, otherwise
// it pushes, 1–128 times by the low seven bits.
func FuzzFIFO(f *testing.F) {
	// Fill and drain the first block; grow through the doubling; run past
	// the largest block and drain half; a 0–2-deep trickle.
	f.Add([]byte{0x0f, 0x8f, 0x10, 0x90})
	f.Add(bytes.Repeat([]byte{0x7f}, 7))
	f.Add(append(bytes.Repeat([]byte{0x7f}, 24), bytes.Repeat([]byte{0xff}, 12)...))
	f.Add([]byte{0x01, 0x80, 0x01, 0x80, 0x01, 0x81, 0x00})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := &fifoModel{t: t}
		for _, op := range ops {
			for k := int(op&0x7f) + 1; k > 0; k-- {
				if op&0x80 != 0 {
					m.pop()
				} else {
					m.push()
				}
			}
			m.check()
		}
		for len(m.want) > 0 {
			m.pop()
		}
		m.check()
	})
}

// TestFIFORefillAllocatesNothing: once a queue has drained, refilling it
// to its previous high-water mark runs on the blocks it already holds,
// whatever interleaving of pushes and pops first built them.
func TestFIFORefillAllocatesNothing(t *testing.T) {
	var q FIFO[queuedPacket]
	p := &Packet{}
	hwm := 0
	for i := 0; i < 5000; i++ {
		q.Push(queuedPacket{p: p})
		q.Push(queuedPacket{p: p})
		if i%2 == 0 {
			q.Pop()
		}
		hwm = max(hwm, q.Len())
	}
	for q.Len() > 0 {
		q.Pop()
	}
	before := q.Cap()
	refill := func() {
		for q.Len() < hwm {
			q.Push(queuedPacket{p: p})
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	if n := testing.AllocsPerRun(20, refill); n != 0 {
		t.Fatalf("refill to the high-water mark %d allocates %.1f times per cycle, want 0", hwm, n)
	}
	if after := q.Cap(); after != before {
		t.Fatalf("refill grew the queue from %d to %d slots", before, after)
	}
}

// TestFIFOBlocksFitSizeClass holds each block of a link lane's chain, up to
// and past the largest, to its allocator size class: the item array spends
// its bytes on entries and, above 512 bytes, the 8-byte header, never on a
// hole an entry would fit. A 1,024-entry block of 16-byte entries would
// land in the 18,432-byte class; 1,023 entries fill the 16,384-byte one.
func TestFIFOBlocksFitSizeClass(t *testing.T) {
	var q FIFO[queuedPacket]
	for i := 0; i < 6000; i++ {
		q.Push(queuedPacket{})
	}
	entry := uint64(unsafe.Sizeof(queuedPacket{}))
	for b := q.head; b != nil; b = b.next {
		n := len(b.items)
		if got := arrayBytes[queuedPacket](n); got >= uint64(n+1)*entry+8 {
			t.Errorf("%d-entry block of %d-byte entries takes %d bytes, room for another beside the header", n, entry, got)
		}
	}
	if n := len(q.tail.items); n != 1023 {
		t.Errorf("largest block holds %d entries, want 1,023", n)
	}
}

// arrayBytes measures what allocating an n-entry array of T costs, averaged
// over 64 arrays, the least of three rounds.
func arrayBytes[T any](n int) uint64 {
	bytes := ^uint64(0)
	sink := make([][]T, 64)
	for round := 0; round < 3; round++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := range sink {
			sink[i] = make([]T, n)
		}
		runtime.ReadMemStats(&m1)
		bytes = min(bytes, (m1.TotalAlloc-m0.TotalAlloc)/uint64(len(sink)))
	}
	return bytes
}

// TestPacketIs64Bytes pins the Packet layout to the allocator's 64-byte
// size class, one cache line. Overloaded switch queues hold several
// hundred thousand packets, so the next class up (80 B) costs a quarter
// more per packet: adding a field that tips it over is a decision, not an
// accident.
func TestPacketIs64Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 64 {
		t.Fatalf("Packet is %d bytes, want 64 (the 64-byte size class; 65–80 bytes allocate 80)", got)
	}
}

// TestLinkIs432Bytes pins the Link layout below the 448-byte size class:
// the metro shapes build one link per UE, and a Link one word larger
// measured metro-attach alloc_bytes_per_op +2.3 %.
func TestLinkIs432Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Link{}); got != 432 {
		t.Fatalf("Link is %d bytes, want 432 (433–448 bytes allocate 448)", got)
	}
}
