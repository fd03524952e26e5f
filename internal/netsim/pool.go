package netsim

// Packet pool. The sim.Pool hangs off the Network — never a package
// global — so parallel trials never share packet memory and a seeded run
// recycles in exactly the same order every time. Every packet a simulation
// sends comes from NewPacket/ClonePacket; a &Packet{} literal is for tests
// only (TestNoPacketLiterals holds non-test code to none), and Release passes
// one through untouched.
//
// Ownership rule: a packet is owned by whichever queue, link or handler
// currently holds it. The handler that ends a packet's life — a drop site, a
// terminal application callback, an experiment harness's sink — releases
// it. Applications that keep a packet past their callback keep a
// ClonePacket copy instead.

// NewPacket returns a zeroed pool-managed packet owned by the caller.
//
//acacia:hotpath
func (nw *Network) NewPacket() *Packet {
	p := nw.pkts.Take()
	p.pooled, p.freed = true, false
	return p
}

// PacketsOut reports the pooled packets taken and not yet released, the
// pool balance leak tests check.
func (nw *Network) PacketsOut() int { return nw.pkts.Outstanding() }

// panicDoubleRelease reports the mutate-after-release canary. Noinline so
// the boxed panic message never lands in a hotpath caller.
//
//go:noinline
func panicDoubleRelease() {
	panic("netsim: double release of pooled packet")
}

// ClonePacket returns a pool-managed copy of p sharing the Payload value.
//
//acacia:hotpath
func (nw *Network) ClonePacket(p *Packet) *Packet {
	c := nw.NewPacket()
	c.Flow, c.TOS, c.Size, c.Payload = p.Flow, p.TOS, p.Size, p.Payload
	c.TEID, c.TunnelDst = p.TEID, p.TunnelDst
	c.Priority, c.QueueWait, c.Hops = p.Priority, p.QueueWait, p.Hops
	return c
}

// Release returns a pool-managed packet to the pool. Releasing a
// non-pooled packet is a no-op; releasing the same pooled packet
// twice panics (the mutate-after-release canary). The packet is zeroed on
// release, so stale readers observe garbage immediately instead of silently
// corrupting a recycled packet.
//
//acacia:hotpath
func (nw *Network) Release(p *Packet) {
	if !p.pooled {
		return
	}
	if p.freed {
		panicDoubleRelease()
	}
	*p = Packet{pooled: true, freed: true}
	nw.pkts.Put(p)
}
