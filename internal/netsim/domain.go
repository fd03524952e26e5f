package netsim

import (
	"time"

	"acacia/internal/sim"
	"acacia/internal/telemetry"
)

// Domain is the partition-affinity unit of a network: a group of nodes driven
// by one sim engine. A plain network has a single root domain on the engine
// it was created with. After Partition, AddDomain gives each edge site its
// own domain on its own partition engine; links whose endpoints sit in
// different domains become the cross-partition boundary, delivering through
// Engine.SendTo instead of a local timer. The network owns the sim.Cluster
// that advances those engines: callers drive any network, partitioned or
// not, through RunFor and read it through MetricsSnapshot.
//
// Each domain owns a packet free-list and packet-ID sequence, so partitions
// recycle packet memory without sharing: a packet crossing a domain link is
// re-homed to the receiving domain on arrival (see linkDir.arrive), and
// Release returns it to the pool of the domain that currently owns it.
type Domain struct {
	net *Network
	eng *sim.Engine
	// id tags packet IDs (high byte) so per-domain sequences stay globally
	// unique. The root domain is id 0, keeping legacy packet IDs unchanged.
	id      int
	pktSeq  uint64
	pktFree []*Packet
}

// Engine returns the domain's driving engine.
func (d *Domain) Engine() *sim.Engine { return d.eng }

// nextPacketID allocates a domain-unique packet ID whose high byte carries
// the domain id, keeping IDs globally unique across partitions without a
// shared counter. Root-domain IDs (id 0) are identical to the historical
// network-wide sequence.
func (d *Domain) nextPacketID() uint64 {
	d.pktSeq++
	return d.pktSeq | uint64(d.id)<<56
}

// Partition switches the network to partitioned execution: the network's
// engine becomes partition 0 of a sim.Cluster, and every later AddDomain
// creates a further partition. seed is the configuration seed the engine was
// built from; partition RNG streams derive from it by label. Call it before
// AddDomain, at most once.
func (nw *Network) Partition(seed uint64) {
	nw.cluster = sim.NewCluster(nw.eng, seed)
}

// AddDomain returns the domain a site's nodes should join (SetDomain, before
// any link is connected): on a partitioned network a fresh domain on its own
// partition engine named by label, otherwise the root domain — so topology
// builders place site nodes the same way in both execution modes.
func (nw *Network) AddDomain(label string) *Domain {
	if nw.cluster == nil {
		return nw.domains[0]
	}
	if len(nw.domains) >= 256 {
		panic("netsim: too many domains (packet IDs carry the domain in one byte)")
	}
	d := &Domain{net: nw, eng: nw.cluster.AddPartition(label), id: len(nw.domains)}
	nw.domains = append(nw.domains, d)
	return d
}

// SetDomain moves n into domain d. It must be called before the node is
// connected to anything: link directions bind their endpoint engines at
// Connect time (and switches, hosts and backends capture Node.Engine() at
// construction), so moving a wired node would split its state across
// partitions.
func (nw *Network) SetDomain(n *Node, d *Domain) {
	if d.net != nw {
		panic("netsim: domain belongs to a different network")
	}
	if len(n.ports) > 0 {
		panic("netsim: SetDomain after Connect on node " + n.name)
	}
	n.dom = d
}

// MinCrossLatency reports the smallest propagation delay of any link
// direction that crosses domains, and whether any such direction exists.
// This is the conservative lookahead bound for sim.Cluster: no event can
// affect another partition sooner than this (jitter only adds delay).
func (nw *Network) MinCrossLatency() (time.Duration, bool) {
	best, ok := time.Duration(0), false
	for _, l := range nw.links {
		for _, d := range [2]*linkDir{l.ab, l.ba} {
			if d.cross && (!ok || d.cfg.Propagation < best) {
				best, ok = d.cfg.Propagation, true
			}
		}
	}
	return best, ok
}

// RunFor advances the simulation by d of virtual time: directly on the
// network's engine, or — when partitioned — through the cluster in
// conservative windows. The lookahead is recomputed from the live topology
// on every call, because links (radio attachment, added sites) appear
// between runs and a shorter cross link shrinks the safe horizon.
func (nw *Network) RunFor(d time.Duration) {
	if nw.cluster == nil {
		nw.eng.RunFor(d)
		return
	}
	if la, ok := nw.MinCrossLatency(); ok {
		nw.cluster.SetLookahead(la)
	}
	nw.cluster.RunFor(d)
}

// MetricsSnapshot captures the network's telemetry: every domain engine's
// registry merged in domain order (counters add; each metric lives in
// exactly one registry, so gauges keep their single value). An unpartitioned
// network's one registry is snapshotted directly — merging one snapshot is
// the identity, but rebuilds and re-sorts a metro-sized metric table to get
// there.
func (nw *Network) MetricsSnapshot() *telemetry.Snapshot {
	if nw.cluster == nil {
		return nw.eng.Metrics().Snapshot()
	}
	snaps := make([]*telemetry.Snapshot, len(nw.domains))
	for i, d := range nw.domains {
		snaps[i] = d.eng.Metrics().Snapshot()
	}
	return telemetry.MergeSnapshots(snaps...)
}
