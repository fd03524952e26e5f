package netsim

import (
	"fmt"
	"sort"

	"acacia/internal/pkt"
)

// Route is one static routing entry: destinations matching Prefix/Mask
// egress via Port.
type Route struct {
	Prefix pkt.Addr
	Mask   pkt.Addr
	Port   *Port
}

func (r Route) matches(a pkt.Addr) bool {
	for i := 0; i < 4; i++ {
		if a[i]&r.Mask[i] != r.Prefix[i]&r.Mask[i] {
			return false
		}
	}
	return true
}

func (r Route) maskLen() int {
	n := 0
	for _, b := range r.Mask {
		for ; b != 0; b <<= 1 {
			if b&0x80 != 0 {
				n++
			}
		}
	}
	return n
}

// Router forwards by longest-prefix match over static routes. It routes on
// the *outer* header when a packet is tunneled (TunnelDst) and the inner
// destination otherwise, exactly as an IP router under GTP-U does.
type Router struct {
	Node   *Node
	routes []Route
}

// NewRouter wraps node with routing behaviour and installs its handler.
func NewRouter(node *Node) *Router {
	r := &Router{Node: node}
	node.SetHandler(r)
	return r
}

// AddRoute installs a route. Routes may be added in any order; lookup is
// longest-prefix, ties broken by insertion order.
func (r *Router) AddRoute(prefix, mask pkt.Addr, port *Port) {
	r.routes = append(r.routes, Route{Prefix: prefix, Mask: mask, Port: port})
	sort.SliceStable(r.routes, func(i, j int) bool {
		return r.routes[i].maskLen() > r.routes[j].maskLen()
	})
}

// AddHostRoute installs a /32 route to a single address.
func (r *Router) AddHostRoute(addr pkt.Addr, port *Port) {
	r.AddRoute(addr, pkt.Addr{255, 255, 255, 255}, port)
}

// AddDefaultRoute installs the catch-all route.
func (r *Router) AddDefaultRoute(port *Port) {
	r.AddRoute(pkt.Addr{}, pkt.Addr{}, port)
}

// Lookup returns the egress port for dst, or nil.
func (r *Router) Lookup(dst pkt.Addr) *Port {
	for _, rt := range r.routes {
		if rt.matches(dst) {
			return rt.Port
		}
	}
	return nil
}

// Handle is the node handler: forward p on its longest-prefix route.
//
//acacia:hotpath
func (r *Router) Handle(ingress *Port, p *Packet) {
	dst := p.Flow.Dst
	if p.Tunneled() {
		dst = p.TunnelDst
	}
	port := r.Lookup(dst)
	if port == nil {
		r.Node.Network().Release(p)
		return
	}
	port.Send(p)
}

// String describes the routing table, for debugging topologies.
func (r *Router) String() string {
	s := fmt.Sprintf("router %s:\n", r.Node.Name())
	for _, rt := range r.routes {
		s += fmt.Sprintf("  %v/%d -> port %d (%s)\n", rt.Prefix, rt.maskLen(), rt.Port.ID, rt.Port.Peer().Node.Name())
	}
	return s
}
