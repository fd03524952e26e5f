package core

import (
	"reflect"
	"testing"
	"time"

	"acacia/internal/geo"
	"acacia/internal/netsim"
	"acacia/internal/sdn"
)

// linkNames lists nw's links from index from on as "a->b" node pairs, the
// names their netsim/link/<n>/ metrics carry.
func linkNames(nw *netsim.Network, from int) []string {
	var names []string
	for _, l := range nw.Links()[from:] {
		names = append(names, l.A.Node.Name()+"->"+l.B.Node.Name())
	}
	return names
}

// nodeNamed returns the node called name at either end of one of nw's
// links, or nil.
func nodeNamed(nw *netsim.Network, name string) *netsim.Node {
	for _, l := range nw.Links() {
		for _, n := range []*netsim.Node{l.A.Node, l.B.Node} {
			if n.Name() == name {
				return n
			}
		}
	}
	return nil
}

// TestMetroWiring holds NewMetro and Start to the documented build order:
// link creation order is the <n> of every link metric, so a reordered
// builder would rename every fingerprinted counter.
func TestMetroWiring(t *testing.T) {
	m := NewMetro(MetroConfig{
		Seed: 1, CoreDelay: time.Millisecond, SiteDelay: time.Millisecond,
		ENBs: []string{"enb-a", "enb-b"}, Sites: []string{"s1", "s2"},
	})
	want := []string{
		"enb-a->agg-router", "enb-b->agg-router",
		"agg-router->core-sgw-u", "core-sgw-u->core-pgw-u", "core-pgw-u->inet-router",
		"agg-router->s1-sgw-u", "s1-sgw-u->s1-pgw-u", "s1-pgw-u->s1-ci",
		"agg-router->s2-sgw-u", "s2-sgw-u->s2-pgw-u", "s2-pgw-u->s2-ci",
	}
	if got := linkNames(m.Net, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("NewMetro links:\n got %q\nwant %q", got, want)
	}
	for _, dst := range []string{"enb-a", "enb-b", "core-sgw-u", "s1-sgw-u", "s2-sgw-u"} {
		port := m.Router.Lookup(nodeNamed(m.Net, dst).Addr())
		if port == nil || port.Peer().Node.Name() != dst {
			t.Errorf("router has no route to %s", dst)
		}
	}
	if len(m.ENBs) != 0 {
		t.Fatalf("%d eNBs exist before Start", len(m.ENBs))
	}

	m.Start(time.Hour)
	// The core's S11/S5 control links, one OpenFlow channel per switch in
	// registration order (DPIDs 1-6), then each eNB's S1 link.
	want = []string{
		"mme->sgw-c", "sgw-c->pgw-c",
		"sdn-ctl->core-sgw-u", "sdn-ctl->core-pgw-u",
		"sdn-ctl->s1-sgw-u", "sdn-ctl->s1-pgw-u", "sdn-ctl->s2-sgw-u", "sdn-ctl->s2-pgw-u",
		"enb-a->mme", "enb-b->mme",
	}
	if got := linkNames(m.Net, 11); !reflect.DeepEqual(got, want) {
		t.Fatalf("Start links:\n got %q\nwant %q", got, want)
	}
	switches := []*sdn.Switch{m.CoreSGW, m.CorePGW, m.Sites[0].SGW, m.Sites[0].PGW, m.Sites[1].SGW, m.Sites[1].PGW}
	for dpid, node := range []string{"core-sgw-u", "core-pgw-u", "s1-sgw-u", "s1-pgw-u", "s2-sgw-u", "s2-pgw-u"} {
		if sw := switches[dpid]; sw.DPID != uint64(dpid+1) || sw.Node().Name() != node {
			t.Errorf("DPID %d is not %s", dpid+1, node)
		}
	}
	if len(m.ENBs) != 2 || m.ENBs[1].Name() != "enb-b" {
		t.Fatalf("Start made %d eNBs", len(m.ENBs))
	}

	// A site added after Start is wired at once: DPIDs 7/8, user planes,
	// controller channels.
	n := len(m.Net.Links())
	s3 := m.AddSite("s3")
	want = []string{
		"agg-router->s3-sgw-u", "s3-sgw-u->s3-pgw-u", "s3-pgw-u->s3-ci",
		"sdn-ctl->s3-sgw-u", "sdn-ctl->s3-pgw-u",
	}
	if got := linkNames(m.Net, n); !reflect.DeepEqual(got, want) {
		t.Fatalf("AddSite links:\n got %q\nwant %q", got, want)
	}
	if s3.SGW.DPID != 7 || s3.PGW.DPID != 8 {
		t.Errorf("s3 DPIDs = %d/%d, want 7/8", s3.SGW.DPID, s3.PGW.DPID)
	}
	if m.EPC.SGWC.Plane("s3-sgw") == nil || m.EPC.PGWC.Plane("s3-pgw") == nil {
		t.Error("s3's user planes are not registered")
	}
	if got := s3.CI.Node.Addr().String(); got != "10.5.0.10" {
		t.Errorf("s3 CI address = %s, want 10.5.0.10", got)
	}

	n = len(m.Net.Links())
	enbC := m.AddENB("enb-c")
	if got := linkNames(m.Net, n); !reflect.DeepEqual(got, []string{"enb-c->agg-router", "enb-c->mme"}) {
		t.Fatalf("AddENB links = %q, want backhaul then S1", got)
	}
	if enbC.Addr().String() != "10.1.0.3" || m.ENBs[2] != enbC {
		t.Errorf("enb-c at %s, index %d", enbC.Addr(), len(m.ENBs)-1)
	}
}

// TestTestbedLinkOrder pins NewTestbed's first 13 links: the metro's, then
// the background source, the internet side and the clouds. control-churn's
// fingerprint hashes the metric names these indices carry.
func TestTestbedLinkOrder(t *testing.T) {
	tb := newRetailTestbed(t, TestbedConfig{})
	want := []string{
		"enb->agg-router", "agg-router->core-sgw-u", "core-sgw-u->core-pgw-u",
		"core-pgw-u->inet-router", "agg-router->edge-1-sgw-u",
		"edge-1-sgw-u->edge-1-pgw-u", "edge-1-pgw-u->edge-1-ci",
		"agg-router->bg-src", "inet-router->bg-sink", "inet-router->central-mec",
		"inet-router->cloud-california", "inet-router->cloud-oregon", "inet-router->cloud-virginia",
	}
	if got := linkNames(tb.Net, 0)[:len(want)]; !reflect.DeepEqual(got, want) {
		t.Fatalf("NewTestbed links:\n got %q\nwant %q", got, want)
	}
}

// TestUEAddedAfterCellENBHandsOver adds a UE after a second cell exists:
// the UE must get a radio link to both cells, so it can hand over.
func TestUEAddedAfterCellENBHandsOver(t *testing.T) {
	tb := newRetailTestbed(t, TestbedConfig{})
	east := tb.AddCellENB("enb-east")
	b := tb.AddUE("late", geo.Point{X: 21, Y: 15})
	if err := tb.Attach(b); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if err := tb.Handover(b, east); err != nil {
		t.Fatalf("handover: %v", err)
	}
	if tb.EPC.Session(b.UE.IMSI).ENB != east {
		t.Fatal("session did not move to enb-east")
	}
}
