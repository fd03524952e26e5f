package core

import (
	"fmt"
	"maps"
	"testing"
	"time"

	"acacia/internal/pkt"
)

// mrsRig is one attached UE on a testbed with two edge sites, driven
// straight through the MRS (no device manager). edge-1 serves "enb", edge-2
// serves "enb-2". seq orders the rig's calls and callbacks, so a callback
// can tell whether its request was issued before a release succeeded.
type mrsRig struct {
	tb *Testbed
	ip pkt.Addr

	seq int
	// notifies counts request callbacks (a request's own answer and the
	// failover or relocation results the MRS reports through it); late
	// counts those that fired, for a request issued before a release, after
	// that release succeeded. errs holds each callback's error.
	notifies, late int
	errs           []error
	// releases counts release callbacks; releasedAt holds the seq of each
	// that reported success.
	releases   int
	releasedAt []int

	// movesEnded counts the moves (relocations and failovers) that have
	// ended, by answering the requester or by a release taking them over:
	// the MRS's counters beyond it are the move under way. releasing is
	// set while an accepted release runs, and inCall while the rig is in
	// an MRS call, so a callback can tell a synchronous answer.
	movesEnded        uint64
	releasing, inCall bool
	// violations lists each request answer that named a site down when
	// the request was issued or one the UE was moving off, and each
	// release of a bound or moving UE that failed.
	violations []string
	// refused holds each request refusal that no other request's answer
	// stands for: one that came while no plain activation was under way.
	refused []error
}

// moving reports whether a relocation or failover is under way: its
// termination, or the replayed request's activation after it.
func (r *mrsRig) moving() bool { return r.tb.MRS.Failovers+r.tb.MRS.Relocations > r.movesEnded }

// siteOf names the edge site whose CI server is addr.
func (r *mrsRig) siteOf(addr pkt.Addr) string {
	for _, s := range r.tb.MRS.services[RetailServiceName].sites {
		if s.CIServer == addr {
			return s.Name
		}
	}
	return addr.String()
}

func newMRSRig(t *testing.T) *mrsRig {
	t.Helper()
	tb := newRetailTestbed(t, TestbedConfig{NumUEs: 1})
	tb.AddEdgeSite("edge-2")
	tb.BindSiteToENB("edge-2", "enb-2")
	ue := tb.UEs[0]
	if err := tb.Attach(ue); err != nil {
		t.Fatal(err)
	}
	return &mrsRig{tb: tb, ip: ue.UE.Addr()}
}

// bound makes the rig's UE bound to edge-1 before a run starts.
func (r *mrsRig) bound(t *testing.T) {
	t.Helper()
	r.request()
	r.tb.Run(2 * time.Second)
	if s := r.tb.MRS.Binding(r.ip); s == nil || s.Name != "edge-1" {
		t.Fatalf("initial binding = %+v, want edge-1", s)
	}
}

func (r *mrsRig) request() {
	r.seq++
	issued := r.seq
	m := r.tb.MRS
	down := maps.Clone(m.downSites)
	// A request during another request's activation is refused, and that
	// request's answer reports the binding.
	b := m.bindings[r.ip]
	otherAnswers := b != nil && b.state == activating
	r.inCall = true
	m.RequestConnectivity(RetailServiceName, r.ip, "enb", func(server pkt.Addr, err error) {
		r.seq++
		r.notifies++
		r.errs = append(r.errs, err)
		for _, at := range r.releasedAt {
			if issued < at {
				r.late++
			}
		}
		if !r.inCall && r.moving() {
			r.movesEnded++ // the replayed request answers the move
		}
		if err != nil {
			if !otherAnswers {
				r.refused = append(r.refused, err)
			}
			return
		}
		// A site that fails while the activation toward it runs is still
		// answered (TestSiteFailsDuringActivation), then failed over; a
		// site known down at the request, or being left, never is.
		name := r.siteOf(server)
		if down[name] {
			r.violations = append(r.violations, fmt.Sprintf("a request answered %s, down when it was issued", name))
		}
		if b := m.bindings[r.ip]; b != nil && b.state == moving && b.site.CIServer == server {
			r.violations = append(r.violations, fmt.Sprintf("a request answered %s, which the UE is moving off", name))
		}
	})
	r.inCall = false
}

func (r *mrsRig) release() {
	r.seq++
	b := r.tb.MRS.bindings[r.ip]
	mustSucceed := !r.releasing && (b != nil && b.state == bound || r.moving())
	answered := false
	r.tb.MRS.ReleaseConnectivity(r.ip, func(err error) {
		answered, r.releasing = true, false
		r.seq++
		r.releases++
		if err == nil {
			r.releasedAt = append(r.releasedAt, r.seq)
			if r.moving() {
				r.movesEnded++ // the release took the move over
			}
		} else if mustSucceed {
			r.violations = append(r.violations, fmt.Sprintf("a release of a bound or moving UE failed: %v", err))
		}
	})
	if !answered {
		r.releasing = true
	}
}

func (r *mrsRig) relocate() { r.tb.MRS.HandleHandover(r.ip, "enb-2") }

func (r *mrsRig) failover() { r.failSite(0) }

// failSite reports the path to edge-(i+1)'s CI server down.
func (r *mrsRig) failSite(i int) { r.tb.MRS.HandlePathEvent(r.tb.Sites[i].CI.Node.Addr(), true) }

// check requires the binding, the site loads, the installed dedicated
// bearer and the MRS's outstanding record to agree, and no request
// callback to have fired after a release that succeeded.
func (r *mrsRig) check(t *testing.T, label string) {
	t.Helper()
	m := r.tb.MRS
	site := m.Binding(r.ip)
	loads := [2]int{m.SiteLoad("edge-1"), m.SiteLoad("edge-2")}
	bearers := r.tb.EPC.Session(r.tb.UEs[0].UE.IMSI).DedicatedBearers()
	// n is the bearers, records and table entries the binding accounts for.
	var wantLoads [2]int
	n := 0
	if site != nil {
		n = 1
		if site.Name == "edge-2" {
			wantLoads[1] = 1
		} else {
			wantLoads[0] = 1
		}
	}
	if loads != wantLoads || len(bearers) != n || m.records.Outstanding() != n || len(m.bindings) != n {
		t.Errorf("%s: binding %v, loads %v, %d dedicated bearers, %d records out, %d table entries; want loads %v and %d of each",
			label, site, loads, len(bearers), m.records.Outstanding(), len(m.bindings), wantLoads, n)
	} else if site != nil && bearers[0].CIServer != site.CIServer {
		t.Errorf("%s: bound to %s but the bearer goes to %v", label, site.Name, bearers[0].CIServer)
	}
	if r.late != 0 {
		t.Errorf("%s: %d request callbacks fired after a release succeeded", label, r.late)
	}
	if site != nil && len(r.refused) > 0 {
		t.Errorf("%s: a request was refused (%v), but the UE ends bound to %s", label, r.refused, site.Name)
	}
	for _, v := range r.violations {
		t.Errorf("%s: %s", label, v)
	}
}

// checkReleased requires one successful release and no request callback
// beyond the bind's, with the UE left unbound.
func (r *mrsRig) checkReleased(t *testing.T) {
	t.Helper()
	r.check(t, "settled")
	if r.tb.MRS.Binding(r.ip) != nil {
		t.Errorf("UE still bound to %s after a release that succeeded", r.tb.MRS.Binding(r.ip).Name)
	}
	if r.releases != 1 || len(r.releasedAt) != 1 {
		t.Errorf("release callbacks = %d (%d successful), want 1 successful", r.releases, len(r.releasedAt))
	}
	if r.notifies != 1 {
		t.Errorf("request callback fired %d times, want once (the bind)", r.notifies)
	}
}

// TestReleaseThenFailover fails the serving site while a release's Delete
// Bearer chain is running: the failover skips the releasing binding, so
// the release ends it and nothing is re-activated on edge-2.
func TestReleaseThenFailover(t *testing.T) {
	r := newMRSRig(t)
	r.bound(t)
	r.release()
	r.tb.Run(time.Millisecond)
	if r.releases != 0 {
		t.Fatal("release finished before the site failed")
	}
	r.failover()
	r.tb.Run(3 * time.Second)
	r.checkReleased(t)
}

// TestFailoverThenRelease releases while a failover's termination is in
// flight: the release takes the move over, so the binding ends when the
// termination does, the release gets nil, and no request is replayed.
func TestFailoverThenRelease(t *testing.T) {
	r := newMRSRig(t)
	r.bound(t)
	r.failover()
	r.tb.Run(time.Millisecond)
	if r.tb.MRS.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1 under way", r.tb.MRS.Failovers)
	}
	r.release()
	r.tb.Run(3 * time.Second)
	r.checkReleased(t)
}

// TestRequestDuringRelease requests while a release's Delete Bearer chain
// runs: the request fails, since the binding it would reuse is ending, and
// the release ends it.
func TestRequestDuringRelease(t *testing.T) {
	r := newMRSRig(t)
	r.bound(t)
	r.release()
	r.tb.Run(time.Millisecond)
	r.request()
	r.tb.Run(3 * time.Second)
	if len(r.errs) != 2 || r.errs[0] != nil || r.errs[1] == nil {
		t.Fatalf("request callbacks got %v, want the bind's nil, then an error", r.errs)
	}
	if s := r.tb.MRS.Binding(r.ip); s != nil {
		t.Errorf("UE bound to %s after the release", s.Name)
	}
	r.check(t, "settled")
}

// TestRequestDuringFailover requests while a failover's termination runs:
// the request takes over the binding's callback without an answer, so the
// requester hears once, from the replay, and about edge-2.
func TestRequestDuringFailover(t *testing.T) {
	r := newMRSRig(t)
	r.bound(t)
	r.failover()
	r.tb.Run(time.Millisecond)
	var answers []pkt.Addr
	r.tb.MRS.RequestConnectivity(RetailServiceName, r.ip, "enb", func(server pkt.Addr, err error) {
		if err != nil {
			t.Errorf("request during failover: %v", err)
		}
		answers = append(answers, server)
	})
	r.tb.Run(3 * time.Second)
	if want := pkt.AddrFrom(10, 4, 0, 10); len(answers) != 1 || answers[0] != want {
		t.Errorf("request callbacks got %v, want one, with %v (edge-2)", answers, want)
	}
	if r.notifies != 1 {
		t.Errorf("the bind's callback fired %d times, want once (the bind)", r.notifies)
	}
	r.check(t, "settled")
}

// TestRequestDuringReactivation requests after a relocation's termination
// ended, while the replayed request activates its bearer on edge-2: the
// request adopts the binding's callback, as during the termination, so the
// requester hears once, from the replay, and about edge-2, where the UE is
// bound.
func TestRequestDuringReactivation(t *testing.T) {
	r := newMRSRig(t)
	r.bound(t)
	r.relocate()
	r.tb.Run(8 * time.Millisecond)
	if r.tb.MRS.Relocations != 1 || r.tb.MRS.Binding(r.ip) != nil || r.notifies != 1 {
		t.Fatalf("relocations %d, binding %v, %d callbacks: want the replayed activation under way",
			r.tb.MRS.Relocations, r.tb.MRS.Binding(r.ip), r.notifies)
	}
	var answers []pkt.Addr
	r.tb.MRS.RequestConnectivity(RetailServiceName, r.ip, "enb", func(server pkt.Addr, err error) {
		if err != nil {
			t.Errorf("request during re-activation: %v", err)
		}
		answers = append(answers, server)
	})
	r.tb.Run(3 * time.Second)
	s := r.tb.MRS.Binding(r.ip)
	if s == nil || s.Name != "edge-2" {
		t.Fatalf("binding = %+v, want edge-2", s)
	}
	if len(answers) != 1 || answers[0] != s.CIServer {
		t.Errorf("request callbacks got %v, want one, with %v (edge-2)", answers, s.CIServer)
	}
	if r.notifies != 1 {
		t.Errorf("the bind's callback fired %d times, want once (the bind)", r.notifies)
	}
	r.check(t, "settled")
}

// TestReleaseDuringReactivation releases after a relocation's termination
// ended, while the replayed request activates its bearer on edge-2: the
// release wins, as during the termination, so the binding ends once the
// activation does, and the requester hears nothing more.
func TestReleaseDuringReactivation(t *testing.T) {
	r := newMRSRig(t)
	r.bound(t)
	r.relocate()
	r.tb.Run(8 * time.Millisecond)
	if r.tb.MRS.Relocations != 1 || r.tb.MRS.Binding(r.ip) != nil || r.notifies != 1 {
		t.Fatalf("relocations %d, binding %v, %d callbacks: want the replayed activation under way",
			r.tb.MRS.Relocations, r.tb.MRS.Binding(r.ip), r.notifies)
	}
	r.release()
	r.tb.Run(3 * time.Second)
	r.checkReleased(t)
}

// TestSiteFailsDuringActivation fails edge-1 while the bearer activation
// toward it runs: the request is answered with edge-1, and the binding is
// failed over to edge-2 as soon as it is live.
func TestSiteFailsDuringActivation(t *testing.T) {
	r := newMRSRig(t)
	r.request()
	r.tb.Run(2 * time.Millisecond)
	if r.notifies != 0 {
		t.Fatal("activation finished before the site failed")
	}
	r.failover()
	r.tb.Run(3 * time.Second)
	if s := r.tb.MRS.Binding(r.ip); s == nil || s.Name != "edge-2" {
		t.Errorf("binding = %+v, want edge-2", s)
	}
	if r.tb.MRS.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", r.tb.MRS.Failovers)
	}
	if len(r.errs) != 2 || r.errs[0] != nil || r.errs[1] != nil {
		t.Errorf("request callbacks got %v, want two successes (bind, failover)", r.errs)
	}
	r.check(t, "settled")
}

// TestMoveTwice relocates edge-1 -> edge-2, then fails edge-2: each move
// emits its own start and done once, and the requester hears once per move.
func TestMoveTwice(t *testing.T) {
	r := newMRSRig(t)
	r.bound(t)
	r.relocate()
	r.tb.Run(3 * time.Second)
	if s := r.tb.MRS.Binding(r.ip); s == nil || s.Name != "edge-2" {
		t.Fatalf("after relocation: binding = %+v, want edge-2", s)
	}
	r.failSite(1)
	r.tb.Run(3 * time.Second)
	if s := r.tb.MRS.Binding(r.ip); s == nil || s.Name != "edge-1" {
		t.Errorf("after failover: binding = %+v, want edge-1", s)
	}
	counts := map[string]int{}
	tl := r.tb.Eng.Metrics().Events()
	for i := 0; i < tl.Len(); i++ {
		ev := tl.At(i)
		if ev.Scope == "core/mrs" {
			counts[ev.Name]++
		}
	}
	for _, name := range []string{"relocate-start", "relocate-done", "failover-start", "failover-done"} {
		if counts[name] != 1 {
			t.Errorf("%s emitted %d times, want once (events %v)", name, counts[name], counts)
		}
	}
	if r.notifies != 3 {
		t.Errorf("request callback fired %d times, want 3 (bind, relocation, failover)", r.notifies)
	}
	r.check(t, "settled")
}

// mrsStarters are the four procedures the pair sweep overlaps. bind says
// whether the UE starts bound to edge-1.
var mrsStarters = []struct {
	name  string
	bind  bool
	start func(*mrsRig)
}{
	{"request", false, (*mrsRig).request},
	{"release", true, (*mrsRig).release},
	{"relocate", true, (*mrsRig).relocate},
	{"failover", true, (*mrsRig).failover},
}

// legBoundaries runs starter a alone and returns the offsets, from its
// start, of every control message its procedure sends.
func legBoundaries(t *testing.T, a int) []time.Duration {
	r := newMRSRig(t)
	if mrsStarters[a].bind {
		r.bound(t)
	}
	acct := r.tb.EPC.Acct
	acct.Trace, acct.Log = true, acct.Log[:0]
	t0 := r.tb.Eng.Now()
	mrsStarters[a].start(r)
	r.tb.Run(3 * time.Second)
	var offs []time.Duration
	for _, rec := range acct.Log {
		off := rec.At.Sub(t0)
		if len(offs) == 0 || offs[len(offs)-1] != off {
			offs = append(offs, off)
		}
	}
	if len(offs) == 0 {
		t.Fatalf("%s sent no control message", mrsStarters[a].name)
	}
	return offs
}

// TestMRSPairSweep overlaps every ordered pair (A, B) of the MRS's
// procedures on one UE and two sites: B starts at each of A's leg
// boundaries and 1 ns either side of each. Whatever the interleaving, once
// both settle the binding, the site loads, the dedicated bearer and the
// binding record must agree, and no request callback may fire after a
// release succeeded. Along the way no answer may name a site that was down
// at the request or that the UE is moving off, and a release of a bound or
// moving UE must succeed.
func TestMRSPairSweep(t *testing.T) {
	for a := range mrsStarters {
		legs := legBoundaries(t, a)
		for b := range mrsStarters {
			for _, leg := range legs {
				for _, off := range []time.Duration{leg - 1, leg, leg + 1} {
					r := newMRSRig(t)
					if mrsStarters[a].bind {
						r.bound(t)
					}
					sa, sb := mrsStarters[a].start, mrsStarters[b].start
					base := time.Nanosecond // room for B to lead A by 1 ns
					r.tb.Eng.Schedule(base, func() { sa(r) })
					r.tb.Eng.Schedule(base+off, func() { sb(r) })
					r.tb.Run(3 * time.Second)
					r.check(t, fmt.Sprintf("%s then %s at %v", mrsStarters[a].name, mrsStarters[b].name, off))
				}
			}
		}
	}
}
