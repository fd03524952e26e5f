package fault

import (
	"testing"
	"time"

	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sim"
)

// rig is a two-host network with an injector over the single link.
type rig struct {
	eng  *sim.Engine
	a, b *netsim.Host
	link *netsim.Link
	in   *Injector
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	na := nw.AddNode("a", pkt.AddrFrom(10, 0, 0, 1))
	nb := nw.AddNode("b", pkt.AddrFrom(10, 0, 0, 2))
	l := nw.ConnectSymmetric(na, nb, netsim.LinkConfig{Propagation: time.Millisecond})
	in := NewInjector(eng)
	in.RegisterLink("ab", l)
	return &rig{eng: eng, a: netsim.NewHost(na), b: netsim.NewHost(nb), link: l, in: in}
}

// down reports whether the link is failed: a packet a offers now is
// dropped at the transmitter.
func (r *rig) down() bool {
	dropped := r.link.StatsAB().Dropped
	r.a.Send(r.b.Node.Addr(), 1, 80, pkt.ProtoUDP, 100, nil)
	return r.link.StatsAB().Dropped > dropped
}

// sendAt schedules a packet from a to b at the given offset.
func (r *rig) sendAt(at time.Duration) {
	r.eng.Schedule(at, func() {
		r.a.Send(r.b.Node.Addr(), 1, 80, pkt.ProtoUDP, 100, nil)
	})
}

func TestLinkDownWindow(t *testing.T) {
	r := newRig(t)
	var got []sim.Time
	r.b.Listen(80, netsim.AppFunc(func(_ *netsim.Host, _ *netsim.Packet) {
		got = append(got, r.eng.Now())
	}))
	err := r.in.Apply(Plan{Events: []Event{
		{Kind: LinkDown, Target: "ab", At: 10 * time.Millisecond, Duration: 20 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r.sendAt(5 * time.Millisecond)  // before window: delivered
	r.sendAt(15 * time.Millisecond) // inside window: dropped
	r.sendAt(40 * time.Millisecond) // after recovery: delivered
	r.eng.Run()

	if len(got) != 2 {
		t.Fatalf("deliveries = %v, want 2", got)
	}
	if got[0] != sim.Time(6*time.Millisecond) || got[1] != sim.Time(41*time.Millisecond) {
		t.Errorf("delivery times = %v, want [6ms 41ms]", got)
	}
	st := r.link.StatsAB()
	if st.Dropped != 1 || st.Sent != 2 {
		t.Errorf("stats = %+v, want 1 dropped / 2 sent / 3 offered", st)
	}

	// The timeline records the injection and the recovery under fault/.
	var inject, recover int
	tl := r.eng.Metrics().Events()
	for i := 0; i < tl.Len(); i++ {
		ev := tl.At(i)
		if ev.Scope != "fault" {
			continue
		}
		switch ev.Name {
		case "inject":
			inject++
			if ev.Detail != "link-down ab" {
				t.Errorf("inject detail = %q", ev.Detail)
			}
			if ev.At != 10*time.Millisecond {
				t.Errorf("inject at %v, want 10ms", ev.At)
			}
		case "recover":
			recover++
			if ev.At != 30*time.Millisecond {
				t.Errorf("recover at %v, want 30ms", ev.At)
			}
		}
	}
	if inject != 1 || recover != 1 {
		t.Errorf("timeline inject/recover = %d/%d, want 1/1", inject, recover)
	}
}

func TestOverlappingWindowsHoldLinkDown(t *testing.T) {
	r := newRig(t)
	err := r.in.Apply(Plan{Events: []Event{
		{Kind: LinkDown, Target: "ab", At: 10 * time.Millisecond, Duration: 40 * time.Millisecond},
		{Kind: LinkDown, Target: "ab", At: 20 * time.Millisecond, Duration: 10 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// At 35ms the inner window has recovered but the outer one still holds
	// the link down; at 55ms both are done.
	r.eng.Schedule(35*time.Millisecond, func() {
		if !r.down() {
			t.Error("link repaired while outer window still active")
		}
	})
	r.eng.Schedule(55*time.Millisecond, func() {
		if r.down() {
			t.Error("link still down after all windows recovered")
		}
	})
	r.eng.Run()
}

func TestLossBurstWindow(t *testing.T) {
	r := newRig(t)
	var got int
	r.b.Listen(80, netsim.AppFunc(func(_ *netsim.Host, _ *netsim.Packet) { got++ }))
	err := r.in.Apply(Plan{Events: []Event{
		{Kind: LinkLoss, Target: "ab", At: 10 * time.Millisecond, Duration: 10 * time.Millisecond, Loss: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r.sendAt(5 * time.Millisecond)
	r.sendAt(15 * time.Millisecond) // burst with Loss=1: certainly dropped
	r.sendAt(25 * time.Millisecond)
	r.eng.Run()
	if got != 2 {
		t.Errorf("delivered %d, want 2", got)
	}
	if st := r.link.StatsAB(); st.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", st.Dropped)
	}
}

func TestApplyRejectsUnknownTargets(t *testing.T) {
	r := newRig(t)
	if err := r.in.Apply(Plan{Events: []Event{{Kind: LinkDown, Target: "nope"}}}); err == nil {
		t.Error("unknown link accepted")
	}
	if err := r.in.Apply(Plan{Events: []Event{{Kind: SiteCrash, Target: "nope"}}}); err == nil {
		t.Error("unknown site accepted")
	}
	if err := r.in.Apply(Plan{Events: []Event{{Kind: LinkLoss, Target: "ab", Loss: 0}}}); err == nil {
		t.Error("loss burst without probability accepted")
	}
	// A rejected plan schedules nothing.
	r.eng.Run()
	if n := r.in.injected.Value(); n != 0 {
		t.Errorf("injected = %d after rejected plans, want 0", n)
	}
}

func TestPermanentFaultNeverRecovers(t *testing.T) {
	r := newRig(t)
	if err := r.in.Apply(Plan{Events: []Event{
		{Kind: LinkDown, Target: "ab", At: 10 * time.Millisecond}, // Duration 0
	}}); err != nil {
		t.Fatal(err)
	}
	r.eng.RunFor(5 * time.Second)
	if !r.down() {
		t.Error("permanent fault recovered")
	}
	if n := r.in.recovered.Value(); n != 0 {
		t.Errorf("recovered = %d, want 0", n)
	}
}
