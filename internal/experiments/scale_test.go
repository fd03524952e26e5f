package experiments

import (
	"testing"

	"acacia/internal/pkt"
)

// TestScaleIdentityAcrossModes checks the quick shape exercises admission
// and placement, and that ScaleConfig.Workers — which every run ignores —
// leaves the rendered result unchanged: the benchmark still sets it and
// fails if two settings print different output.
func TestScaleIdentityAcrossModes(t *testing.T) {
	cfg := DefaultScaleConfig(false)
	r := runScale(777, cfg)
	if r.attached == 0 || r.framesDone == 0 {
		t.Fatalf("run idle: attached=%d framesDone=%d", r.attached, r.framesDone)
	}
	// The quick shape under-provisions capacity (4 x 26 < 120), so the
	// admission path must reject and the backoff must retry.
	if r.rejections == 0 || r.retries == 0 {
		t.Errorf("admission not exercised: rejections=%d retries=%d", r.rejections, r.retries)
	}
	if want := uint64(cfg.Sites * cfg.SiteCapacity); r.bound != want {
		t.Errorf("bound = %d, want %d (every capacity unit in use)", r.bound, want)
	}
	for s, st := range r.sites {
		if st.Bound > cfg.SiteCapacity {
			t.Errorf("site-%d bound %d exceeds capacity %d", s+1, st.Bound, cfg.SiteCapacity)
		}
	}
	render := func(workers int) string {
		c := cfg
		c.Workers = workers
		return RunScaleScenario(777, c).String()
	}
	if a, b := render(0), render(2); a != b {
		t.Errorf("Workers 2 renders differently from Workers 0:\n--- 0 ---\n%s--- 2 ---\n%s", a, b)
	}
}

// TestScaleFlashCrowdSpills checks the placement story: the flash crowd
// overloads its home site, which fills to capacity, and the UCMEC-style
// spill pushes the overflow onto other sites.
func TestScaleFlashCrowdSpills(t *testing.T) {
	cfg := DefaultScaleConfig(false)
	r := runScale(42, cfg)
	if got := r.sites[cfg.FlashSite].Bound; got != cfg.SiteCapacity {
		t.Errorf("flash site bound = %d, want full (%d)", got, cfg.SiteCapacity)
	}
	var served uint64
	for _, st := range r.sites {
		served += st.Served
	}
	if served == 0 || served < r.framesDone {
		t.Errorf("served = %d, framesDone = %d", served, r.framesDone)
	}
}

// TestScaleUniformArrivalNoRejections: with unbounded capacity every UE
// binds to its eNB-local site and admission never rejects.
func TestScaleUniformArrivalNoRejections(t *testing.T) {
	cfg := DefaultScaleConfig(false)
	cfg.Arrival = "uniform"
	cfg.SiteCapacity = 0 // unbounded
	r := runScale(7, cfg)
	if r.rejections != 0 || r.retries != 0 {
		t.Errorf("unbounded capacity rejected: rejections=%d retries=%d", r.rejections, r.retries)
	}
	if r.bound != uint64(cfg.UEs) {
		t.Errorf("bound = %d, want every UE (%d)", r.bound, cfg.UEs)
	}
	for s, st := range r.sites {
		if st.Bound == 0 {
			t.Errorf("site-%d has no bindings under uniform arrivals", s+1)
		}
	}
}

// TestScaleExperimentQuick runs the registered experiment end to end and
// checks the assembled curve and placement table.
func TestScaleExperimentQuick(t *testing.T) {
	r, err := Run("scale", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 2 {
		t.Fatalf("tables = %d, want curve + placement", len(r.Tables))
	}
	if len(r.Tables[0].Rows) == 0 {
		t.Fatal("empty UEs-vs-latency curve")
	}
	cfg := DefaultScaleConfig(false)
	if len(r.Tables[1].Rows) != cfg.Sites {
		t.Errorf("placement rows = %d, want %d sites", len(r.Tables[1].Rows), cfg.Sites)
	}
}

// TestRunScaleScenarioStandalone exercises the acacia-sim -scale entry
// point with overridden knobs.
func TestRunScaleScenarioStandalone(t *testing.T) {
	cfg := DefaultScaleConfig(false)
	cfg.UEs = 60
	cfg.Sites = 3
	cfg.SiteCapacity = 25
	cfg.Arrival = "diurnal"
	r := RunScaleScenario(5, cfg)
	if r == nil || len(r.Tables) != 2 {
		t.Fatalf("standalone scenario result = %+v", r)
	}
	if len(r.Tables[1].Rows) != 3 {
		t.Errorf("placement rows = %d, want 3", len(r.Tables[1].Rows))
	}
}

// TestScaleUEAddrInjective: the third octet used to wrap at k = 63,750 and
// hand ue-63751 the address of ue-1. Every population Validate admits must
// get distinct addresses, and the first 62,500 keep the ones they had.
func TestScaleUEAddrInjective(t *testing.T) {
	seen := make(map[pkt.Addr]int, 200001)
	for k := 0; k <= 200000; k++ {
		a := scaleUEAddr(k)
		if prev, dup := seen[a]; dup {
			t.Fatalf("UE %d and UE %d share %v", prev, k, a)
		}
		seen[a] = k
		if k < 62500 && a != pkt.AddrFrom(172, 16, byte(1+k/250), byte(1+k%250)) {
			t.Fatalf("UE %d moved to %v", k, a)
		}
	}
	last := 16*62500 - 1
	if a := scaleUEAddr(last); a != pkt.AddrFrom(172, 31, 250, 250) {
		t.Errorf("last addressable UE is at %v, want 172.31.250.250", a)
	}
	for _, tc := range []struct {
		cfg ScaleConfig
		ok  bool
	}{
		{ScaleConfig{UEs: 100000, Sites: 48, ENBsPerSite: 2}, true},
		{ScaleConfig{UEs: last + 1}, true},
		{ScaleConfig{UEs: last + 2}, false},
		{ScaleConfig{Sites: 226}, false},
		{ScaleConfig{ENBsPerSite: 255}, false},
		{ScaleConfig{}, true},
	} {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.cfg, err, tc.ok)
		}
	}
}
