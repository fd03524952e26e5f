package epc

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"acacia/internal/pkt"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/procedures.golden from this run")

// TestProcedureTraceGolden pins every control message the EPC procedures
// send — order, virtual send time, encoded size, transport sequence, path,
// link, queue wait and retransmissions — across one scripted lifecycle:
// attach, dedicated bearer, idle release, paging promotion, handover out and
// back, bearer deletion, detach, then a batched attach and detach of three
// UEs. A refactor of the procedures must leave the file unchanged; rewrite
// it with -update only for an intended change to the signalling.
func TestProcedureTraceGolden(t *testing.T) {
	tb := buildTestbed(t, 3*time.Second)
	enb2 := withSecondENB(t, tb)
	tb.core.Acct.Trace = true

	tb.attach(t)
	tb.dedicate(t)
	sess := tb.core.Session(tb.ue.IMSI)

	tb.eng.RunFor(5 * time.Second)
	if sess.State != StateIdle {
		t.Fatalf("state = %v after inactivity, want idle", sess.State)
	}
	tb.inetHost.Send(tb.ue.Addr(), 9999, 8888, pkt.ProtoUDP, 200, nil)
	tb.eng.RunFor(time.Second)
	if p := traced(tb, pkt.S1APPaging); sess.State != StateConnected || p != 1 {
		t.Fatalf("after paging: state = %v, pagings = %d", sess.State, p)
	}

	for _, target := range []*ENB{enb2, tb.enb} {
		var hoErr error
		done := false
		tb.core.MME.Handover(sess, target, func(err error) { hoErr, done = err, true })
		tb.eng.RunFor(500 * time.Millisecond)
		if !done || hoErr != nil {
			t.Fatalf("handover to %s: done=%v err=%v", target.Name(), done, hoErr)
		}
	}

	var delErr error
	deleted := false
	tb.core.PCRF.RequestBearerTermination(tb.ue.Addr(), tb.ciHost.Node.Addr(), func(_ any, err error) { delErr, deleted = err, true }, nil)
	tb.eng.RunFor(500 * time.Millisecond)
	if !deleted || delErr != nil {
		t.Fatalf("bearer deletion: done=%v err=%v", deleted, delErr)
	}

	detached := false
	if err := tb.ue.Detach(func() { detached = true }); err != nil {
		t.Fatal(err)
	}
	tb.eng.RunFor(time.Second)
	if !detached || tb.ue.attached {
		t.Fatalf("detach: done=%v attached=%v", detached, tb.ue.attached)
	}

	cohort := tb.addBatchUEs(2)
	outcomes := 0
	count := func(ue *UE, err error) {
		if err != nil {
			t.Fatalf("batch member %s: %v", ue.IMSI, err)
		}
		outcomes++
	}
	tb.core.AttachBatch(cohort, "core-sgw", "core-pgw", count)
	tb.eng.RunFor(time.Second)
	tb.core.DetachBatch(cohort, count)
	tb.eng.RunFor(time.Second)
	if outcomes != 2*len(cohort) {
		t.Fatalf("batch outcomes = %d, want %d", outcomes, 2*len(cohort))
	}

	var b strings.Builder
	for _, r := range tb.core.Acct.Log {
		fmt.Fprintf(&b, "%v %s %s %d %d %s %s %v %d\n",
			r.At, r.Proto, r.Name, r.Bytes, r.Seq, r.Path, r.Link, r.QueueWait, r.Retrans)
	}
	const golden = "testdata/procedures.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("trace diverges at record %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("trace has %d records, golden %d", len(gotLines)-1, len(wantLines)-1)
	}
}
