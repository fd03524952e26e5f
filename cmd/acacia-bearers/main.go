// Command acacia-bearers traces the EPC control plane through a full
// bearer lifecycle: attach, dedicated MEC bearer activation, idle release
// and service-request promotion, printing every serialized control message
// with its protocol, name and wire size — the data behind the paper's §4
// control-overhead analysis.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"acacia"
	"acacia/internal/geo"
	"acacia/internal/netsim"
)

func main() {
	idle := flag.Duration("idle", 3*time.Second, "LTE inactivity timeout (paper: 11.576s)")
	csv := flag.Bool("csv", false, "emit the per-message trace as CSV on stdout (banners and summary go to stderr)")
	flag.Parse()

	tb := acacia.NewTestbed(acacia.TestbedConfig{Seed: 7, IdleTimeout: *idle})
	tb.EPC.Acct.Trace = true
	b := tb.UEs[0]
	tb.MoveUE(b, geo.Point{X: 21, Y: 15})

	// In CSV mode only the trace rows go to stdout; narration moves to
	// stderr so the output stays machine-readable.
	text := os.Stdout
	if *csv {
		text = os.Stderr
	}

	fmt.Fprintln(text, "== attach ==")
	if err := tb.Attach(b); err != nil {
		panic(err)
	}
	if err := tb.StartRetailApp(b, "electronics"); err != nil {
		panic(err)
	}
	tb.Run(3 * time.Second)

	fmt.Fprintln(text, "== quiesce; waiting for the inactivity timer ==")
	b.Frontend.Stop()
	b.D2D.SetPos(geo.Point{X: 5000, Y: 5000})
	tb.Run(*idle + 3*time.Second)

	fmt.Fprintln(text, "== uplink data: promotion ==")
	pg := netsim.NewPinger(&b.UE.Host, tb.CloudHosts["california"].Node.Addr(), 64, 7400)
	pg.SendOne()
	tb.Run(3 * time.Second)

	fmt.Fprintln(text, "== S1 handover to a neighbour cell ==")
	east := tb.AddNeighborENB("enb-east")
	if err := tb.Handover(b, east); err != nil {
		panic(err)
	}
	tb.Run(time.Second)

	fmt.Fprintln(text, "== UE-initiated detach ==")
	if err := b.UE.Detach(nil); err != nil {
		panic(err)
	}
	tb.Run(time.Second)

	// Transport columns: seq is the per-peer transaction sequence number,
	// path/link the endpoints and wire the message crossed, queue_us the
	// transmit-queue wait of the delivered attempt, retrans how many
	// retransmissions the exchange needed (0 on healthy links). OpenFlow
	// rows leave them blank: the SDN controller accounts its channel
	// separately.
	if *csv {
		fmt.Println("t_s,protocol,message,bytes,seq,path,link,queue_us,retrans")
	} else {
		fmt.Println("\ntime        protocol    message                          bytes  seq  path              queue_us  retrans")
	}
	for _, rec := range tb.EPC.Acct.Log {
		if *csv {
			fmt.Printf("%.3f,%s,%s,%d,%d,%s,%s,%d,%d\n",
				rec.At.Seconds(), rec.Proto, rec.Name, rec.Bytes,
				rec.Seq, rec.Path, rec.Link, rec.QueueWait.Microseconds(), rec.Retrans)
		} else {
			fmt.Printf("%9.3fs  %-10s  %-32s %5d %4d  %-16s %9d %8d\n",
				rec.At.Seconds(), rec.Proto, rec.Name, rec.Bytes,
				rec.Seq, rec.Path, rec.QueueWait.Microseconds(), rec.Retrans)
		}
	}

	// The summary comes from the telemetry registry — the same counters
	// the overhead experiment reads — not from re-tallying the trace.
	snap := tb.Eng.Metrics().Snapshot()
	fmt.Fprintf(text, "\nsummary: S1AP %d msgs / %d B; GTPv2 %d msgs / %d B; OpenFlow %d msgs / %d B\n",
		snap.CounterValue("epc/s1ap/msgs"), snap.CounterValue("epc/s1ap/bytes"),
		snap.CounterValue("epc/gtpv2/msgs"), snap.CounterValue("epc/gtpv2/bytes"),
		snap.CounterValue("sdn/controller/sent"), snap.CounterValue("sdn/controller/sent-bytes"))
	fmt.Fprintf(text, "paper §4 per release/re-establish cycle: SCTP 7 (1138 B), GTPv2 4 (352 B), OpenFlow 4 (1424 B)\n")
}
