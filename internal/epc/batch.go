package epc

import "fmt"

// Batched session procedures. At metro scale the arrival process delivers
// whole cohorts of UEs inside one scheduling window, and running the full
// four-message S11/S5 Create Session chain once per UE makes the
// control-plane transaction count the bottleneck long before the data
// plane saturates. AttachBatch and DetachBatch run the legs of UE.Attach
// and UE.Detach (mme.go) over a cohort of many: one Create/Modify/Delete
// Session exchange carries the bearer contexts of the whole cohort (the
// extra members ride the message's batch-IMSI IEs), while the radio-side
// S1AP exchanges — inherently per-UE, each against its own eNB context —
// stay individual. For a cohort of N the attach GTPv2 message count drops
// from 6N to 6 (and detach from 4N to 4), at unchanged per-UE S1AP cost.
// A transport timeout on a shared leg fails the whole cohort: the cohort
// is one control-plane transaction.

// AttachBatch runs the initial attach for a cohort of UEs arriving in the
// same window, all against the named default user planes. UEs that fail
// validation (no radio link, already attached, unknown IMSI) are reported
// through done immediately and do not hold up the rest of the cohort. done
// (may be nil) fires once per UE with the attach outcome.
func (c *Core) AttachBatch(ues []*UE, sgwPlane, pgwPlane string, done func(*UE, error)) {
	if done == nil {
		done = func(*UE, error) {}
	}
	planes, perr := c.internPlanes(sgwPlane, pgwPlane)
	if perr != nil {
		for _, ue := range ues {
			done(ue, perr)
		}
		return
	}

	// Validate and open the cohort's sessions before any message is sent
	// (UE.Attach validates at the MME instead). Validation failures are
	// per-UE outcomes; they never abort the batch.
	co := c.takeCohort(false, true)
	for _, ue := range ues {
		switch {
		case ue.enb == nil:
			done(ue, fmt.Errorf("epc: UE %s has no radio connection", ue.IMSI))
		case ue.attached || c.sessions[ue.IMSI] != nil:
			done(ue, fmt.Errorf("epc: IMSI %s already attached", ue.IMSI))
		default:
			if _, ok := c.HSS.Lookup(ue.IMSI); !ok {
				done(ue, fmt.Errorf("epc: IMSI %s unknown to HSS", ue.IMSI))
				continue
			}
			co.members = append(co.members, c.newSession(ue, planes))
		}
	}
	// One procedure spans the whole cohort: a terminal transport failure on
	// any shared leg unwinds every half-built session and reports the error
	// to every member.
	co.report, co.stage, co.pending = done, 1, len(co.members)
	if len(co.members) == 0 {
		co.finish(nil)
		return
	}

	// Radio arrivals: each UE's S1AP InitialUEMessage from its own eNB.
	// They fan in; the shared legs start once the last one lands at the
	// MME.
	for _, m := range co.members {
		co.sendAttachRequest(m.sess.UE, m.sess.ENBUEID)
	}
}

// DetachBatch detaches a cohort of attached UEs with one shared Delete
// Session chain on S11/S5 and per-UE S1AP context releases. done (may be
// nil) fires once per UE.
func (c *Core) DetachBatch(ues []*UE, done func(*UE, error)) {
	if done == nil {
		done = func(*UE, error) {}
	}
	co := c.takeCohort(true, true)
	for _, ue := range ues {
		if !ue.attached || ue.sess == nil {
			done(ue, fmt.Errorf("epc: UE %s not attached", ue.IMSI))
			continue
		}
		co.members = append(co.members, member{sess: ue.sess})
	}
	co.report = done
	if len(co.members) == 0 {
		co.finish(nil)
		return
	}
	co.deleteSessions()
}
