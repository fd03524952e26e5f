package epc

import (
	"fmt"
	"time"

	"acacia/internal/pkt"
	"acacia/internal/sim"
)

// S1-based handover (TS 23.401 §5.5.1): the serving eNB reports the UE
// moving out of its cell, the MME prepares every bearer at the target eNB,
// the UE retunes, and the SGW-C repoints the downlink tunnels. The SGW
// stays the anchor — exactly the role the paper's background section
// assigns it — so UE IP and bearers (including the dedicated MEC bearer)
// survive the move.
//
// Every leg runs over the lossy ctl transport, so each state mutation
// registers a pr.onError compensation; a terminal timeout on any leg
// unwinds them in reverse order, leaving the session fully anchored at the
// source (or cleanly failed) instead of half-switched with leaked
// target-eNB contexts.

// handoverInterruption is the radio-layer outage while the UE detunes from
// the source cell and synchronizes to the target (detach + RACH).
const handoverInterruption = 30 * time.Millisecond

// Handover moves sess from its serving eNB to target. done (may be nil)
// fires when the path switch completes or the preparation fails.
func (m *MME) Handover(sess *Session, target *ENB, done func(error)) {
	c := m.core
	if sess.State != StateConnected {
		if done != nil {
			done(fmt.Errorf("epc: cannot hand over session in state %v", sess.State))
		}
		return
	}
	source := sess.ENB
	if source == target {
		if done != nil {
			done(fmt.Errorf("epc: source and target eNB are both %s", target.Name()))
		}
		return
	}
	tctx := target.byUEIP[sess.UE.Addr()]
	if tctx == nil {
		if done != nil {
			done(fmt.Errorf("epc: UE %s has no radio link to %s", sess.IMSI, target.Name()))
		}
		return
	}
	srcCtx := source.byUEIP[sess.UE.Addr()]

	// The interruption gap runs from the source context release (UE detunes)
	// to procedure end; only successful handovers observe it.
	var gapStart sim.Time
	var gapStarted bool
	m.hoScope.Emit("start", sess.IMSI+" "+source.Name()+"->"+target.Name())
	pr := newProc(func(err error) {
		if err != nil {
			m.hoFailed.Inc()
			m.hoScope.Emit("failed", sess.IMSI+" "+err.Error())
		} else {
			m.Handovers++
			if gapStarted {
				m.hoGap.Observe(float64(c.Eng.Now()-gapStart) / float64(time.Millisecond))
			}
			m.hoScope.Emit("complete", sess.IMSI+" "+source.Name()+"->"+target.Name())
			if m.OnHandoverComplete != nil {
				m.OnHandoverComplete(sess, source, target)
			}
		}
		if done != nil {
			done(err)
		}
	})

	// Bearer pointers and their pre-handover S1 downlink TEIDs, captured
	// once for the compensations (OrderedBearers scratch must not be
	// retained across legs).
	var hoBearers []*Bearer
	var oldTEIDs []uint32

	// 1. Source eNB -> MME: Handover Required.
	required := &pkt.S1APMsg{
		Procedure: pkt.S1APHandoverRequired,
		ENBUEID:   sess.ENBUEID, MMEUEID: sess.MMEUEID, Cause: 2, // radio reasons
	}
	c.sendS1AP(pr, source.ep, c.mmeEP, required, func() {
		// 2-3. MME -> target eNB: Handover Request carrying every E-RAB; the
		// target admits them with new downlink TEIDs in its Handover
		// Request Acknowledge.
		capture := func() {
			bearers := sess.OrderedBearers()
			hoBearers, oldTEIDs = make([]*Bearer, len(bearers)), make([]uint32, len(bearers))
			for i, b := range bearers {
				hoBearers[i], oldTEIDs[i] = b, b.S1DL
			}
			// Compensation: drop the admitted target contexts and put the
			// source TEIDs back on the bearers.
			pr.onError(func() {
				target.releaseContext(sess)
				for i, b := range hoBearers {
					b.S1DL = oldTEIDs[i]
				}
			})
		}
		c.setupERABs(pr, sess, target, pkt.S1APHandoverRequest, nil, nil, capture, func() {
			// 4. MME -> source eNB: Handover Command; the source tells
			// the UE to retune (RRC reconfiguration with mobility).
			// The Target-to-Source transparent container carries the
			// RRC reconfiguration (opaque to the MME).
			cmd := &pkt.S1APMsg{
				Procedure: pkt.S1APHandoverCommand,
				ENBUEID:   sess.ENBUEID, MMEUEID: sess.MMEUEID,
				NAS: make([]byte, 90),
			}
			c.sendS1AP(pr, c.mmeEP, source.ep, cmd, func() {
				source.releaseContext(sess)
				gapStarted, gapStart = true, c.Eng.Now()
				// Compensation: re-adopt the session at the source with
				// the original TEIDs (tolerates the source context being
				// gone — restoreBearerMapping nil-checks it).
				pr.onError(func() {
					for i, b := range hoBearers {
						source.restoreBearerMapping(sess, b.EBI, oldTEIDs[i])
					}
				})
				c.Eng.Schedule(handoverInterruption, func() {
					if pr.finished {
						return // a leg failed during the interruption
					}
					sess.UE.switchRadio(target, tctx.uePort)
					sess.ENB = target
					// Compensation: retune the UE back to the source.
					pr.onError(func() {
						sess.ENB = source
						if srcCtx != nil {
							sess.UE.switchRadio(source, srcCtx.uePort)
						}
					})
					// 5. Target -> MME: Handover Notify.
					notify := &pkt.S1APMsg{
						Procedure: pkt.S1APHandoverNotify,
						ENBUEID:   sess.ENBUEID, MMEUEID: sess.MMEUEID,
					}
					c.sendS1AP(pr, target.ep, c.mmeEP, notify, func() {
						// 6. Path switch: the SGW-U downlink rules follow
						// the bearers to the target.
						c.modifySessionBearers(pr, sess, func() {
							// Compensation: repoint the rules at the source
							// eNB and its TEIDs (installFlow replaces on
							// identical match+priority).
							pr.onError(func() {
								for i, b := range hoBearers {
									c.installSGWDownlinkTo(sess, b, oldTEIDs[i], source.Addr())
								}
							})
						}, func() { pr.finish(nil) })
					})
				})
			})
		})
	})
}
