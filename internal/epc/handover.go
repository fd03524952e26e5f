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
// advances the record's stage; a terminal timeout on any leg unwinds the
// stages in reverse order (undo), leaving the session fully anchored at
// the source (or cleanly failed) instead of half-switched with leaked
// target-eNB contexts.

// handoverInterruption is the radio-layer outage while the UE detunes from
// the source cell and synchronizes to the target (detach + RACH).
const handoverInterruption = 30 * time.Millisecond

// hoCommandNAS stands in for the Handover Command's Target-to-Source
// transparent container, the RRC reconfiguration (opaque to the MME).
var hoCommandNAS [90]byte

// handover is the pooled record of one S1 handover. Its legs: (1) the
// source's Handover Required reaches the MME (required); (2) the Handover
// Request carries every E-RAB to the target, which first saves the bearers
// and their S1 downlink TEIDs (capture, stage 1) and (3) acknowledges with
// new TEIDs (prepared); (4) the Handover Command makes the source release
// the UE (commanded, stage 2); (5) after the radio interruption the UE is
// on the target (retune, stage 3), which sends the Handover Notify
// (notified); (6) the path switch's Modify Bearer repoints the SGW-U
// downlink rules (switched, stage 4). gapStart is when the source
// released the UE: the gap a successful handover observes runs from it.
type handover struct {
	proc
	*Core
	sess           *Session
	source, target *ENB
	done           func(error)
	gapStart       sim.Time
	hoBearers      []*Bearer
	oldTEIDs       []uint32

	requiredF, captureF, preparedF, commandedF, retuneF, notifiedF, switchedF, completeF func()
}

// Handover moves sess from its serving eNB to target. done (may be nil)
// fires when the path switch completes or the preparation fails.
func (m *MME) Handover(sess *Session, target *ENB, done func(error)) {
	c := m.core
	var err error
	switch {
	case sess.State != StateConnected:
		err = fmt.Errorf("epc: cannot hand over session in state %v", sess.State)
	case sess.ENB == target:
		err = fmt.Errorf("epc: source and target eNB are both %s", target.Name())
	case target.byUEIP[sess.UE.Addr()] == nil:
		err = fmt.Errorf("epc: UE %s has no radio link to %s", sess.IMSI, target.Name())
	}
	if err != nil {
		if done != nil {
			done(err)
		}
		return
	}
	source := sess.ENB
	m.hoScope.Emit("start", sess.IMSI+" "+source.Name()+"->"+target.Name())
	h := c.hos.Take()
	if h.Core == nil {
		c.bindHandover(h)
	}
	h.restart()
	h.sess, h.source, h.target, h.done = sess, source, target, done
	required := sess.s1ap(pkt.S1APHandoverRequired, 2, nil) // radio reasons
	c.sendS1AP(c.takeLeg(&h.proc, h.requiredF), source.ep, c.mmeEP, required)
}

// bindHandover readies a fresh handover record, binding its legs once.
//
//go:noinline
func (c *Core) bindHandover(h *handover) {
	h.Core = c
	h.end, h.undo, h.requiredF, h.captureF, h.preparedF = h.ended, h.unwind, h.required, h.capture, h.prepared
	h.commandedF, h.retuneF, h.notifiedF, h.switchedF, h.completeF = h.commanded, h.retune, h.notified, h.switched, h.complete
}

func (h *handover) required() {
	h.setupERABs(&h.proc, h.sess, h.target, pkt.S1APHandoverRequest, nil, nil, h.captureF, h.preparedF)
}

// capture copies out the bearers once: OrderedBearers scratch must not be
// retained across legs.
func (h *handover) capture() {
	h.hoBearers, h.oldTEIDs = h.hoBearers[:0], h.oldTEIDs[:0]
	for _, b := range h.sess.OrderedBearers() {
		h.hoBearers, h.oldTEIDs = append(h.hoBearers, b), append(h.oldTEIDs, b.S1DL)
	}
	h.stage = 1
}

func (h *handover) prepared() {
	sess := h.sess
	cmd := sess.s1ap(pkt.S1APHandoverCommand, 0, hoCommandNAS[:])
	h.sendS1AP(h.takeLeg(&h.proc, h.commandedF), h.mmeEP, h.source.ep, cmd)
}

func (h *handover) commanded() {
	h.source.releaseContext(h.sess)
	h.gapStart, h.stage = h.Eng.Now(), 2
	h.Eng.Schedule(handoverInterruption, h.resume(&h.proc, h.retuneF))
}

func (h *handover) retune() {
	sess := h.sess
	sess.UE.switchRadio(h.target, h.target.byUEIP[sess.UE.Addr()].uePort)
	sess.ENB, h.stage = h.target, 3
	notify := sess.s1ap(pkt.S1APHandoverNotify, 0, nil)
	h.sendS1AP(h.takeLeg(&h.proc, h.notifiedF), h.target.ep, h.mmeEP, notify)
}

func (h *handover) notified() {
	h.modifySessionBearers(&h.proc, h.sess, h.switchedF, h.completeF)
}

func (h *handover) switched() { h.stage = 4 }
func (h *handover) complete() { h.finish(nil) }

// unwind undoes the stages reached, last first: repoint the SGW-U rules at
// the source eNB and its TEIDs (installFlow replaces on identical
// match+priority), retune the UE back, re-adopt the session at the source
// (restoreBearerMapping tolerates the context being gone), then drop the
// target contexts and put the source TEIDs back on the bearers.
func (h *handover) unwind() {
	sess, source := h.sess, h.source
	for ; h.stage > 0; h.stage-- {
		switch h.stage {
		case 4:
			for i, b := range h.hoBearers {
				h.installSGWDownlinkTo(sess, b, h.oldTEIDs[i], source.Addr())
			}
		case 3:
			sess.ENB = source
			if ctx := source.byUEIP[sess.UE.Addr()]; ctx != nil {
				sess.UE.switchRadio(source, ctx.uePort)
			}
		case 2:
			for i, b := range h.hoBearers {
				source.restoreBearerMapping(sess, b.EBI, h.oldTEIDs[i])
			}
		case 1:
			h.target.releaseContext(sess)
			for i, b := range h.hoBearers {
				b.S1DL = h.oldTEIDs[i]
			}
		}
	}
}

// ended reports the outcome and recycles the record.
func (h *handover) ended(err error) {
	m := h.MME
	sess, source, target, done := h.sess, h.source, h.target, h.done
	if err != nil {
		m.hoFailed.Inc()
		m.hoScope.Emit("failed", sess.IMSI+" "+err.Error())
	} else {
		m.Handovers++
		m.hoGap.Observe(float64(h.Eng.Now()-h.gapStart) / float64(time.Millisecond))
		m.hoScope.Emit("complete", sess.IMSI+" "+source.Name()+"->"+target.Name())
	}
	clear(h.hoBearers)
	h.sess, h.source, h.target, h.done = nil, nil, nil, nil
	h.hos.Put(h)
	if err == nil && m.OnHandoverComplete != nil {
		m.OnHandoverComplete(sess, source, target)
	}
	if done != nil {
		done(err)
	}
}
