package epc

import (
	"fmt"

	"acacia/internal/pkt"
)

// Flyweight intern tables. At metro scale the overwhelming majority of
// per-UE configuration is identical across UEs: every dedicated bearer
// toward the same CI server shares one TFT, and every bearer on the same
// user planes shares one resolved plane pair. Storing those once and
// handing bearers immutable handles shrinks per-UE state to its hot
// mutable fields. A bearer's QoS, two bytes, is held by value.
//
// Interned values are immutable by contract: callers must never write
// through the returned pointers. Mutation would alias every session sharing
// the profile.

// PlanePair is the interned handle to a bearer's serving user planes: the
// resolved SGW-U/PGW-U pair, so the per-message string-keyed map lookups of
// the pre-flyweight layout happen once at intern time.
type PlanePair struct {
	SGW, PGW *UserPlane
}

type tftKey struct {
	ciServer   pkt.Addr
	precedence uint8
}

type planeKey struct {
	sgw, pgw string
}

// internTFT returns the canonical dedicated-bearer TFT toward a CI server
// at the given filter precedence. All UEs bound to the same edge site share
// one template.
func (c *Core) internTFT(ciServer pkt.Addr, precedence uint8) *pkt.TFT {
	k := tftKey{ciServer: ciServer, precedence: precedence}
	if t := c.tftIntern[k]; t != nil {
		return t
	}
	t := new(pkt.TFT)
	*t = pkt.DedicatedBearerTFT(ciServer)
	t.Filters[0].Precedence = precedence
	c.tftIntern[k] = t
	return t
}

// internPlanes resolves and interns a (SGW-U, PGW-U) plane pair by name.
// It fails when either plane is unknown — the resolution error the
// pre-flyweight code surfaced per message now surfaces once, up front.
func (c *Core) internPlanes(sgwPlane, pgwPlane string) (*PlanePair, error) {
	k := planeKey{sgw: sgwPlane, pgw: pgwPlane}
	if p := c.planeIntern[k]; p != nil {
		return p, nil
	}
	sgw := c.SGWC.planes[sgwPlane]
	pgw := c.PGWC.planes[pgwPlane]
	if sgw == nil || pgw == nil {
		return nil, fmt.Errorf("epc: unknown user planes %q/%q", sgwPlane, pgwPlane)
	}
	p := &PlanePair{SGW: sgw, PGW: pgw}
	c.planeIntern[k] = p
	return p, nil
}

// defaultAPN is the access point name of the always-on default bearer, the
// one APN every session attaches on.
const defaultAPN = "internet"

// defaultQoS is the default bearer's QoS profile, every subscriber's.
var defaultQoS = pkt.BearerQoS{QCI: pkt.QCIDefault, ARP: 9}

// dedicatedARP is the allocation/retention priority of every dedicated
// bearer a policy rule activates.
const dedicatedARP = 2
