package netsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"acacia/internal/pkt"
	"acacia/internal/sim"
)

func poolNet() *Network {
	return New(sim.NewEngine(1))
}

// TestPoolReleaseZeroes checks the mutate-after-release defence: a stale
// owner that kept a pointer past Release observes zeroed garbage, never
// live data belonging to the packet's next life.
func TestPoolReleaseZeroes(t *testing.T) {
	nw := poolNet()
	p := nw.NewPacket()
	p.Size = 1200
	p.TEID = 0xbeef
	p.Payload = "canary"
	p.Flow = pkt.FiveTuple{SrcPort: 7}
	nw.Release(p)
	if p.Size != 0 || p.TEID != 0 || p.Payload != nil || p.Flow.SrcPort != 0 {
		t.Errorf("released packet not zeroed: %+v", p)
	}
}

// TestPoolDoubleReleasePanics checks the canary itself: releasing through
// a stale pointer a second time is a loud bug, not silent corruption.
func TestPoolDoubleReleasePanics(t *testing.T) {
	nw := poolNet()
	p := nw.NewPacket()
	nw.Release(p)
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	nw.Release(p)
}

// TestPoolNonPooledReleaseNoOp checks &Packet{} literals (tests, one-shot
// setup traffic) pass through Release untouched.
func TestPoolNonPooledReleaseNoOp(t *testing.T) {
	nw := poolNet()
	p := &Packet{Size: 99}
	nw.Release(p)
	nw.Release(p) // and never trips the double-release canary
	if p.Size != 99 {
		t.Errorf("non-pooled packet mutated by Release: Size = %d", p.Size)
	}
}

// TestPoolLIFOReuse checks the recycle order is deterministic: NewPacket
// returns the most recently released packet. Seeded runs depend on this —
// a randomized free-list would still be correct but would make allocation
// addresses (and any accidental address-dependent behaviour) run-varying.
func TestPoolLIFOReuse(t *testing.T) {
	nw := poolNet()
	a, b := nw.NewPacket(), nw.NewPacket()
	nw.Release(a)
	nw.Release(b)
	if got := nw.NewPacket(); got != b {
		t.Error("pool is not LIFO: expected most recently released packet first")
	}
	if got := nw.NewPacket(); got != a {
		t.Error("pool is not LIFO: expected earlier release second")
	}
}

// TestPoolReuseStartsZeroed checks a recycled packet carries nothing over
// from its previous life.
func TestPoolReuseStartsZeroed(t *testing.T) {
	nw := poolNet()
	p := nw.NewPacket()
	p.Size, p.TEID, p.Hops = 1400, 42, 9
	nw.Release(p)
	q := nw.NewPacket()
	if q != p {
		t.Fatal("expected LIFO reuse of the released packet")
	}
	if q.Size != 0 || q.TEID != 0 || q.Hops != 0 {
		t.Errorf("recycled packet carries stale state: %+v", q)
	}
}

// TestFreshPacketsComeInSlabs pins the pool-miss cost: a fresh Network
// handing out 10,000 packets with none released, as an overloaded switch
// queue does, carves them from under a hundred slabs instead of allocating
// each one. The count includes building the Network itself.
func TestFreshPacketsComeInSlabs(t *testing.T) {
	eng := sim.NewEngine(1)
	n := testing.AllocsPerRun(3, func() {
		nw := New(eng)
		for i := 0; i < 10_000; i++ {
			nw.NewPacket()
		}
	})
	t.Logf("10,000 fresh packets: %.0f allocations", n)
	if n > 120 {
		t.Fatalf("10,000 fresh packets cost %.0f allocations, want at most 120", n)
	}
}

// TestPortlessEgressReleases sends from a host whose node has no port: the
// egress drop must return the packet to the pool.
func TestPortlessEgressReleases(t *testing.T) {
	nw := poolNet()
	h := NewHost(nw.AddNode("h", pkt.AddrFrom(10, 0, 0, 1)))
	nw.Release(nw.NewPacket()) // carve the first slab
	idle := len(nw.pkts.Idle())
	h.Send(pkt.AddrFrom(10, 0, 0, 2), 1, 2, pkt.ProtoUDP, 100, nil)
	nw.eng.Run()
	if n := len(nw.pkts.Idle()); n != idle {
		t.Fatalf("%d packets at rest after the drop, want %d", n, idle)
	}
}

// TestClonePacketIndependent checks a clone is pool-managed but distinct:
// releasing the clone leaves the original untouched.
func TestClonePacketIndependent(t *testing.T) {
	nw := poolNet()
	p := nw.NewPacket()
	p.Size, p.TEID = 1200, 7
	c := nw.ClonePacket(p)
	if c == p {
		t.Fatal("clone aliases the original")
	}
	if c.Size != 1200 || c.TEID != 7 {
		t.Errorf("clone did not copy fields: %+v", c)
	}
	nw.Release(c)
	if p.Size != 1200 {
		t.Error("releasing the clone corrupted the original")
	}
}

// TestNoPacketLiterals holds the module's non-test code to zero &Packet{}
// and &netsim.Packet{} literals: a packet a simulation sends comes from
// NewPacket or ClonePacket, so whoever ends its life can return it to the
// pool. Test files may still build literals.
func TestNoPacketLiterals(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (name != "." && name != ".." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			u, ok := n.(*ast.UnaryExpr)
			if !ok || u.Op != token.AND {
				return true
			}
			if lit, ok := u.X.(*ast.CompositeLit); ok && isPacketType(lit.Type) {
				t.Errorf("%s: packet literal; take it from NewPacket", fset.Position(u.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// isPacketType reports whether e names Packet or netsim.Packet.
func isPacketType(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "Packet"
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		return ok && x.Name == "netsim" && e.Sel.Name == "Packet"
	}
	return false
}
