package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keepUnreferenced names the internal/ functions TestNoUnreferencedCode lets
// stand although no non-test code references them, each with its reason.
// Only three kinds belong here: invariant probes that tests read, reference
// models that live code is checked against, and controls a tier-1 budget
// rig needs.
var keepUnreferenced = map[string]string{
	// Invariant probes that tests read.
	"acacia/internal/netsim.FIFO.Cap":            "FuzzFIFO and the backlog tests bound the queue's memory with it",
	"acacia/internal/netsim.Link.BacklogAB":      "the queued-link alloc rig checks its direction is congested",
	"acacia/internal/sim.Pool.Idle":              "pool tests in sim, epc and sdn read which records are at rest",
	"acacia/internal/netsim.Link.StatsAB":        "link, ctl, epc and fault tests read per-direction counters",
	"acacia/internal/netsim.Link.StatsBA":        "ctl and epc loss tests read the reverse direction's counters",
	"acacia/internal/netsim.Network.Links":       "core's wiring tests pin link creation order, the <n> of every link metric",
	"acacia/internal/epc.UserPlane.GBRInUse":     "bearer tests check GBR is returned on every teardown path",
	"acacia/internal/vision.Object.Materialised": "the lazy-DB tests check a session generates no descriptors",
	// Reference models live code is compared against.
	"acacia/internal/pkt.Match.Matches": "sdn's scale tests use it as the linear-scan model of lookup",
	// Controls a tier-1 budget rig needs.
	"acacia/internal/sim.Engine.Stop": "the event-queue hold rig stops the engine after b.N events",
}

// TestNoUnreferencedCode holds internal/ to code something can run:
// internal/ packages cannot be imported from outside this module, so a
// function no command, example, benchmark or public-package file reaches —
// directly, or through live code — is dead. A reference counts only from
// Info.Uses outside _test.go files and outside dead bodies, so a function
// only dead code calls is dead too. A method named by an interface its
// receiver satisfies is live: calls through the interface do not resolve to
// it by type.
func TestNoUnreferencedCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repo from source")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(l.ModuleRoot + "/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.Errs {
			t.Fatalf("type error in %s: %v", pkg.Path, e)
		}
	}
	fmtPkg, err := l.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	keep := make([]string, 0, len(keepUnreferenced))
	for name := range keepUnreferenced {
		keep = append(keep, name)
	}
	sort.Strings(keep)
	dead, referenced := unreferenced(pkgs, l.ModulePath+"/internal/", keep, fmtPkg.Scope().Lookup("Stringer").Type())
	for _, fn := range dead {
		pos := l.Fset.Position(fn.Pos())
		rel, _ := filepath.Rel(l.ModuleRoot, pos.Filename)
		t.Errorf("%s:%d: %s has no non-test reference: delete it, or name it in keepUnreferenced with a reason", rel, pos.Line, funcKey(fn))
	}
	for _, name := range keep {
		if live, ok := referenced[name]; !ok {
			t.Errorf("keepUnreferenced names %s, which is not declared in internal/", name)
		} else if live {
			t.Errorf("keepUnreferenced names %s, which live code references: drop the entry", name)
		}
	}
}

// funcKey names fn as "<package path>.<Recv>.<Name>" (or "<path>.<Name>").
func funcKey(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name = t.(*types.Named).Obj().Name() + "." + name
	}
	return fn.Pkg().Path() + "." + name
}

// unreferenced returns, in position order, the functions declared in
// non-test files of packages under prefix that nothing live references, and
// every such function's key mapped to whether a reference from live code
// reaches it. Roots are the references from everything else: non-test code
// outside prefix, and package-level declarations other than functions.
// Methods whose receiver satisfies an interface naming them are roots too;
// the interfaces are extra plus every one a non-test expression's type
// mentions. The keep functions, and what they reference, are live without
// counting as referenced.
func unreferenced(pkgs []*Package, prefix string, keep []string, extra ...types.Type) (dead []*types.Func, referenced map[string]bool) {
	edges := map[*types.Func][]*types.Func{}
	var candidates, roots []*types.Func
	var ifaces []*types.Interface
	seen := map[types.Type]bool{}
	var collect func(types.Type)
	collect = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch u := typ.(type) {
		case *types.Named:
			if it, ok := u.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		case *types.Interface:
			if u.NumMethods() > 0 {
				ifaces = append(ifaces, u)
			}
		case *types.Pointer:
			collect(u.Elem())
		case *types.Slice:
			collect(u.Elem())
		case *types.Map:
			collect(u.Elem())
		case *types.Chan:
			collect(u.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tup.Len(); i++ {
					collect(tup.At(i).Type())
				}
			}
		}
	}
	for _, typ := range extra {
		collect(typ)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.Position(file.Pos()).Filename, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				var from *types.Func
				if fd, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(pkg.Path, prefix) {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok && fd.Name.Name != "init" {
						from = fn
						candidates = append(candidates, fn)
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if e, ok := n.(ast.Expr); ok {
						if tv, ok := pkg.Info.Types[e]; ok {
							collect(tv.Type)
						}
					}
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := pkg.Info.Uses[id].(*types.Func)
					if !ok {
						return true
					}
					if fn = fn.Origin(); from == nil {
						roots = append(roots, fn)
					} else if fn != from {
						edges[from] = append(edges[from], fn)
					}
					return true
				})
			}
		}
	}
	for _, fn := range candidates {
		if namedByInterface(fn, ifaces) {
			roots = append(roots, fn)
		}
	}
	live := map[*types.Func]bool{}
	mark := func(roots []*types.Func) {
		for len(roots) > 0 {
			fn := roots[len(roots)-1]
			roots = roots[:len(roots)-1]
			if !live[fn] {
				live[fn] = true
				roots = append(roots, edges[fn]...)
			}
		}
	}
	mark(roots)
	referenced = map[string]bool{}
	byKey := map[string]*types.Func{}
	for _, fn := range candidates {
		referenced[funcKey(fn)] = live[fn]
		byKey[funcKey(fn)] = fn
	}
	for _, name := range keep {
		if fn, ok := byKey[name]; ok {
			mark([]*types.Func{fn})
		}
	}
	for _, fn := range candidates {
		if !live[fn] {
			dead = append(dead, fn)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].Pos() < dead[j].Pos() })
	return dead, referenced
}

// namedByInterface reports whether fn is a method one of ifaces names and
// its receiver's type (or a pointer to it) implements that interface.
func namedByInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named := t.(*types.Named)
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); obj == nil {
			continue
		}
		if named.TypeParams().Len() > 0 || types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}
