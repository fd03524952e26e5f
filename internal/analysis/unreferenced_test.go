package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keepUnreferenced names the internal/ declarations TestNoUnreferencedCode
// lets stand although no non-test code reads them, each with its reason.
// Functions are keyed "<pkg>.<Name>" or "<pkg>.<Type>.<Method>", fields
// "<pkg>.<Type>.<field>", constants "<pkg>.<Name>". Only four kinds belong
// here: invariant probes that tests read, reference models that live code
// is checked against, controls a tier-1 budget rig needs, and fields the
// frozen benchmark/ writes.
var keepUnreferenced = map[string]string{
	// Invariant probes that tests read.
	"acacia/internal/netsim.FIFO.Cap":                    "FuzzFIFO and the backlog tests bound the queue's memory with it",
	"acacia/internal/netsim.Link.BacklogAB":              "the queued-link alloc rig checks its direction is congested",
	"acacia/internal/sim.Pool.Idle":                      "pool tests in sim, epc and sdn read which records are at rest",
	"acacia/internal/sim.Pool.Outstanding":               "pool-balance tests in sim and epc check every record came back",
	"acacia/internal/netsim.Network.PacketsOut":          "ctl's timeout test checks a failed transaction returns its packets",
	"acacia/internal/netsim.Link.StatsAB":                "link, ctl, epc and fault tests read per-direction counters",
	"acacia/internal/netsim.Link.StatsBA":                "ctl and epc loss tests read the reverse direction's counters",
	"acacia/internal/netsim.Network.Links":               "core's wiring tests pin link creation order, the <n> of every link metric",
	"acacia/internal/vision.Object.Materialised":         "the lazy-DB tests check a session generates no descriptors",
	"acacia/internal/core.ARFrontend.MigrationTimeouts":  "mobility tests check a relocation's migration finished before its watchdog",
	"acacia/internal/netsim.GreedyFlow.AckedSegments":    "greedy-flow tests check the measured windows ack segments",
	"acacia/internal/netsim.GreedyFlow.Retransmits":      "greedy-flow tests check a tight queue drives the pooled retransmit path",
	"acacia/internal/netsim.Pinger.Sent":                 "ping tests count unanswered probes as Sent - RTTs.N()",
	"acacia/internal/netsim.Router.Dropped":              "the routing test checks an unroutable packet is dropped",
	"acacia/internal/pkt.DirUplink":                      "TFT and modem tests build uplink-only filters (TS 24.008 direction 2)",
	"acacia/internal/vision.MatchResult.Correspondences": "vision tests compare the matches each pipeline stage keeps",
	"acacia/internal/d2d.DiscoveryMessage.Service":       "the discovery test checks a delivery carries the published service",
	"acacia/internal/d2d.DiscoveryMessage.Payload":       "the discovery test checks a delivery carries the published payload",
	"acacia/internal/epc.ENB.s1Link":                     "loss and leg tests fail and heal the eNB's S1-MME link through it",
	"acacia/internal/epc.ENB.ULPackets":                  "handover tests check uplink traffic traverses the target eNB",
	"acacia/internal/sdn.SwitchStats.SlowPathHits":       "sdn tests read the switch's sdn/<node>/ counters through Switch.Stats",
	"acacia/internal/sdn.SwitchStats.TableMisses":        "sdn tests read the switch's sdn/<node>/ counters through Switch.Stats",
	"acacia/internal/sdn.SwitchStats.Dropped":            "sdn tests read the switch's sdn/<node>/ counters through Switch.Stats",
	"acacia/internal/sdn.SwitchStats.Encapsulated":       "sdn, epc and core tests check GTP-U encapsulation through Switch.Stats",
	"acacia/internal/sdn.SwitchStats.Decapsulated":       "sdn and epc tests check GTP-U decapsulation through Switch.Stats",
	"acacia/internal/analysis.CGNode.Pkg":                "the call-graph test picks a fixture's roots by package",
	// Reference models live code is compared against.
	"acacia/internal/pkt.Match.Matches": "sdn's scale tests use it as the linear-scan model of lookup",
	// Controls a tier-1 budget rig needs.
	"acacia/internal/sim.Engine.Stop": "the event-queue hold rig stops the engine after b.N events",
	// Fields the frozen benchmark/ writes.
	"acacia/internal/experiments.ScaleConfig.Workers": "benchmark/ sets it; it goes with ROADMAP item 1(a)'s re-base",
}

// TestNoUnreferencedCode holds internal/ to code something can run:
// internal/ packages cannot be imported from outside this module, so a
// function, field, constant, var or type no command, example, benchmark or
// public-package file reads — directly, or through live code — is dead, and
// so is an unused parameter of a function only ever called. A read counts
// only from Info.Uses outside _test.go files and outside dead bodies, so
// what only dead code reads is dead too; writes are not reads. A method
// named by an interface its receiver satisfies is live: calls through the
// interface do not resolve to it by type.
func TestNoUnreferencedCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repo from source")
	}
	l, pkgs := loadRepo(t)
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
	for _, f := range dead {
		pos := l.Fset.Position(f.obj.Pos())
		rel, _ := filepath.Rel(l.ModuleRoot, pos.Filename)
		t.Errorf("%s:%d: %s has no non-test read: delete it, or name it in keepUnreferenced with a reason", rel, pos.Line, f)
	}
	for _, name := range keep {
		if live, ok := referenced[name]; !ok {
			t.Errorf("keepUnreferenced names %s, which is not declared in internal/", name)
		} else if live {
			t.Errorf("keepUnreferenced names %s, which live code reads: drop the entry", name)
		}
	}
}

// keepUnwritten names the internal/ struct fields
// TestEveryReadFieldHasAWriter lets stand although live code reads them and
// no non-test code writes them, each with its reason. Keys are
// "<pkg>.<Type>.<field>", as in keepUnreferenced.
var keepUnwritten = map[string]string{
	"acacia/internal/fault.Event.Duration":          "public as acacia.FaultEvent: a caller's fault plan sets the window",
	"acacia/internal/fault.Event.Loss":              "public as acacia.FaultEvent: a caller's fault plan sets the drop rate",
	"acacia/internal/analysis.Program.EscapeOutput": "the escape gate's golden test feeds it canned compiler output",
}

// TestEveryReadFieldHasAWriter is the write-side dual of
// TestNoUnreferencedCode: an internal/ struct field that live code reads
// but no non-test code writes holds its zero value in every real run, a
// knob only tests turn. Delete the field and the code that reads it, or
// name it in keepUnwritten with a reason.
func TestEveryReadFieldHasAWriter(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repo from source")
	}
	l, pkgs := loadRepo(t)
	fmtPkg, err := l.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, f := range unwritten(pkgs, l.ModulePath+"/internal/", fmtPkg.Scope().Lookup("Stringer").Type()) {
		found[f.key] = true
		if _, ok := keepUnwritten[f.key]; ok {
			continue
		}
		pos := l.Fset.Position(f.obj.Pos())
		rel, _ := filepath.Rel(l.ModuleRoot, pos.Filename)
		t.Errorf("%s:%d: %s is read but no non-test code writes it: delete it, or name it in keepUnwritten with a reason", rel, pos.Line, f)
	}
	keep := make([]string, 0, len(keepUnwritten))
	for name := range keepUnwritten {
		keep = append(keep, name)
	}
	sort.Strings(keep)
	for _, name := range keep {
		if !found[name] {
			t.Errorf("keepUnwritten names %s, which is not a live, unwritten internal/ field: drop the entry", name)
		}
	}
}

// loadRepo type-checks the whole module from source.
func loadRepo(t *testing.T) (*Loader, []*Package) {
	t.Helper()
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
	return l, pkgs
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

// finding is one declaration nothing live reads.
type finding struct {
	obj  types.Object
	kind string // func, field, const, var, type or param
	key  string
}

func (f finding) String() string { return f.kind + " " + f.key }

// unreferenced returns, in position order, the declarations in non-test
// files of packages under prefix that nothing live reads — functions,
// struct fields, constants, package-level vars, types, and the parameters
// of functions only ever called directly — and every such declaration's key
// mapped to whether a read from live code (newRefGraph's roots) reaches
// it. The keep declarations, and what they read, are live without counting
// as referenced.
func unreferenced(pkgs []*Package, prefix string, keep []string, extra ...types.Type) (dead []finding, referenced map[string]bool) {
	g := newRefGraph(pkgs, prefix, extra...)
	live := map[types.Object]bool{}
	g.mark(live, g.roots)
	// A parameter counts only where the function's signature is its own:
	// one used as a value or named by an interface must match a type.
	for fn, params := range g.params {
		if !live[fn] || g.values[fn] || namedByInterface(fn, g.ifaces) {
			continue
		}
		for _, p := range params {
			g.add(p, "param", funcKey(fn)+"."+p.Name())
		}
	}
	referenced = map[string]bool{}
	byKey := map[string]types.Object{}
	for obj, f := range g.decls {
		referenced[f.key] = live[obj]
		byKey[f.key] = obj
	}
	for _, name := range keep {
		if obj, ok := byKey[name]; ok {
			g.mark(live, []types.Object{obj})
		}
	}
	for obj, f := range g.decls {
		if !live[obj] {
			dead = append(dead, f)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].obj.Pos() < dead[j].obj.Pos() })
	return dead, referenced
}

// unwritten returns, in position order, the struct fields declared in
// non-test files of packages under prefix that live code reads (as
// unreferenced marks reads, from the same roots) but no non-test code
// writes (walk and field record the stores in refGraph.written).
func unwritten(pkgs []*Package, prefix string, extra ...types.Type) []finding {
	g := newRefGraph(pkgs, prefix, extra...)
	live := map[types.Object]bool{}
	g.mark(live, g.roots)
	var out []finding
	for obj, f := range g.decls {
		if f.kind == "field" && live[obj] && !g.written[obj] {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].obj.Pos() < out[j].obj.Pos() })
	return out
}

// newRefGraph walks every non-test file of pkgs, declaring what packages
// under prefix declare. Its roots are the reads from everything else:
// non-test code outside prefix, init functions, blank package-level vars,
// and struct fields with a tag other than `json:"-"`, which reflection
// reads. Methods whose receiver satisfies an interface naming them are
// roots too; the interfaces are extra plus every one a non-test
// expression's type mentions.
func newRefGraph(pkgs []*Package, prefix string, extra ...types.Type) *refGraph {
	g := &refGraph{
		edges:   map[types.Object][]types.Object{},
		decls:   map[types.Object]finding{},
		params:  map[*types.Func][]*types.Var{},
		values:  map[*types.Func]bool{},
		writes:  map[*ast.Ident]bool{},
		called:  map[*ast.Ident]bool{},
		written: map[types.Object]bool{},
		hashed:  map[hashUse]bool{},
		seen:    map[types.Type]bool{},
	}
	for _, typ := range extra {
		g.collect(typ)
	}
	for _, pkg := range pkgs {
		g.pkg, g.declare = pkg, strings.HasPrefix(pkg.Path, prefix)
		for _, file := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.Position(file.Pos()).Filename, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					g.walk(decl, nil, pkg.Path)
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				var from []types.Object
				if g.declare && fd.Name.Name != "init" {
					g.add(fn, "func", funcKey(fn))
					from = []types.Object{fn}
					for _, field := range fd.Type.Params.List {
						for _, name := range field.Names {
							if name.Name != "_" {
								g.params[fn] = append(g.params[fn], pkg.Info.Defs[name].(*types.Var))
							}
						}
					}
				}
				g.walk(fd, from, funcKey(fn))
			}
		}
	}
	for obj := range g.decls {
		if fn, ok := obj.(*types.Func); ok && namedByInterface(fn, g.ifaces) {
			g.roots = append(g.roots, fn)
		}
	}
	return g
}

// mark adds to live everything roots reach along the read edges.
func (g *refGraph) mark(live map[types.Object]bool, roots []types.Object) {
	for len(roots) > 0 {
		obj := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if !live[obj] {
			live[obj] = true
			roots = append(roots, g.edges[obj]...)
		}
	}
}

// refGraph is the read graph unreferenced marks: an edge runs from a
// declaration to each object its declaration reads.
type refGraph struct {
	pkg     *Package
	declare bool // whether pkg's declarations are candidates
	edges   map[types.Object][]types.Object
	roots   []types.Object
	decls   map[types.Object]finding
	params  map[*types.Func][]*types.Var
	// values holds the functions non-test code uses other than by calling.
	values map[*types.Func]bool
	// writes and called mark identifiers in the file being walked: the
	// target of an assignment or keyed literal element, or the source of a
	// same-field copy (markSelfCopy); and a callee.
	writes, called map[*ast.Ident]bool
	// written holds the fields non-test code stores into (wrote).
	written map[types.Object]bool
	hashed  map[hashUse]bool
	ifaces  []*types.Interface
	seen    map[types.Type]bool
}

// hashUse is one declaration's hashing or comparing of a type's values.
type hashUse struct {
	from types.Object
	typ  types.Type
}

func (g *refGraph) add(obj types.Object, kind, key string) {
	g.decls[obj] = finding{obj, kind, key}
}

// read records that every declaration in from reads obj; with from empty
// the read is a root.
func (g *refGraph) read(from []types.Object, obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if len(from) == 0 {
		g.roots = append(g.roots, obj)
	}
	for _, f := range from {
		if f != obj {
			g.edges[f] = append(g.edges[f], obj)
		}
	}
}

// walk records the reads under n as reads by from; scope is the key prefix
// of declarations nested in n.
func (g *refGraph) walk(n ast.Node, from []types.Object, scope string) {
	info := g.pkg.Info
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			obj := info.Defs[n.Name]
			key := scope + "." + n.Name.Name
			sub := from
			if g.declare {
				g.add(obj, "type", key)
				sub = []types.Object{obj}
			}
			if n.TypeParams != nil {
				g.walk(n.TypeParams, sub, key)
			}
			g.walk(n.Type, sub, key)
			return false
		case *ast.ValueSpec:
			// Constants anywhere, vars at package level; a local var's
			// reads are its function's.
			var objs []types.Object
			for _, name := range n.Names {
				obj := info.Defs[name]
				_, isConst := obj.(*types.Const)
				if name.Name == "_" || !isConst && obj.Parent() != g.pkg.Pkg.Scope() {
					continue
				}
				objs = append(objs, obj)
				if g.declare {
					kind := "var"
					if isConst {
						kind = "const"
					}
					g.add(obj, kind, scope+"."+name.Name)
				}
			}
			if len(objs) == 0 || !g.declare {
				return true
			}
			for _, e := range append([]ast.Expr{n.Type}, n.Values...) {
				if e != nil {
					g.walk(e, objs, scope)
				}
			}
			return false
		case *ast.StructType:
			for _, field := range n.Fields.List {
				g.field(field, from, scope)
			}
			return false
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for i, lhs := range n.Lhs {
					g.markWrite(lhs)
					g.wrote(lhs)
					if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
						g.markSelfCopy(lhs, n.Rhs[i])
					}
				}
			}
		case *ast.IncDecStmt:
			g.markWrite(n.X)
			g.wrote(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				g.wrote(n.X)
			}
		case *ast.CompositeLit:
			if st := litStruct(info.Types[n].Type); st != nil {
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						id := kv.Key.(*ast.Ident)
						g.writes[id] = true
						g.written[info.Uses[id].(*types.Var).Origin()] = true
					} else {
						g.written[st.Field(i).Origin()] = true
					}
				}
			}
		case *ast.CallExpr:
			if id := callee(n.Fun); id != nil {
				g.called[id] = true
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				g.hash(from, info.Types[n.X].Type)
			}
		case *ast.SelectorExpr:
			// A promoted selection reads every embedded field on its path.
			if sel := info.Selections[n]; sel != nil {
				t := sel.Recv()
				for _, i := range sel.Index()[:len(sel.Index())-1] {
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem()
					}
					f := t.Underlying().(*types.Struct).Field(i)
					g.read(from, f)
					t = f.Type()
				}
				// A pointer method called on an addressable value (t, once
				// the embedded fields are selected) takes its address, as
				// &x.f does.
				if sel.Kind() == types.MethodVal && isPointer(sel.Obj().Type().(*types.Signature).Recv().Type()) && !isPointer(t) {
					g.wroteSelection(sel)
					g.wrote(n.X)
				}
			}
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && !g.writes[n] {
				g.read(from, obj)
				if fn, ok := obj.(*types.Func); ok && !g.called[n] {
					g.values[fn.Origin()] = true
				}
			}
		}
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := info.Types[e]; ok {
				g.collect(tv.Type)
				g.hashTypes(from, tv.Type)
			}
		}
		return true
	})
}

// field declares one struct field (or the names of one field list entry)
// and walks its type as their read.
func (g *refGraph) field(field *ast.Field, from []types.Object, scope string) {
	var objs []types.Object
	names := field.Names
	if len(names) == 0 {
		names = []*ast.Ident{embeddedName(field.Type)}
	}
	for _, name := range names {
		obj := g.pkg.Info.Defs[name]
		if name.Name == "_" || obj == nil {
			continue
		}
		objs = append(objs, obj)
		if g.declare {
			g.add(obj, "field", scope+"."+name.Name)
		}
	}
	if field.Tag != nil {
		if tag, _ := strconv.Unquote(field.Tag.Value); tag != `json:"-"` {
			g.roots = append(g.roots, objs...)
			for _, obj := range objs {
				g.written[obj] = true
			}
		}
	}
	if g.declare && len(objs) > 0 {
		from = objs
		scope += "." + names[0].Name
	}
	g.walk(field.Type, from, scope)
}

// embeddedName returns the identifier an embedded field is named by.
func embeddedName(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// markWrite marks the variable or field an assignment to lhs stores into:
// the outermost selection, through any indexing.
func (g *refGraph) markWrite(lhs ast.Expr) {
	for {
		switch x := lhs.(type) {
		case *ast.ParenExpr:
			lhs = x.X
		case *ast.IndexExpr:
			lhs = x.X
		case *ast.SelectorExpr:
			g.writes[x.Sel] = true
			return
		case *ast.Ident:
			g.writes[x] = true
			return
		default:
			return
		}
	}
}

// markSelfCopy marks the source of x.f = y.f, one pair of an assignment,
// as no read of f: a field only ever copied into itself carries nothing
// anyone uses.
func (g *refGraph) markSelfCopy(lhs, rhs ast.Expr) {
	dst, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	src, ok2 := ast.Unparen(rhs).(*ast.SelectorExpr)
	if !ok || !ok2 {
		return
	}
	info := g.pkg.Info
	d, s := info.Selections[dst], info.Selections[src]
	if d != nil && s != nil && d.Kind() == types.FieldVal && s.Kind() == types.FieldVal &&
		d.Obj().(*types.Var).Origin() == s.Obj().(*types.Var).Origin() {
		g.writes[src.Sel] = true
	}
}

// wrote records the fields a store into e writes: every field selected on
// its path, through indexing, dereferences and embedded fields, so x.f.g = v
// writes f and g.
func (g *refGraph) wrote(e ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel := g.pkg.Info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			g.wroteSelection(sel)
			e = x.X
		default:
			return
		}
	}
}

// wroteSelection records the embedded fields on sel's path as written and,
// for a field selection, the field.
func (g *refGraph) wroteSelection(sel *types.Selection) {
	idx := sel.Index()
	if sel.Kind() != types.FieldVal {
		idx = idx[:len(idx)-1]
	}
	t := sel.Recv()
	for _, i := range idx {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		f := t.Underlying().(*types.Struct).Field(i)
		g.written[f.Origin()] = true
		t = f.Type()
	}
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// litStruct returns the struct type a composite literal of type t builds,
// also where an elided &T{...} element gives t as *T; nil otherwise.
func litStruct(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// callee returns the identifier a call expression calls by name, if any.
func callee(fun ast.Expr) *ast.Ident {
	for {
		switch x := fun.(type) {
		case *ast.ParenExpr:
			fun = x.X
		case *ast.IndexExpr:
			fun = x.X
		case *ast.IndexListExpr:
			fun = x.X
		case *ast.SelectorExpr:
			return x.Sel
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// hashTypes records the hashing typ implies: a map hashes its key, and a
// type argument for a comparable type parameter may be hashed or compared.
func (g *refGraph) hashTypes(from []types.Object, typ types.Type) {
	switch t := types.Unalias(typ).(type) {
	case *types.Map:
		g.hash(from, t.Key())
	case *types.Named:
		if m, ok := t.Underlying().(*types.Map); ok {
			g.hash(from, m.Key())
		}
		args := t.TypeArgs()
		for i := 0; i < args.Len(); i++ {
			if c, ok := t.Origin().TypeParams().At(i).Constraint().Underlying().(*types.Interface); ok && c.IsComparable() {
				g.hash(from, args.At(i))
			}
		}
	}
}

// hash records that from hashes or compares values of typ, which reads
// every field they hold.
func (g *refGraph) hash(from []types.Object, typ types.Type) {
	if typ == nil {
		return
	}
	var f0 types.Object
	if len(from) > 0 {
		f0 = from[0]
	}
	if g.hashed[hashUse{f0, typ}] {
		return
	}
	g.hashed[hashUse{f0, typ}] = true
	switch u := typ.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			g.read(from, u.Field(i))
			g.hash(from, u.Field(i).Type())
		}
	case *types.Array:
		g.hash(from, u.Elem())
	}
}

// collect gathers the interfaces typ mentions.
func (g *refGraph) collect(typ types.Type) {
	if typ == nil || g.seen[typ] {
		return
	}
	g.seen[typ] = true
	switch u := types.Unalias(typ).(type) {
	case *types.Named:
		if it, ok := u.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			g.ifaces = append(g.ifaces, it)
		}
	case *types.Interface:
		if u.NumMethods() > 0 {
			g.ifaces = append(g.ifaces, u)
		}
	case *types.Pointer:
		g.collect(u.Elem())
	case *types.Slice:
		g.collect(u.Elem())
	case *types.Map:
		g.collect(u.Elem())
	case *types.Chan:
		g.collect(u.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tup.Len(); i++ {
				g.collect(tup.At(i).Type())
			}
		}
	}
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

// TestUnreferencedGolden runs the guard over a fixture holding one case of
// each rule: write-only and literal-only fields, a field only copied into
// itself and one only swapped between two records, an unused constant, a
// var and function only dead code reaches, and an unused parameter of a
// function only called directly fail; a self-copied field with one other
// read, map-key, compared, tagged and embedded fields and an unused
// parameter of a function used as a value pass.
func TestUnreferencedGolden(t *testing.T) {
	const path = "acacia/x/unreferenced"
	dir, pkgs := loadGolden(t, "unreferenced", path)
	dead, _ := unreferenced(pkgs, path, nil)
	var diags []Diagnostic
	for _, f := range dead {
		pos := pkgs[0].Fset.Position(f.obj.Pos())
		diags = append(diags, Diagnostic{File: pos.Filename, Line: pos.Line, Message: f.String()})
	}
	compareDiags(t, dir, diags)
}

// TestUnwrittenGolden runs the write-side guard over a fixture holding one
// case of each store that counts as a write — assignment, op=, ++, --, a
// store through indexing or a nested selection, &x.f, a pointer method on
// the field or promoted through it, keyed, positional and elided-&T
// literal elements, a tag — and one of each finding: a field nothing
// writes, one only a test writes, and one only stored through.
func TestUnwrittenGolden(t *testing.T) {
	const path = "acacia/x/unwritten"
	dir, pkgs := loadGolden(t, "unwritten", path)
	var diags []Diagnostic
	for _, f := range unwritten(pkgs, path) {
		pos := pkgs[0].Fset.Position(f.obj.Pos())
		diags = append(diags, Diagnostic{File: pos.Filename, Line: pos.Line, Message: f.String()})
	}
	compareDiags(t, dir, diags)
}
