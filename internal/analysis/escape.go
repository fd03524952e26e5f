package analysis

import (
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// HotpathEscapeRule is the compiler-verified side of the §3f memory
// discipline. The syntactic hotalloc rule catches the allocation idioms a
// human can see (fmt, make/new, closures, string concat); this rule asks
// the compiler what actually allocates: it runs
//
//	go build -gcflags='<module>/...=-m -m' ./...
//
// over the module and maps every "escapes to heap" / "moved to heap"
// diagnostic onto the set of //acacia:hotpath-annotated functions. That
// catches what syntax cannot: interface boxing at call sites, closures the
// compiler fails to stack-allocate, variables moved to the heap by pointer
// escape, and composite literals that outlive their frame.
//
// Escape diagnostics are position-exact even under inlining (inlined
// bodies keep their source positions), so findings land on the allocating
// line, where they are fixed or suppressed with
// //acacia:allow hotpath-escape <reason> — the sanctioned reasons being
// pool-miss allocations on the refill path and handle-bearing APIs whose
// contract documents the allocation.
//
// The diagnostic text differs slightly across compiler versions (Go 1.22
// prints `x escapes to heap`, 1.24 may add a trailing colon before the
// -m -m explanation block); the parser accepts both, and CI runs the gate
// on both toolchains (make vet-escape).
func HotpathEscapeRule() *Rule {
	return &Rule{
		Name:       "hotpath-escape",
		Doc:        "//acacia:hotpath functions must be allocation-free per the compiler's escape analysis (go build -gcflags=-m)",
		RunProgram: runHotpathEscape,
	}
}

// hotRange is one annotated function's extent in a source file.
type hotRange struct {
	file string // absolute path
	start,
	end int // line range, inclusive
	name string
}

// collectHotRanges gathers the //acacia:hotpath functions from the
// analyzed packages. When buildable is true, only functions the compiler
// will actually see are kept (testdata fixtures and _test.go files are not
// part of `go build ./...`).
func collectHotRanges(prog *Program, buildable bool) []hotRange {
	var ranges []hotRange
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			pos := prog.Fset.Position(file.Pos())
			if buildable && (strings.Contains(pos.Filename, sep+"testdata"+sep) || strings.HasSuffix(pos.Filename, "_test.go")) {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !isHotPath(fd.Doc) {
					continue
				}
				start := prog.Fset.Position(fd.Pos())
				end := prog.Fset.Position(fd.End())
				name := fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					name = "(" + exprString(fd.Recv.List[0].Type) + ")." + name
				}
				ranges = append(ranges, hotRange{file: start.Filename, start: start.Line, end: end.Line, name: name})
			}
		}
	}
	sort.Slice(ranges, func(i, j int) bool {
		if ranges[i].file != ranges[j].file {
			return ranges[i].file < ranges[j].file
		}
		return ranges[i].start < ranges[j].start
	})
	return ranges
}

var sep = string(filepath.Separator)

// escapeLine matches one compiler diagnostic: path:line:col: message. The
// -m -m explanation blocks are indented and header lines start with '#',
// so anchoring at column zero skips both.
var escapeLine = regexp.MustCompile(`^([^\s#][^:]*\.go):(\d+):(\d+): (.+?):?$`)

// isEscapeMessage reports whether a compiler message describes a heap
// allocation (as opposed to inlining or leak commentary).
func isEscapeMessage(msg string) bool {
	return strings.HasSuffix(msg, "escapes to heap") || strings.HasPrefix(msg, "moved to heap:")
}

func runHotpathEscape(p *ProgramPass) {
	prog := p.Prog

	var output []byte
	var ranges []hotRange
	if prog.EscapeOutput != nil {
		// Test seam: canned compiler output mapped over every annotated
		// function, fixtures included.
		ranges = collectHotRanges(prog, false)
		out, err := prog.EscapeOutput()
		if err != nil {
			p.ReportAt(token.Position{Filename: "hotpath-escape"}, "escape output unavailable: %v", err)
			return
		}
		output = out
	} else {
		ranges = collectHotRanges(prog, true)
		if len(ranges) == 0 || prog.ModuleRoot == "" || prog.ModulePath == "" {
			return // nothing annotated in buildable code (fixture-only loads)
		}
		cmd := exec.Command("go", "build", "-gcflags", prog.ModulePath+"/...=-m -m", "./...")
		cmd.Dir = prog.ModuleRoot
		out, err := cmd.CombinedOutput()
		if err != nil {
			// A failing build would hide findings; surface it loudly rather
			// than passing silently.
			msg := strings.TrimSpace(string(out))
			if len(msg) > 400 {
				msg = msg[:400] + " ..."
			}
			p.ReportAt(token.Position{Filename: filepath.Join(prog.ModuleRoot, "go.mod")},
				"go build -gcflags=-m failed; escape gate cannot run: %v: %s", err, strings.ReplaceAll(msg, "\n", " / "))
			return
		}
		output = out
	}

	// Index ranges per file for the position lookup.
	byFile := map[string][]hotRange{}
	for _, r := range ranges {
		byFile[r.file] = append(byFile[r.file], r)
	}

	seen := map[string]bool{}
	for _, line := range strings.Split(string(output), "\n") {
		m := escapeLine.FindStringSubmatch(line)
		if m == nil || !isEscapeMessage(m[4]) {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(prog.ModuleRoot, filepath.FromSlash(file))
		}
		lineNo, _ := strconv.Atoi(m[2])
		colNo, _ := strconv.Atoi(m[3])
		var hit *hotRange
		for i := range byFile[file] {
			r := &byFile[file][i]
			if lineNo >= r.start && lineNo <= r.end {
				hit = r
				break
			}
		}
		if hit == nil {
			continue
		}
		id := file + ":" + m[2] + ":" + m[3] + ":" + m[4]
		if seen[id] {
			continue
		}
		seen[id] = true
		p.ReportAt(token.Position{Filename: file, Line: lineNo, Column: colNo},
			"%s inside //acacia:hotpath function %s; hot paths must not allocate — pool it, pre-bind it, or move it to a cold helper",
			m[4], hit.name)
	}
}

// exprString renders a (small) receiver chain for diagnostics.
func exprString(expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	default:
		return "<expr>"
	}
}
