// Package analysis is the repo's static-analysis framework: a small,
// stdlib-only (go/parser, go/ast, go/types) analogue of
// golang.org/x/tools/go/analysis that machine-checks the determinism,
// telemetry and transport contracts the simulation depends on.
//
// The contracts themselves live in DESIGN.md §3/§3b/§3c: every §4 table
// must be byte-identical across sequential and parallel runs, which holds
// only if sim code reads the virtual clock (never the wall clock), derives
// randomness from trial seeds (never process-global state), sorts map keys
// before feeding iteration order into output, names metrics by the
// layer[/sub]/name grammar, and routes concurrency through the bounded
// worker pool. Each contract is a Rule; cmd/acacia-vet is the driver.
//
// A finding can be suppressed at the site with a directive comment:
//
//	//acacia:allow <rule> <reason>
//
// placed on the flagged line or the line directly above it. The reason is
// mandatory — an allow without one is itself reported — so every exemption
// documents why the contract does not apply there.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Rule is one statically checked contract. A rule is either per-package
// (Run, invoked once per loaded package) or whole-program (RunProgram,
// invoked once over all packages — the call-graph and escape-gate rules).
type Rule struct {
	// Name identifies the rule in diagnostics, -rules selections and
	// //acacia:allow directives.
	Name string
	// Doc is a one-line description of the contract the rule enforces.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// RunProgram inspects the whole program. Exactly one of Run/RunProgram
	// is set.
	RunProgram func(*ProgramPass)
}

// Diagnostic is one finding: a violated contract at a position.
type Diagnostic struct {
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Rule    string         `json:"rule"`
	Message string         `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Pass carries one type-checked package through one rule's Run.
type Pass struct {
	Fset *token.FileSet
	// Path is the package's import path. Test variants keep the base
	// package's path; external test packages carry a "_test" suffix.
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// prog is the whole program the package was loaded with, for the
	// per-package rules that ask the call graph about a callee.
	prog  *Program
	rule  *Rule
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    p.rule.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// BasePath is the pass's import path with any external-test "_test"
// suffix removed, so rules can gate on the package's real identity.
func (p *Pass) BasePath() string { return strings.TrimSuffix(p.Path, "_test") }

// AllRules lists every rule the suite ships, in stable name order. The
// slice is freshly allocated; callers may reorder or subset it.
func AllRules() []*Rule {
	rules := []*Rule{
		DetTaintRule(),
		GoroutineRule(),
		GlobalRandRule(),
		HotpathEscapeRule(),
		MapRangeRule(),
		MetricNameRule(),
		WallClockRule(),
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].Name < rules[j].Name })
	return rules
}

// RuleNames reports the names of rules in order.
func RuleNames(rules []*Rule) []string {
	names := make([]string, len(rules))
	for i, r := range rules {
		names[i] = r.Name
	}
	return names
}

// SelectRules resolves a comma-separated -rules list against the full
// suite. An empty selection means every rule.
func SelectRules(selection string) ([]*Rule, error) {
	all := AllRules()
	if strings.TrimSpace(selection) == "" {
		return all, nil
	}
	byName := make(map[string]*Rule, len(all))
	for _, r := range all {
		byName[r.Name] = r
	}
	var picked []*Rule
	seen := map[string]bool{}
	for _, name := range strings.Split(selection, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		r, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (have %s)", name, strings.Join(RuleNames(all), ", "))
		}
		if !seen[name] {
			seen[name] = true
			picked = append(picked, r)
		}
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("empty rule selection %q", selection)
	}
	return picked, nil
}

// allowPattern matches the suppression directive. The rule name is
// mandatory; everything after it is the reason.
var allowPattern = regexp.MustCompile(`^//acacia:allow\s+(\S+)\s*(.*)$`)

// allowDirective is one parsed //acacia:allow comment.
type allowDirective struct {
	file   string
	line   int
	col    int
	rule   string
	reason string
	used   bool
}

// Run executes the rules over the packages and returns the surviving
// diagnostics sorted by position. Suppressed findings are removed;
// malformed directives (missing reason, unknown rule) and stale ones
// (suppressing nothing) are reported as "directive" findings so a typo —
// or a fix that outlived its exemption — cannot silently disable a check.
func Run(pkgs []*Package, rules []*Rule) []Diagnostic {
	return RunProgram(NewProgram(pkgs), rules)
}

// RunProgram is Run with an explicit Program, the entry point for callers
// that need to pre-configure program state (the escape-gate tests inject
// canned compiler output through Program.EscapeOutput).
func RunProgram(prog *Program, rules []*Rule) []Diagnostic {
	pkgs := prog.Pkgs
	var diags []Diagnostic
	var allows []*allowDirective
	knownRule := map[string]bool{}
	for _, r := range AllRules() {
		knownRule[r.Name] = true
	}
	for _, pkg := range pkgs {
		for _, rule := range rules {
			if rule.Run == nil {
				continue
			}
			pass := &Pass{
				Fset:  pkg.Fset,
				Path:  pkg.Path,
				Files: pkg.Files,
				Pkg:   pkg.Pkg,
				Info:  pkg.Info,
				prog:  prog,
				rule:  rule,
				diags: &diags,
			}
			rule.Run(pass)
		}
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					m := allowPattern.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					d := &allowDirective{file: pos.Filename, line: pos.Line, col: pos.Column, rule: m[1], reason: strings.TrimSpace(m[2])}
					allows = append(allows, d)
					switch {
					case !knownRule[d.rule]:
						diags = append(diags, Diagnostic{
							Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Rule:    "directive",
							Message: fmt.Sprintf("//acacia:allow names unknown rule %q", d.rule),
						})
					case d.reason == "":
						diags = append(diags, Diagnostic{
							Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Rule:    "directive",
							Message: fmt.Sprintf("//acacia:allow %s needs a reason", d.rule),
						})
					}
				}
			}
		}
	}
	for _, rule := range rules {
		if rule.RunProgram == nil {
			continue
		}
		rule.RunProgram(&ProgramPass{Prog: prog, rule: rule, diags: &diags})
	}
	selected := map[string]bool{}
	for _, r := range rules {
		selected[r.Name] = true
	}
	diags = suppress(diags, allows)
	diags = append(diags, unusedAllows(allows, knownRule, selected)...)
	// Total order: (file, line, column, rule, message). The message
	// tie-break matters for -json consumers and golden files — one rule can
	// report twice at one position, and without it the relative order would
	// depend on map-iteration accidents upstream.
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return diags
}

// unusedAllows reports well-formed //acacia:allow directives that
// suppressed nothing in this run — stale exemptions that would otherwise
// quietly accumulate. Only directives for rules that actually ran are
// judged (running `-rules wallclock` must not condemn a maprange allow),
// and hotpath-escape is exempt: its findings vary with the compiler
// version, so an allow used on Go 1.24 may legitimately be idle on 1.22.
func unusedAllows(allows []*allowDirective, knownRule, selected map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, a := range allows {
		if a.used || a.reason == "" || !knownRule[a.rule] || !selected[a.rule] || a.rule == "hotpath-escape" {
			continue
		}
		out = append(out, Diagnostic{
			Pos:     token.Position{Filename: a.file, Line: a.line, Column: a.col},
			File:    a.file,
			Line:    a.line,
			Col:     a.col,
			Rule:    "directive",
			Message: fmt.Sprintf("//acacia:allow %s suppresses nothing; delete the stale directive", a.rule),
		})
	}
	return out
}

// suppress drops findings covered by a well-formed allow directive on the
// same line or the line directly above.
func suppress(diags []Diagnostic, allows []*allowDirective) []Diagnostic {
	if len(allows) == 0 {
		return diags
	}
	type key struct {
		file string
		line int
		rule string
	}
	index := map[key]*allowDirective{}
	for _, a := range allows {
		if a.reason == "" {
			continue // malformed: reported, never honoured
		}
		index[key{a.file, a.line, a.rule}] = a
	}
	kept := diags[:0]
	for _, d := range diags {
		if a, ok := index[key{d.File, d.Line, d.Rule}]; ok {
			a.used = true
			continue
		}
		if a, ok := index[key{d.File, d.Line - 1, d.Rule}]; ok {
			a.used = true
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// funcFor returns the innermost function declaration or literal enclosing
// pos in file, along with its body. Rules use it to scan statements that
// follow a flagged construct (e.g. a sort call after a key-collecting map
// range).
func funcFor(file *ast.File, pos token.Pos) *ast.BlockStmt {
	var body *ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.File); !ok && (pos < n.Pos() || pos >= n.End()) {
			return false // prune subtrees that cannot contain pos
		}
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		return true
	})
	return body
}
