package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantPattern matches golden expectations in testdata comments:
//
//	// want "regexp"        — a diagnostic on this line matching regexp
//	// want:-2 "regexp"     — same, but two lines up (for lines whose
//	//                        comment slot is taken by a directive)
var wantPattern = regexp.MustCompile(`want(?::([+-][0-9]+))?\s+"([^"]+)"`)

type expectation struct {
	file string // base name
	line int
	re   *regexp.Regexp
	used bool
}

// readExpectations scans every .go file in dir for want comments.
func readExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var exps []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantPattern.FindAllStringSubmatch(line, -1) {
				offset := 0
				if m[1] != "" {
					fmt.Sscanf(m[1], "%d", &offset)
				}
				re, err := regexp.Compile(m[2])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", e.Name(), i+1, m[2], err)
				}
				exps = append(exps, &expectation{file: e.Name(), line: i + 1 + offset, re: re})
			}
		}
	}
	return exps
}

// loadGolden loads one testdata package under the given import path.
func loadGolden(t *testing.T, dirName, importPath string) (string, []*Package) {
	t.Helper()
	dir := filepath.Join("testdata", "src", dirName)
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadDir(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.Errs {
			t.Errorf("type error in %s: %v", pkg.Path, e)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	return dir, pkgs
}

// compareDiags checks diagnostics against the want comments in dir.
func compareDiags(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	exps := readExpectations(t, dir)
	for _, d := range diags {
		base := filepath.Base(d.File)
		matched := false
		for _, e := range exps {
			if !e.used && e.file == base && e.line == d.Line && e.re.MatchString(d.Message) {
				e.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, e := range exps {
		if !e.used {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.re)
		}
	}
}

// checkGolden loads one testdata package under the given import path, runs
// every rule, and compares the surviving diagnostics against the want
// comments in its sources.
func checkGolden(t *testing.T, dirName, importPath string) {
	t.Helper()
	dir, pkgs := loadGolden(t, dirName, importPath)
	compareDiags(t, dir, Run(pkgs, AllRules()))
}

func TestWallClockGolden(t *testing.T)  { checkGolden(t, "wallclock", "acacia/internal/wallclock") }
func TestGoroutineGolden(t *testing.T)  { checkGolden(t, "goroutine", "acacia/internal/goroutine") }
func TestGlobalRandGolden(t *testing.T) { checkGolden(t, "globalrand", "acacia/internal/globalrand") }
func TestMapRangeGolden(t *testing.T)   { checkGolden(t, "maprange", "acacia/internal/maprange") }
func TestMetricNameGolden(t *testing.T) { checkGolden(t, "metricname", "acacia/internal/metricname") }
func TestDirectivesGolden(t *testing.T) { checkGolden(t, "directives", "acacia/internal/directives") }

// The interprocedural fixtures live outside internal/ on purpose: the
// per-site wallclock rule does not govern them, so every finding below is
// the call graph's alone.
func TestDetTaintGolden(t *testing.T) { checkGolden(t, "dettaint", "acacia/x/dettaint") }

// escapeMarker turns "// escape: <msg>" fixture comments into synthetic
// compiler diagnostics at that file:line.
var escapeMarker = regexp.MustCompile(`// escape: (.+)$`)

// TestHotpathEscapeGolden drives the escape gate with synthetic compiler
// output in both diagnostic formats: the plain Go 1.22 form and the 1.24
// -m -m form with trailing colons and indented explanation blocks. Both
// must yield the same findings, mapped onto hotpath ranges and suppressible
// by //acacia:allow.
func TestHotpathEscapeGolden(t *testing.T) {
	dir, pkgs := loadGolden(t, "hotescape", "acacia/x/hotescape")
	fname, err := filepath.Abs(filepath.Join(dir, "hotescape.go"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(fname)
	if err != nil {
		t.Fatal(err)
	}
	header := []string{
		"# acacia/x/hotescape",
		fname + ":99:1: can inline grow", // inline chatter: not an escape, must be skipped
		"<autogenerated>:1: inlined call to grow",
	}
	plain, verbose := append([]string(nil), header...), append([]string(nil), header...)
	for i, line := range strings.Split(string(data), "\n") {
		m := escapeMarker.FindStringSubmatchIndex(line)
		if m == nil {
			continue
		}
		msg := line[m[2]:m[3]]
		pos := fmt.Sprintf("%s:%d:%d: ", fname, i+1, m[0]+1)
		plain = append(plain, pos+msg)
		verbose = append(verbose,
			pos+msg+":",
			"    flow: sink = &{storage for &buf{}}:",
			"        from sink = &buf{} at "+pos[:len(pos)-2])
	}
	if len(plain) == len(header) {
		t.Fatal("no escape markers found in fixture")
	}
	for name, output := range map[string]string{
		"go122": strings.Join(plain, "\n"),
		"go124": strings.Join(verbose, "\n"),
	} {
		t.Run(name, func(t *testing.T) {
			prog := NewProgram(pkgs)
			prog.EscapeOutput = func() ([]byte, error) { return []byte(output), nil }
			compareDiags(t, dir, RunProgram(prog, AllRules()))
		})
	}
}

// TestExecExempt checks the internal/exec carve-out: real goroutines and
// wall-clock waits are legal in the worker pool package.
func TestExecExempt(t *testing.T) { checkGolden(t, "exempt", "acacia/internal/exec") }

// TestNonInternalExempt checks wallclock only governs internal/ code.
func TestNonInternalExempt(t *testing.T) { checkGolden(t, "nonsim", "acacia/cmd/nonsim") }

// TestRepoIsClean is the contract the other tests exist to protect: the
// repo's own code must produce zero diagnostics under every rule.
func TestRepoIsClean(t *testing.T) {
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
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; pattern expansion is broken", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.Errs {
			t.Errorf("type error in %s: %v", pkg.Path, e)
		}
	}
	prog := NewProgram(pkgs)
	for _, d := range RunProgram(prog, AllRules()) {
		t.Errorf("repo not vet-clean: %s", d)
	}
	// The program rules are only meaningful if the call graph actually
	// found the repo's handlers: a regression that silently empties the
	// root set would make dettaint vacuous. The floors sit about a fifth
	// below the repo's current 121 roots and 609 reachable functions.
	graph := prog.CallGraph()
	if len(graph.RootKeys) < 100 {
		t.Errorf("call graph found %d handler roots; the repo schedules far more — root detection is broken", len(graph.RootKeys))
	}
	if order, _ := graph.HandlerReachable(); len(order) < 500 {
		t.Errorf("only %d handler-reachable functions; reachability is broken", len(order))
	}
}

func TestSelectRules(t *testing.T) {
	all, err := SelectRules("")
	if err != nil || len(all) != 7 {
		t.Fatalf("empty selection = %d rules, err %v; want all 7", len(all), err)
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Name < all[j].Name }) {
		t.Error("AllRules not in name order")
	}
	picked, err := SelectRules("wallclock, maprange, wallclock")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(RuleNames(picked), ","); got != "wallclock,maprange" {
		t.Errorf("selection = %s, want wallclock,maprange (order kept, dups dropped)", got)
	}
	if _, err := SelectRules("nosuchrule"); err == nil {
		t.Error("unknown rule accepted")
	}
	if _, err := SelectRules(" , "); err == nil {
		t.Error("blank selection accepted")
	}
}

func TestValidMetricName(t *testing.T) {
	valid := []string{"epc", "epc/s1ap/latency-ms", "a1/b-2"}
	invalid := []string{"", "/", "epc/", "/epc", "Epc", "epc/latency_ms", "epc//x", "epc/läge"}
	for _, n := range valid {
		if !validMetricName(n) {
			t.Errorf("validMetricName(%q) = false, want true", n)
		}
	}
	for _, n := range invalid {
		if validMetricName(n) {
			t.Errorf("validMetricName(%q) = true, want false", n)
		}
	}
}
