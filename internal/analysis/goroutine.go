package analysis

import (
	"go/ast"
	"go/token"
)

// GoroutineRule enforces the concurrency contract: the sim engine and
// every layer on it are single-threaded by design — nothing inside one run
// is concurrent — and the only sanctioned parallelism is the bounded worker
// pool in internal/exec (which schedules whole trials and reassembles
// outcomes deterministically). A stray go statement anywhere else
// introduces scheduling nondeterminism the byte-identical-output contract
// cannot survive — and channels are how such stray concurrency
// communicates, so channel types, sends, receives, and selects are confined
// to the same package.
func GoroutineRule() *Rule {
	return &Rule{
		Name: "goroutine",
		Doc:  "no go statements or channel constructs outside internal/exec; use the bounded worker pool",
		Run:  runGoroutine,
	}
}

func runGoroutine(p *Pass) {
	if isExecPkg(p.BasePath()) {
		return
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.Reportf(n.Pos(),
					"go statement outside internal/exec: route concurrency through the bounded worker pool (exec.RunProgress)")
			case *ast.ChanType:
				p.Reportf(n.Pos(),
					"channel type outside internal/exec: concurrency plumbing belongs to the worker-pool package")
			case *ast.SendStmt:
				p.Reportf(n.Pos(),
					"channel send outside internal/exec: concurrency plumbing belongs to the worker-pool package")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					p.Reportf(n.Pos(),
						"channel receive outside internal/exec: concurrency plumbing belongs to the worker-pool package")
				}
			case *ast.SelectStmt:
				p.Reportf(n.Pos(),
					"select statement outside internal/exec: concurrency plumbing belongs to the worker-pool package")
			}
			return true
		})
	}
}
