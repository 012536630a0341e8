// Package nohosttime forbids host-environment reads — wall-clock time,
// the process environment, and the shared math/rand global generator —
// inside the simulator's internal packages.
//
// The simulation is a pure function of (scenario spec, seed): every
// quantity that reaches simulated state or a checksummed dump must be
// derived from the simulated clock and seeded generators. `time.Now`
// smuggles the host into that function; the global `math/rand`
// functions draw from a process-wide source shared with anything else
// in the binary (and are racy across the parallel engine's shard
// goroutines); `os.Getenv` makes behavior depend on who ran the tests.
// Seeded `rand.New(rand.NewSource(seed))` generators are fine and are
// not flagged.
//
// There is no escape hatch: wall-clock measurement of the simulator
// itself belongs to the benchmark module (bench/), which times the
// program from outside and is not a simulator package.
package nohosttime

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/detlint/analysis"
	"repro/internal/detlint/simscope"
)

// Analyzer is the nohosttime pass.
var Analyzer = &analysis.Analyzer{
	Name: "nohosttime",
	Doc: "forbid host time, environment and global-rand reads in simulator packages\n\n" +
		"Simulated behavior must be a pure function of spec and seed.",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !simscope.Sim(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			why := banned(fn)
			if why == "" {
				return true
			}
			pass.Reportf(sel.Pos(), "%s.%s in simulator package: %s; derive it from the simulated clock/seed", fn.Pkg().Name(), fn.Name(), why)
			return true
		})
	}
	return nil, nil
}

// banned reports why referencing fn is forbidden ("" if it is fine).
// References, not just calls, are flagged: storing time.Now in a func
// value hides the dependency without removing it.
func banned(fn *types.Func) string {
	if fn.Pkg() == nil || fn.Signature().Recv() != nil {
		return "" // methods (e.g. (*rand.Rand).Intn) are seeded and fine
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			return "host wall-clock time is nondeterministic"
		}
	case "os":
		switch name {
		case "Getenv", "LookupEnv", "Environ":
			return "process environment varies by host"
		}
	case "math/rand", "math/rand/v2":
		// Constructors build seeded, locally-owned generators; every
		// other package-level function draws from the shared global
		// source.
		if !strings.HasPrefix(name, "New") {
			return "global math/rand source is process-shared and unseeded"
		}
	}
	return ""
}
