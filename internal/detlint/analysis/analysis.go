// Package analysis is a standard-library-only reimplementation of the
// golang.org/x/tools/go/analysis core types, shaped so the detlint
// analyzers read exactly like upstream go/analysis passes and could be
// ported to the real framework by swapping one import.
//
// The x/tools module is deliberately not a dependency: the simulator's
// go.mod has no third-party requirements and the analyzers only need the
// subset below — an Analyzer descriptor, a per-package Pass carrying the
// type-checked syntax, and positional diagnostics. Drivers (cmd/detlint
// and the analysistest harness) construct Passes from whatever source
// they load.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Name appears as the diagnostic
// category and the multichecker sub-command; Doc is the one-paragraph
// help text whose first line is the summary.
type Analyzer struct {
	Name string
	Doc  string

	// Run applies the check to one package and reports diagnostics via
	// pass.Report/Reportf. The result value is unused by detlint's
	// drivers (no fact propagation) but kept for upstream API parity.
	Run func(*Pass) (interface{}, error)
}

// Pass is the interface between one Analyzer and one type-checked
// package, mirroring go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. Drivers install it; analyzers
	// should prefer Reportf.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// Reportf reports a formatted diagnostic at pos, categorized under the
// analyzer's name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}
