// Package directive parses detlint's source-level escape hatches.
//
// A diagnostic is suppressed by a comment of the form
//
//	//detlint:<kind> <justification>
//
// placed either on the flagged line itself (trailing) or on the line
// directly above it. The justification is mandatory: an annotation that
// silences a determinism check without saying *why* the site is safe is
// itself a finding — the analyzers report bare annotations instead of
// honoring them. Kinds in use: "ordered" (nomaprange), "partial"
// (exhauststatus), "tracewriter" (tracewriter).
package directive

import (
	"go/ast"
	"go/token"
	"strings"
)

const prefix = "//detlint:"

// Directive is one parsed //detlint: comment.
type Directive struct {
	Kind   string
	Reason string
	Pos    token.Pos
}

// Map indexes a package's directives by file and line.
type Map struct {
	fset *token.FileSet
	at   map[string]map[int][]Directive // filename → line → directives
}

// Collect gathers every //detlint: directive in files.
func Collect(fset *token.FileSet, files []*ast.File) *Map {
	m := &Map{fset: fset, at: make(map[string]map[int][]Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, prefix)
				if !ok {
					continue
				}
				kind, reason, _ := strings.Cut(text, " ")
				pos := fset.Position(c.Pos())
				lines := m.at[pos.Filename]
				if lines == nil {
					lines = make(map[int][]Directive)
					m.at[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], Directive{
					Kind:   strings.TrimSpace(kind),
					Reason: strings.TrimSpace(reason),
					Pos:    c.Pos(),
				})
			}
		}
	}
	return m
}

// For returns the directive of the given kind covering pos — same line
// or the line immediately above — and whether one exists.
func (m *Map) For(kind string, pos token.Pos) (Directive, bool) {
	p := m.fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, d := range m.at[p.Filename][line] {
			if d.Kind == kind {
				return d, true
			}
		}
	}
	return Directive{}, false
}
