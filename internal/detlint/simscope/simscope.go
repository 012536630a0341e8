// Package simscope decides which packages each detlint invariant
// applies to, by import path. Matching is by path *suffix* under
// internal/ rather than the literal module path, so the analyzers apply
// identically to the real tree (repro/internal/nova) and to the
// analysistest fixtures (example.com/internal/nova).
//
// The scope is inclusive by default: every single-segment internal/
// package is covered — the simulation packages whose state feeds the
// checksummed scenario dump (nova, gic, cpu, cache, tlb, mmu, reconfig,
// sched, capspace, hwtask, pl, fault, trace), the rendering layers
// whose output must be byte-stable (measure, trace's exporters,
// experiments' reports), and the harness layers (scenario, ucos, apps).
// A package added by a future PR is therefore covered before anyone
// remembers to exempt it; only the static-analysis tooling itself is
// excluded. Map iteration order in any covered package can surface as a
// checksum divergence (the PR 4 vGIC distributor bug) or an unstable
// rendering (the PR 7 measure bug).
package simscope

import "strings"

// excluded names internal/ packages outside the determinism invariants:
// only the analyzer tooling, which never touches simulated state.
var excluded = map[string]bool{
	"detlint": true,
}

// internalBase returns the path element after the last "internal/"
// segment, or "" if the path has no internal/ segment or nests deeper
// (sub-packages of internal/detlint are multi-segment and thus out of
// scope structurally).
func internalBase(path string) string {
	i := strings.LastIndex(path, "internal/")
	if i < 0 || (i > 0 && path[i-1] != '/') {
		return ""
	}
	base := path[i+len("internal/"):]
	if strings.Contains(base, "/") {
		return ""
	}
	return base
}

// Sim reports whether the import path is a simulation-state or
// rendering package (the nomaprange and nohosttime scope).
func Sim(path string) bool {
	base := internalBase(path)
	return base != "" && !excluded[base]
}

// Trace reports whether the import path is the trace package itself
// (the tracewriter scope).
func Trace(path string) bool {
	return internalBase(path) == "trace"
}
