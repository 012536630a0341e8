package scenario

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_short.txt, testdata/golden_full.txt and testdata/golden_trace.txt from this run")

// goldenHeader opens each scenario's block in a golden file: the header
// line carries the name and checksum, the block's remaining lines are the
// scenario's Detail, verbatim.
const goldenHeader = "=== "

func goldenPath(short bool) string {
	if short {
		return filepath.Join("testdata", "golden_short.txt")
	}
	return filepath.Join("testdata", "golden_full.txt")
}

// goldenBlock renders one result as its golden-file block.
func goldenBlock(r Result) string {
	return fmt.Sprintf("%s%s %016x\n%s", goldenHeader, r.Name, r.Checksum, r.Detail)
}

// splitGolden cuts a golden file into its per-scenario blocks, keyed by
// name, and returns the names in file order.
func splitGolden(text string) (names []string, blocks map[string]string) {
	blocks = map[string]string{}
	var name string
	for _, line := range strings.SplitAfter(text, "\n") {
		if rest, ok := strings.CutPrefix(line, goldenHeader); ok {
			name, _, _ = strings.Cut(strings.TrimSuffix(rest, "\n"), " ")
			names = append(names, name)
		}
		blocks[name] += line
	}
	return names, blocks
}

// TestSuiteGolden pins the behaviour contract: every suite scenario's
// checksum and state dump, in short and full mode, against the checked-in
// goldens. The full-mode suite is skipped under -short; -update rewrites
// both files.
func TestSuiteGolden(t *testing.T) {
	modes := []bool{true}
	if !testing.Short() || *update {
		modes = append(modes, false)
	}
	for _, short := range modes {
		results := RunSuite(Suite(short))
		path := goldenPath(short)
		if *update {
			var b strings.Builder
			for _, r := range results {
				b.WriteString(goldenBlock(r))
			}
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d scenarios)", path, len(results))
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run go test ./internal/scenario -run TestSuiteGolden -update to create it)", err)
		}
		names, want := splitGolden(string(raw))
		if len(names) != len(results) {
			t.Errorf("%s: %d scenarios pinned, suite has %d", path, len(names), len(results))
		}
		for _, r := range results {
			w, ok := want[r.Name]
			if !ok {
				t.Errorf("%s: scenario %s is not pinned", path, r.Name)
				continue
			}
			if got := goldenBlock(r); got != w {
				t.Errorf("%s: %s differs from the golden\n%s", path, r.Name, diffDetail(w, got))
			}
		}
	}
}

// diffDetailContext is how many equal lines diffDetail shows around the
// first difference.
const diffDetailContext = 3

// diffDetail reports the first differing dump line with a few lines of
// context on either side, for readable failures instead of two multi-KB
// blobs. want lines are marked "-", got lines "+".
func diffDetail(want, got string) string {
	wl := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
	gl := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	at := func(ls []string, i int) (string, bool) {
		if i < len(ls) {
			return ls[i], true
		}
		return "", false
	}
	for i := 0; i < len(wl) || i < len(gl); i++ {
		w, wok := at(wl, i)
		g, gok := at(gl, i)
		if w == g && wok == gok {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "first difference at line %d:\n", i+1)
		for j := max(0, i-diffDetailContext); j < i; j++ {
			fmt.Fprintf(&b, "  %s\n", wl[j])
		}
		if wok {
			fmt.Fprintf(&b, "- %s\n", w)
		} else {
			b.WriteString("- (end of dump)\n")
		}
		if gok {
			fmt.Fprintf(&b, "+ %s\n", g)
		} else {
			b.WriteString("+ (end of dump)\n")
		}
		for j := i + 1; j <= i+diffDetailContext; j++ {
			if l, ok := at(wl, j); ok {
				fmt.Fprintf(&b, "  %s\n", l)
			}
		}
		return b.String()
	}
	return "(no differing line)"
}

// traceGoldenPath pins the traced event stream of traceGoldenScenarios.
var traceGoldenPath = filepath.Join("testdata", "golden_trace.txt")

// traceGoldenScenarios are the short-mode runs whose whole Chrome trace is
// pinned: a single-core system, and reconfig-thrash, whose two cores emit
// scheduler events on both sides of the epoch barrier.
var traceGoldenScenarios = []string{"baseline-2vm", "reconfig-thrash"}

// traceGoldenBlock renders one traced run as its golden-file block: one
// "kind count" line per event kind the rings retained, in kind order,
// then the FNV-64a digest of the Chrome trace JSON. A mismatch in the
// counts is reported as the first differing line, ahead of the digest.
func traceGoldenBlock(name string, tr *trace.Tracer, raw []byte) string {
	h := fnv.New64a()
	h.Write(raw)
	var counts [256]int // one per trace.Kind value
	for c := 0; c < tr.Cores(); c++ {
		for _, e := range tr.Core(c).Events() {
			counts[e.Kind]++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s\n", goldenHeader, name)
	for k, n := range counts {
		if n > 0 {
			fmt.Fprintf(&b, "%s %d\n", trace.Kind(k), n)
		}
	}
	fmt.Fprintf(&b, "chrome-json-fnv64a %016x\n", h.Sum64())
	return b.String()
}

// TestTraceGolden pins the traced event stream byte for byte: each
// scenario's Chrome trace JSON must match the checked-in digest, and must
// be the same whether its cores share one host goroutine or run on two.
// -update rewrites the file.
func TestTraceGolden(t *testing.T) {
	var blocks []string
	for _, name := range traceGoldenScenarios {
		spec, ok := FindSpec(name, true)
		if !ok {
			t.Fatalf("%s spec missing", name)
		}
		spec.Trace = true
		var block string
		for _, shards := range []int{1, 2} {
			spec.Shards = shards
			res := Build(spec).Run()
			raw, err := res.Trace.ChromeJSON()
			if err != nil {
				t.Fatalf("%s: ChromeJSON: %v", name, err)
			}
			got := traceGoldenBlock(name, res.Trace, raw)
			if block == "" {
				block = got
			} else if got != block {
				t.Errorf("%s: trace with %d shards differs from the one-shard trace\n%s", name, shards, diffDetail(block, got))
			}
		}
		blocks = append(blocks, block)
	}
	if *update {
		if err := os.WriteFile(traceGoldenPath, []byte(strings.Join(blocks, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d scenarios)", traceGoldenPath, len(blocks))
		return
	}
	raw, err := os.ReadFile(traceGoldenPath)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/scenario -run TestTraceGolden -update to create it)", err)
	}
	_, want := splitGolden(string(raw))
	for i, name := range traceGoldenScenarios {
		if got := blocks[i]; got != want[name] {
			t.Errorf("%s: %s trace differs from the golden\n%s", traceGoldenPath, name, diffDetail(want[name], got))
		}
	}
}
