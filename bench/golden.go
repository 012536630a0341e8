package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// goldenSeed is the seed whose digests are pinned. Any other seed is
// checked only for agreement between reps and with the parallel engine.
const goldenSeed = 1

// goldenContext is how many dump lines around the first difference a
// mismatch report quotes.
const goldenContext = 3

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenEntry pins one workload's state after one rep at goldenSeed.
type goldenEntry struct {
	Checksum string   `json:"checksum"`
	Dump     []string `json:"dump"`
}

// goldenFile maps goldenKey(workload, short) to its entry.
type goldenFile struct {
	Seed    int                    `json:"seed"`
	Entries map[string]goldenEntry `json:"entries"`
}

func goldenKey(name string, short bool) string {
	if short {
		return name + "/short"
	}
	return name
}

// checkGolden compares an outcome at goldenSeed with its pinned entry and
// returns "" when they agree, else a report quoting the first differing
// dump line.
func checkGolden(name string, short bool, o outcome) string {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Sprintf("golden file: %v", err)
	}
	key := goldenKey(name, short)
	e, ok := g.Entries[key]
	if !ok {
		return fmt.Sprintf("golden file has no entry %q (run with -update)", key)
	}
	if d := firstDifference(e.Dump, o.dump); d != "" {
		return "state differs from the golden dump: " + d
	}
	if got := fmt.Sprintf("%016x", o.checksum); got != e.Checksum {
		return "the dump matches the golden dump but its checksum does not: the checksum covers state the dump does not show"
	}
	return ""
}

// firstDifference returns "" for equal dumps, else the first differing
// line of got with goldenContext lines either side, and the line it
// should have been.
func firstDifference(want, got []string) string {
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	if i == len(want) && i == len(got) {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "first difference at dump line %d\n", i+1)
	for j := max(0, i-goldenContext); j < min(len(got), i+goldenContext+1); j++ {
		mark := "  "
		if j == i {
			mark = "> "
		}
		fmt.Fprintf(&b, "%s%4d  %s\n", mark, j+1, got[j])
	}
	if i >= len(got) {
		fmt.Fprintf(&b, ">       (dump ends)\n")
	}
	if i < len(want) {
		fmt.Fprintf(&b, "  want  %s", want[i])
	} else {
		fmt.Fprintf(&b, "  want  (dump ends)")
	}
	return b.String()
}

// updateGolden runs one rep of each workload at goldenSeed on both
// horizons and rewrites the golden file with their dumps, keeping the
// entries of workloads not selected.
func updateGolden(path string, ws []workload) error {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil || g.Entries == nil {
		g = goldenFile{Entries: map[string]goldenEntry{}}
	}
	g.Seed = goldenSeed
	for _, w := range ws {
		for _, short := range []bool{false, true} {
			rp, err := runRep(w, goldenSeed, short, 1, false)
			if err != nil {
				return fmt.Errorf("%s: %w", goldenKey(w.name, short), err)
			}
			g.Entries[goldenKey(w.name, short)] = goldenEntry{
				Checksum: fmt.Sprintf("%016x", rp.o.checksum),
				Dump:     rp.o.dump,
			}
		}
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
