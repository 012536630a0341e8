package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestBenchmarkFileMatchesMetricTable(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the bench %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %+v, bench has %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the bench %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		f := b.EndToEnd[i]
		if f.Name != m.name || f.Unit != m.unit || f.Better != m.better || f.Bound != m.bound {
			t.Errorf("end-to-end %d: file has %+v, bench has %+v", i, f, m)
		}
	}
	layer := perLayer()
	if len(b.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the bench %d", len(b.PerLayer), len(layer))
	}
	for i, m := range layer {
		f := b.PerLayer[i]
		if f.Name != m.name || f.Unit != m.unit || f.Better != m.better {
			t.Errorf("per-layer %d: file has %+v, bench has %+v", i, f, m)
		}
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer()...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q is not a valid name", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q is not a valid unit", m.name, m.unit)
		}
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("metric %s: better = %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %s listed twice", m.name)
		}
		seen[m.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is not a valid, unique name", w.name)
		}
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
		seen[w.name] = true
	}
}

// TestEveryInternalPackageIsALayer keeps the layer table complete: a
// package missing from it would have its samples folded into other.
func TestEveryInternalPackageIsALayer(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{"nova": true, "detlint": true}
	for _, l := range hostLayers {
		known[l] = true
	}
	for _, e := range entries {
		if e.IsDir() && !known[e.Name()] {
			t.Errorf("internal/%s has no host layer", e.Name())
		}
	}
}

func lastLine(t *testing.T, out string) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, lines[len(lines)-1])
	}
	return r
}

// TestShortRunsAreCorrectAndComplete runs every workload at the short
// horizons, traced, at seeds 1 and 2. No check may fail: the simulated
// state and every deterministic metric agree across the timed reps and
// with the shards=2 warm-up, and seed 1 matches the short golden
// entries. Each report carries every metric of BENCHMARK.json with its
// unit.
func TestShortRunsAreCorrectAndComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkFile(t)
	for _, seed := range []uint32{1, 2} {
		res := runBench(workloads, config{seed: seed, short: true, trace: true})
		for _, r := range res {
			for _, p := range r.problems {
				t.Errorf("seed %d %s: %s", seed, r.w.name, p)
			}
		}
		for _, r := range res {
			for _, trace := range []bool{false, true} {
				var out strings.Builder
				report(&out, []*result{r}, trace)
				line := lastLine(t, out.String())
				if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
					t.Errorf("seed %d %s: result line says correct=%v attempted=%d failed=%d",
						seed, r.w.name, line.Correct, line.Attempted, line.Failed)
				}
				want := map[string]string{}
				if trace {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("seed %d %s trace=%v: %d metrics, want %d", seed, r.w.name, trace, len(line.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := line.Metrics[name]
					if !ok || got.Unit != unit {
						t.Errorf("seed %d %s trace=%v: metric %s = %+v, want unit %s", seed, r.w.name, trace, name, got, unit)
					}
				}
				if !trace {
					for _, m := range endToEnd {
						if line.Metrics[m.name].Value <= 0 {
							t.Errorf("seed %d %s: end-to-end %s = %v, want > 0", seed, r.w.name, m.name, line.Metrics[m.name].Value)
						}
					}
				}
			}
		}
	}
}

func TestGoldenMismatchQuotesFirstDifferingLine(t *testing.T) {
	want := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	got := []string{"a", "b", "c", "d", "E", "f", "g", "h"}
	d := firstDifference(want, got)
	for _, s := range []string{"dump line 5", ">    5  E", "     2  b", "     8  h", "want  e"} {
		if !strings.Contains(d, s) {
			t.Errorf("report lacks %q:\n%s", s, d)
		}
	}
	if strings.Contains(d, "   1  a") {
		t.Errorf("report quotes more than 3 lines of context:\n%s", d)
	}
	if firstDifference(want, want) != "" {
		t.Error("equal dumps reported as different")
	}
	if d := firstDifference(want, want[:6]); !strings.Contains(d, "dump line 7") || !strings.Contains(d, "(dump ends)") {
		t.Errorf("short dump report:\n%s", d)
	}
}

func TestGoldenCoversEveryWorkload(t *testing.T) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	if g.Seed != goldenSeed {
		t.Errorf("golden seed %d, want %d", g.Seed, goldenSeed)
	}
	for _, w := range workloads {
		for _, short := range []bool{false, true} {
			e, ok := g.Entries[goldenKey(w.name, short)]
			if !ok {
				t.Errorf("no golden entry for %s", goldenKey(w.name, short))
				continue
			}
			if e.Checksum == "" || len(e.Dump) == 0 {
				t.Errorf("golden entry %s is empty", goldenKey(w.name, short))
			}
		}
	}
}
