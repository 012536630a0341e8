package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

// endToEndValues are a workload's end-to-end metrics over its timed reps.
func (r *result) endToEndValues() map[string]summary {
	return map[string]summary{
		"sim_ms_per_ref_s":      summarize(r.simMsPerRefS),
		"sim_ref_mips":          summarize(r.refMips),
		"ref_cpu_ms_per_sim_ms": summarize(r.refCPUPerSim),
		"setup_s":               summarize(r.setupS),
		"live_heap_mb":          summarize(r.heapMB),
	}
}

// perLayerValues are a workload's per-layer metrics: host time per
// layer from the traced round, the cost of profiling, allocation during
// the timed reps, and the simulated counts every rep repeats.
func (r *result) perLayerValues() map[string]float64 {
	v := map[string]float64{}
	// Samples of a layer the table does not list count as other.
	counts := map[string]int64{}
	var total int64
	for l, n := range r.layers {
		if !slices.Contains(hostLayers, l) {
			l = "other"
		}
		counts[l] += n
		total += n
	}
	for _, l := range hostLayers {
		v[l+hostLayerSuffix] = 0
		if total > 0 && r.profSimMs > 0 {
			share := float64(counts[l]) / float64(total)
			v[l+hostLayerSuffix] = share * float64(r.profCPU.Microseconds()) / r.profSimMs
		}
	}
	v["bench.host_sim_ms_per_s"] = median(r.hostSimMsPerS)
	v["bench.host_mips"] = median(r.hostMips)
	v["bench.host_cpu_ms_per_sim_ms"] = median(r.hostCPUPerSim)
	v["bench.speed_kernel_ms"] = median(r.kernelMs)
	v["bench.profile_overhead"] = 0
	if r.profSimMs > 0 {
		v["bench.profile_overhead"] = median(r.simMsPerRefS) / (r.profSimMs / r.profRefS)
	}
	v["bench.profile_samples"] = float64(total)
	v["gc.alloc_kb_per_sim_ms"] = median(r.allocKB)
	v["gc.cycles"] = median(r.gcCycles)
	for _, m := range simMetrics {
		v[m.name] = 0
		if r.refs[0] != nil {
			v[m.name] = r.refs[0].counts[m.name]
		}
	}
	return v
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the result line, the last line of standard output.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints a table of every metric measured, then the result line:
// the end-to-end metrics, or with tracing the per-layer ones. With
// several workloads each metric name is prefixed by "<workload>/".
func report(w io.Writer, res []*result, trace bool) {
	line := jsonResult{Metrics: map[string]jsonMetric{}}
	for _, r := range res {
		fmt.Fprintf(w, "== %s: checksum %016x, %d checks, %d failed\n", r.w.name, refChecksum(r), r.attempted, r.failed)
		e2e := r.endToEndValues()
		for _, m := range endToEnd {
			s := e2e[m.name]
			fmt.Fprintf(w, "  %-34s %14.6g %-10s [q1 %.6g, q3 %.6g, n=%d%s]\n",
				m.name, s.Median, m.unit, s.Q1, s.Q3, s.N, tailNote(s))
		}
		var layer map[string]float64
		if trace {
			layer = r.perLayerValues()
			for _, m := range perLayer() {
				fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.name, layer[m.name], m.unit)
			}
		}
		line.Attempted += r.attempted
		line.Failed += r.failed
		prefix := ""
		if len(res) > 1 {
			prefix = r.w.name + "/"
		}
		if trace {
			for _, m := range perLayer() {
				line.Metrics[prefix+m.name] = jsonMetric{layer[m.name], m.unit}
			}
		} else {
			for _, m := range endToEnd {
				line.Metrics[prefix+m.name] = jsonMetric{e2e[m.name].Median, m.unit}
			}
		}
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite numbers and strings only: cannot fail
	}
	fmt.Fprintln(w, string(b))
}

func refChecksum(r *result) uint64 {
	if r.refs[0] == nil {
		return 0
	}
	return r.refs[0].checksum
}

func tailNote(s summary) string {
	if s.Tail == 0 {
		return ""
	}
	return fmt.Sprintf(", p%g %.6g", s.Tail, s.TailValue)
}

// writeOut writes result.json (every metric of every workload, with the
// per-rep samples behind the end-to-end medians) and each workload's
// first profiled run as <workload>.pprof.
func writeOut(dir string, res []*result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type workloadOut struct {
		Workload  string             `json:"workload"`
		Why       string             `json:"why"`
		Checksum  string             `json:"checksum"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Problems  []string           `json:"problems,omitempty"`
		EndToEnd  map[string]summary `json:"end_to_end"`
		PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	}
	doc := struct {
		GoVersion  string        `json:"go_version"`
		NumCPU     int           `json:"num_cpu"`
		GOMAXPROCS int           `json:"gomaxprocs"`
		Workloads  []workloadOut `json:"workloads"`
	}{runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), nil}
	for _, r := range res {
		wo := workloadOut{
			Workload: r.w.name, Why: r.w.why, Checksum: fmt.Sprintf("%016x", refChecksum(r)),
			Attempted: r.attempted, Failed: r.failed, Problems: r.problems,
			EndToEnd: r.endToEndValues(),
		}
		if r.firstProfile != nil {
			wo.PerLayer = r.perLayerValues()
			if err := os.WriteFile(filepath.Join(dir, r.w.name+".pprof"), r.firstProfile, 0o644); err != nil {
				return err
			}
		}
		doc.Workloads = append(doc.Workloads, wo)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(b, '\n'), 0o644)
}
