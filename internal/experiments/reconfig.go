package experiments

import (
	"fmt"
	"strings"

	"repro/internal/measure"
	"repro/internal/reconfig"
)

// LatencyRow summarizes one reconfiguration-latency distribution (µs).
type LatencyRow struct {
	N    uint64
	Mean float64
	P50  float64
	P95  float64
	Max  float64
}

func latencyRow(p *measure.Probe) LatencyRow {
	return LatencyRow{
		N:    p.Count,
		Mean: p.MeanMicros(),
		P50:  p.Percentile(50).Micros(),
		P95:  p.Percentile(95).Micros(),
		Max:  p.Max.Micros(),
	}
}

// ReconfigReport is the reconfiguration-pipeline sweep: the dual-core
// sharing workload run with the bitstream cache, PCAP request queue and
// prefetcher active, reporting hit ratio, queue pressure, and the cold
// (SD fetch + download) vs. warm (cached image) latency distributions.
type ReconfigReport struct {
	Guests, Cores int

	Cold  LatencyRow // cache miss: SD staging read + queue + PCAP
	Warm  LatencyRow // cache hit: queue + PCAP only
	QWait LatencyRow // time a ready request waited for the PCAP channel

	HitRatio  float64
	Cache     reconfig.CacheStats
	Queue     reconfig.QueueStats
	QueueMean float64
	Queued    uint64 // requests that waited instead of being rejected
	Prefetch  reconfig.PrefetchStats
	Transfers uint64
	Errors    uint64

	Summary string // the pipeline's one-line counter summary
}

// RunReconfigSweep drives the dual-core sharing scenario through the
// reconfiguration pipeline: several guests on core 0 churn through the
// shared QAM pool plus per-VM FFT stages (forcing reconfigurations and
// PCAP contention) while the manager runs on core 1. Warm-up probes are
// kept — the cold misses live there.
func RunReconfigSweep(cfg Config) ReconfigReport {
	c := cfg
	if c.Cores < 1 {
		c.Cores = 2
	}
	if c.Guests < 2 {
		c.Guests = 2
	}
	c.KeepWarmupProbes = true

	sys := BuildVirtSystem(c)
	defer sys.Kernel.Shutdown()
	k := sys.Kernel
	for _, ph := range []string{
		measure.PhaseReconfigCold, measure.PhaseReconfigWarm, measure.PhaseReconfigQWait,
	} {
		k.Probes.Get(ph).Keep = true
	}
	sys.RunToCompletion(safetyHorizon(c))

	pipe := k.Reconfig
	rep := ReconfigReport{
		Guests:    c.Guests,
		Cores:     c.Cores,
		Cold:      latencyRow(k.Probes.Get(measure.PhaseReconfigCold)),
		Warm:      latencyRow(k.Probes.Get(measure.PhaseReconfigWarm)),
		QWait:     latencyRow(k.Probes.Get(measure.PhaseReconfigQWait)),
		HitRatio:  pipe.HitRatio(),
		Cache:     pipe.Cache.Stats,
		Queue:     pipe.Queue.Stats,
		QueueMean: pipe.Queue.MeanDepth(),
		Queued:    pipe.Stats.Queued,
		Prefetch:  pipe.Prefetch.Stats,
		Transfers: pipe.Fabric.PCAP.Transfers,
		Errors:    pipe.Fabric.PCAP.Errors,
		Summary:   pipe.Summary(),
	}
	return rep
}

// String renders the sweep report.
func (r ReconfigReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Reconfiguration pipeline (%d guests, %d cores)\n", r.Guests, r.Cores)
	fmt.Fprintf(&b, "%-26s %8s %8s %8s %8s %6s\n", "", "mean", "p50", "p95", "max", "n")
	row := func(name string, l LatencyRow) {
		fmt.Fprintf(&b, "%-26s %8.1f %8.1f %8.1f %8.1f %6d\n", name, l.Mean, l.P50, l.P95, l.Max, l.N)
	}
	row("cold reconfig (us)", r.Cold)
	row("warm reconfig (us)", r.Warm)
	row("queue wait (us)", r.QWait)
	fmt.Fprintf(&b, "cache hit ratio %.2f (hits=%d misses=%d coalesced=%d evictions=%d)\n",
		r.HitRatio, r.Cache.Hits, r.Cache.Misses, r.Cache.Coalesced, r.Cache.Evictions)
	fmt.Fprintf(&b, "queue max depth %d, mean %.2f, queued starts %d (zero rejections)\n",
		r.Queue.MaxDepth, r.QueueMean, r.Queued)
	fmt.Fprintf(&b, "prefetch issued=%d hits=%d useless=%d | pcap transfers=%d errors=%d\n",
		r.Prefetch.Issued, r.Prefetch.Hits, r.Prefetch.Useless, r.Transfers, r.Errors)
	return b.String()
}

// ReconfigChecks are the qualitative acceptance properties of the
// pipeline sweep.
type ReconfigChecks struct {
	WarmBelowCold   bool // warm p50 measurably below cold p50
	CacheHitsFlow   bool // the cache produced hits and misses
	RequestsQueued  bool // concurrent reconfigurations queued, none rejected
	TransfersHappen bool // the PCAP actually downloaded bitstreams
}

// Check runs the assertions.
func (r ReconfigReport) Check() ReconfigChecks {
	return ReconfigChecks{
		WarmBelowCold:   r.Warm.N > 0 && r.Cold.N > 0 && r.Warm.P50 < r.Cold.P50/2,
		CacheHitsFlow:   r.Cache.Hits > 0 && r.Cache.Misses > 0,
		RequestsQueued:  r.Queued > 0,
		TransfersHappen: r.Transfers > 0,
	}
}

// AllHold reports whether every property holds.
func (c ReconfigChecks) AllHold() bool {
	return c.WarmBelowCold && c.CacheHitsFlow && c.RequestsQueued && c.TransfersHappen
}

// DefaultReconfigConfig is the sweep configuration used by
// cmd/experiments: six guests with a short request gap, so concurrent
// reconfiguration requests pile onto the single PCAP channel.
func DefaultReconfigConfig() Config {
	cfg := DefaultConfig()
	cfg.Guests = 6
	cfg.Cores = 2
	cfg.Iterations = 20
	cfg.Warmup = 2
	cfg.RequestGapTicks = 5
	return cfg
}
