package experiments

import (
	"strings"
	"testing"

	"repro/internal/measure"
)

// TestReconfigSweep drives the dual-core sharing workload through the
// reconfiguration pipeline and asserts the acceptance properties: warm
// reconfigurations are measurably cheaper than cold ones, cache hits
// flow, and concurrent requests queue instead of being rejected.
func TestReconfigSweep(t *testing.T) {
	cfg := DefaultReconfigConfig()
	if testing.Short() {
		cfg.Iterations = 8
	}
	rep := RunReconfigSweep(cfg)
	t.Logf("\n%s", rep)
	checks := rep.Check()
	if !checks.AllHold() {
		t.Errorf("reconfig checks failed: %+v", checks)
	}
	if rep.Errors != 0 {
		t.Errorf("PCAP errors during sweep: %d", rep.Errors)
	}
	if !strings.Contains(rep.Summary, "cache hits=") {
		t.Errorf("summary line missing cache counters: %q", rep.Summary)
	}
}

// TestReconfigSweepTightCache forces eviction pressure (the cache holds
// only a slice of the working set) so the LRU and the history-based
// prefetcher both do real work.
func TestReconfigSweepTightCache(t *testing.T) {
	cfg := DefaultReconfigConfig()
	cfg.CacheBytes = 384 << 10
	if testing.Short() {
		cfg.Iterations = 8
	}
	rep := RunReconfigSweep(cfg)
	t.Logf("\n%s", rep)
	checks := rep.Check()
	if !checks.WarmBelowCold || !checks.TransfersHappen {
		t.Errorf("tight-cache checks failed: %+v", checks)
	}
	if rep.Cache.Evictions == 0 {
		t.Error("tight cache produced no evictions")
	}
	if rep.Prefetch.Issued == 0 {
		t.Error("prefetcher never issued a speculative fill under eviction pressure")
	}
}

// TestReconfigCountersPublished verifies a run leaves the pipeline
// statistics the sweep report reads: cache traffic and PCAP transfers.
func TestReconfigCountersPublished(t *testing.T) {
	cfg := DefaultReconfigConfig()
	cfg.Guests = 2
	cfg.Iterations = 6
	sys := BuildVirtSystem(cfg)
	defer sys.Kernel.Shutdown()
	sys.RunToCompletion(safetyHorizon(cfg))
	pipe := sys.Kernel.Reconfig
	if cs := pipe.Cache.Stats; cs.Hits+cs.Misses == 0 {
		t.Error("no bitstream cache lookups recorded")
	}
	if pipe.Fabric.PCAP.Transfers == 0 {
		t.Error("no PCAP transfers recorded")
	}
	// The latency probes themselves live in the same set.
	if sys.Kernel.Probes.Get(measure.PhaseReconfigWarm).Count == 0 &&
		sys.Kernel.Probes.Get(measure.PhaseReconfigCold).Count == 0 {
		t.Error("no reconfiguration latency samples recorded")
	}
}
