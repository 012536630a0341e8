package scenario

import (
	"sync"
	"testing"
)

// The tentpole guarantee: running the whole suite twice — each run
// fanning the scenarios out across host goroutines — must produce
// byte-identical per-scenario state dumps and checksums. Any map-order
// leak, host-time dependence, or cross-scenario sharing anywhere in the
// simulated stack shows up here as a diff.
func TestSuiteDeterminism(t *testing.T) {
	specs := Suite(true)
	if len(specs) < 8 {
		t.Fatalf("suite has %d scenarios, want >= 8", len(specs))
	}
	first := RunSuite(specs)
	second := RunSuite(specs)
	for i, a := range first {
		b := second[i]
		if a.Name != b.Name {
			t.Fatalf("result order diverged: %s vs %s", a.Name, b.Name)
		}
		if a.Detail != b.Detail {
			t.Errorf("%s: state dump diverged across identical runs\n%s", a.Name, diffDetail(a.Detail, b.Detail))
			continue
		}
		if a.Checksum != b.Checksum {
			t.Errorf("%s: checksum diverged with identical state dumps: %016x vs %016x", a.Name, a.Checksum, b.Checksum)
		}
	}
}

// Parallel fan-out must not change any scenario's timeline: the suite run
// concurrently has to match the same specs run one at a time.
func TestParallelMatchesSequential(t *testing.T) {
	specs := Suite(true)[:3]
	parallel := RunSuite(specs)
	for i, spec := range specs {
		seq := Build(spec).Run()
		if seq.Checksum != parallel[i].Checksum {
			t.Errorf("%s: sequential checksum %016x != parallel %016x",
				spec.Name, seq.Checksum, parallel[i].Checksum)
		}
	}
}

// The parallel engine's contract: every suite scenario run through
// RunParallel — whatever the shard count — produces the byte-identical
// state dump and checksum the sequential loop produces. Any cross-core
// effect that escapes the epoch barrier, any host-order-dependent merge,
// any clock read off the wrong core diverges here.
func TestParallelInSystemMatchesSequential(t *testing.T) {
	specs := Suite(true)
	shardCounts := []int{1, 2, 4}
	type run struct {
		spec   Spec
		shards int // 0 = sequential reference
		res    Result
	}
	var runs []run
	for _, spec := range specs {
		runs = append(runs, run{spec: spec})
		for _, sh := range shardCounts {
			s := spec
			s.Shards = sh
			runs = append(runs, run{spec: s, shards: sh})
		}
	}
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i].res = Build(runs[i].spec).Run()
		}(i)
	}
	wg.Wait()
	for i := 0; i < len(runs); i += 1 + len(shardCounts) {
		ref := runs[i].res
		for j := 1; j <= len(shardCounts); j++ {
			got := runs[i+j].res
			if got.Detail != ref.Detail {
				t.Errorf("%s: shards=%d state dump diverged from sequential\n%s",
					ref.Name, runs[i+j].shards, diffDetail(ref.Detail, got.Detail))
				continue
			}
			if got.Checksum != ref.Checksum {
				t.Errorf("%s: shards=%d checksum %016x != sequential %016x with identical state dumps",
					ref.Name, runs[i+j].shards, got.Checksum, ref.Checksum)
			}
		}
	}
}

// The storm scenario must actually hit the re-raise-before-EOI window:
// without the vGIC's pending-again latch those interrupts were silently
// dropped.
func TestIRQStormExercisesRelatch(t *testing.T) {
	spec, ok := FindSpec("irq-storm", true)
	if !ok {
		t.Fatal("irq-storm spec missing")
	}
	r := Build(spec).Run()
	if r.StormHandled == 0 {
		t.Fatal("storm scenario delivered no device interrupts")
	}
	if r.Relatched == 0 {
		t.Fatal("storm scenario produced no in-service re-raises — the lost-vIRQ window went unexercised")
	}
	// Every latched re-raise is redelivered, so deliveries must exceed
	// what distinct pending-bit deliveries alone could produce: handled
	// counts, injections and relatches must be consistent.
	if r.Injected == 0 || r.Injected < r.Relatched {
		t.Fatalf("inconsistent storm accounting: injected=%d relatched=%d", r.Injected, r.Relatched)
	}
}

// The idle-wakeup scenario parks every VM in paravirtualized idle and
// wakes them only by device pulses.
func TestIdleWakeup(t *testing.T) {
	spec, ok := FindSpec("idle-wakeup", true)
	if !ok {
		t.Fatal("idle-wakeup spec missing")
	}
	r := Build(spec).Run()
	if r.StormHandled == 0 {
		t.Fatal("no device pulses delivered to idle VMs")
	}
	if r.Switches == 0 {
		t.Fatal("idle VMs never woke (no world switches)")
	}
}

// The prefetch-friendly scenario's periodic image cycle must drive the
// predictor to real speculative hits. Needs the full-length run — in
// short mode the horizon ends before the history is learned.
func TestPrefetchFriendlyHits(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the full-length scenario horizon")
	}
	spec, ok := FindSpec("prefetch-friendly", false)
	if !ok {
		t.Fatal("prefetch-friendly spec missing")
	}
	r := Build(spec).Run()
	if r.Reconfigs == 0 {
		t.Fatal("no reconfigurations completed")
	}
	if r.PrefetchHits == 0 {
		t.Fatal("prefetcher scored no hits on a periodic transition pattern")
	}
}

// Churn scenarios must flow real hardware-task traffic through the
// manager and the reconfiguration pipeline.
func TestChurnFlowsTraffic(t *testing.T) {
	for _, name := range []string{"reconfig-thrash", "oversubscribed-8vm", "cache-starved"} {
		spec, ok := FindSpec(name, true)
		if !ok {
			t.Fatalf("%s spec missing", name)
		}
		r := Build(spec).Run()
		if r.Requests == 0 {
			t.Errorf("%s: no hardware-task runs completed", name)
		}
		if r.Reconfigs == 0 {
			t.Errorf("%s: no reconfigurations completed", name)
		}
	}
}

func TestFindSpec(t *testing.T) {
	if _, ok := FindSpec("no-such-scenario", true); ok {
		t.Error("found a scenario that does not exist")
	}
	for _, s := range Suite(false) {
		if s.RunMs <= 0 {
			t.Errorf("%s: zero runtime budget", s.Name)
		}
		if len(s.VMs) == 0 {
			t.Errorf("%s: no VMs", s.Name)
		}
		got, ok := FindSpec(s.Name, false)
		if !ok || got.Name != s.Name {
			t.Errorf("FindSpec(%q) failed", s.Name)
		}
	}
}
