package scenario

import "testing"

// faultSpecs are the suite scenarios that run under an active fault plan.
var faultSpecs = []string{"flaky-sd", "pcap-crc-storm", "prr-degraded", "noisy-neighbor"}

// The fault scenarios must actually inject faults AND recover from them:
// nonzero injections, nonzero tolerance work (retries / watchdog reaps /
// quarantines), and — the self-healing claim — real task runs still
// completing on top of the injected failures.
func TestFaultScenariosInjectAndRecover(t *testing.T) {
	for _, name := range faultSpecs {
		spec, ok := FindSpec(name, true)
		if !ok {
			t.Fatalf("%s spec missing", name)
		}
		r := Build(spec).Run()
		t.Logf("%s: injected=%d retries=%d quarantines=%d faultedReqs=%d requests=%d reconfigs=%d throttled=%d trips=%d",
			name, r.FaultsInjected, r.Retries, r.Quarantines, r.FaultedReqs,
			r.Requests, r.Reconfigs, r.Throttled, r.BreakerTrips)
		if r.FaultsInjected == 0 {
			t.Errorf("%s: fault plan injected nothing", name)
		}
		if r.Requests == 0 {
			t.Errorf("%s: no hardware-task runs completed under faults — no recovery", name)
		}
		if r.Reconfigs == 0 {
			t.Errorf("%s: no reconfigurations completed under faults", name)
		}
		switch name {
		case "flaky-sd", "pcap-crc-storm":
			if r.Retries == 0 {
				t.Errorf("%s: faults injected but the pipeline never retried", name)
			}
		case "prr-degraded":
			if r.Quarantines == 0 {
				t.Errorf("%s: repeated PRR faults never quarantined a region", name)
			}
		case "noisy-neighbor":
			if r.Throttled == 0 {
				t.Errorf("%s: the greedy VM was never throttled", name)
			}
		}
	}
}

// Determinism under faults: every fault scenario must produce the
// byte-identical state dump run after run — the injector draws from the
// scenario seed only, so injected failures replay exactly. (Shard
// invariance for these specs is covered by the suite-wide
// TestParallelInSystemMatchesSequential; this test pins the fault specs
// explicitly so the CI fault job can target it alone.)
func TestFaultScenarioDeterminism(t *testing.T) {
	for _, name := range faultSpecs {
		spec, ok := FindSpec(name, true)
		if !ok {
			t.Fatalf("%s spec missing", name)
		}
		a := Build(spec).Run()
		b := Build(spec).Run()
		if a.Detail != b.Detail {
			t.Errorf("%s: state dump diverged across identical fault runs\n%s", name, diffDetail(a.Detail, b.Detail))
			continue
		}
		if a.Checksum != b.Checksum {
			t.Errorf("%s: checksum diverged with identical state dumps: %016x vs %016x", name, a.Checksum, b.Checksum)
		}
		if a.FaultsInjected != b.FaultsInjected {
			t.Errorf("%s: injected-fault count diverged: %d vs %d", name, a.FaultsInjected, b.FaultsInjected)
		}
		// And across the parallel engine: the fault sequence is part of
		// the simulated timeline, so shards must not move it.
		for _, shards := range []int{2, 4} {
			s := spec
			s.Shards = shards
			p := Build(s).Run()
			if p.Checksum != a.Checksum {
				t.Errorf("%s: shards=%d checksum %016x != sequential %016x",
					name, shards, p.Checksum, a.Checksum)
			}
		}
	}
}

// TestNoisyNeighborBounded is the interference probe: run the
// noisy-neighbor scenario, then the same spec with the greedy VM removed,
// and compare the critical VM's tail acquire latency. The guards must
// both visibly act on the greedy VM and keep the critical VM inside
// InterferenceBound; the critical VM itself must never be throttled
// (priority bypass).
func TestNoisyNeighborBounded(t *testing.T) {
	rep := RunInterference(true)
	t.Logf("\n%s", rep)
	if rep.Critical.AcqCount == 0 || rep.CriticalBase.AcqCount == 0 {
		t.Fatal("critical VM completed no acquires; the probe measured nothing")
	}
	if rep.Greedy.Throttled == 0 {
		t.Error("greedy VM was never throttled — the QoS guards did not act")
	}
	if rep.Critical.Throttled != 0 || rep.Critical.Retried != 0 {
		t.Errorf("critical VM hit the guards (throttled %d, retried %d) — the priority bypass failed",
			rep.Critical.Throttled, rep.Critical.Retried)
	}
	if rep.Ratio > InterferenceBound {
		t.Errorf("critical VM p99 acquire latency %.2fx its uncontended baseline, bound is %.1fx (contended %d, baseline %d cycles)",
			rep.Ratio, InterferenceBound, rep.Critical.AcqP99, rep.CriticalBase.AcqP99)
	}
	if !rep.Bounded() {
		t.Error("interference report does not self-certify (Bounded() false)")
	}
}
