package fault

import "testing"

// drive pulls a fixed decision sequence out of an injector and returns
// the outcomes plus final stats — the replay unit the determinism tests
// compare.
func drive(in *Injector) ([]SDOutcome, []PCAPOutcome, []bool, Stats) {
	var sd []SDOutcome
	var pc []PCAPOutcome
	var prr []bool
	for i := 0; i < 400; i++ {
		key := uint32(i%7) * 0x1000
		sd = append(sd, in.SDFill(key))
		pc = append(pc, in.PCAPStart(key, i%4))
		prr = append(prr, in.PRRConfig(i%4))
	}
	return sd, pc, prr, in.Stats
}

func TestInjectorDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, SDErrorPermille: 80, SDStallPermille: 60,
		CorruptPermille: 50, PCAPCRCPermille: 90, PCAPStallPermille: 40, PRRFaultPermille: 70}
	sd1, pc1, prr1, st1 := drive(New(cfg))
	sd2, pc2, prr2, st2 := drive(New(cfg))
	if st1 != st2 {
		t.Fatalf("stats diverged: %+v vs %+v", st1, st2)
	}
	for i := range sd1 {
		if sd1[i] != sd2[i] || pc1[i] != pc2[i] || prr1[i] != prr2[i] {
			t.Fatalf("decision %d diverged between identical injectors", i)
		}
	}
	if st1.Total() == 0 {
		t.Fatal("plan with nonzero rates injected nothing over 400 draws")
	}
	// A different seed must produce a different decision stream.
	_, _, _, st3 := drive(New(Config{Seed: 43, SDErrorPermille: 80, SDStallPermille: 60,
		CorruptPermille: 50, PCAPCRCPermille: 90, PCAPStallPermille: 40, PRRFaultPermille: 70}))
	if st3 == st1 {
		t.Errorf("seeds 42 and 43 produced identical stats %+v — whitener suspect", st1)
	}
}

func TestInjectorRates(t *testing.T) {
	// 200‰ over 4000 draws should land within a loose band of 800.
	in := New(Config{Seed: 7, SDErrorPermille: 200})
	for i := 0; i < 4000; i++ {
		in.SDFill(uint32(i))
	}
	if in.Stats.SDErrors < 600 || in.Stats.SDErrors > 1000 {
		t.Errorf("200‰ over 4000 draws injected %d errors, want ~800", in.Stats.SDErrors)
	}
}

func TestNilInjector(t *testing.T) {
	if New(Config{Seed: 9}) != nil {
		t.Error("plan with all-zero rates must yield a nil injector")
	}
	var in *Injector
	if o := in.SDFill(1); o != (SDOutcome{}) {
		t.Errorf("nil injector SDFill = %+v", o)
	}
	if o := in.PCAPStart(1, 0); o != (PCAPOutcome{}) {
		t.Errorf("nil injector PCAPStart = %+v", o)
	}
	if in.PRRConfig(0) {
		t.Error("nil injector injected a PRR fault")
	}
}

func TestConfigDefaults(t *testing.T) {
	if got := New(Config{Seed: 1, SDErrorPermille: 1}).Config().SDStallFactor; got != 4 {
		t.Errorf("default SDStallFactor = %d, want 4", got)
	}
}
