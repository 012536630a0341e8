package fault

import (
	"testing"

	"repro/internal/simclock"
)

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
	in := New(Config{Seed: 1, SDErrorPermille: 1})
	cfg := in.Config()
	if cfg.MaxRetries != 3 || cfg.QuarantineAfter != 3 || cfg.SDStallFactor != 4 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func us(n int) simclock.Cycles { return simclock.Cycles(n) * simclock.CyclesPerMicrosecond }

func TestTokenBucket(t *testing.T) {
	b := &TokenBucket{Capacity: 2, RefillEvery: us(100)}
	if !b.Take(us(10)) || !b.Take(us(10)) {
		t.Fatal("fresh bucket must admit Capacity requests")
	}
	if b.Take(us(10)) {
		t.Fatal("empty bucket admitted a third request")
	}
	if b.Denials != 1 {
		t.Errorf("Denials = %d, want 1", b.Denials)
	}
	// One refill interval later exactly one token is back.
	if !b.Take(us(110)) {
		t.Fatal("bucket did not refill after RefillEvery")
	}
	if b.Take(us(115)) {
		t.Fatal("bucket over-refilled")
	}
	// A long idle stretch clamps at Capacity, not beyond.
	if got := b.Tokens(us(100_000)); got != 2 {
		t.Errorf("tokens after long idle = %d, want Capacity 2", got)
	}
	// Disabled bucket admits everything.
	var off TokenBucket
	for i := 0; i < 10; i++ {
		if !off.Take(us(i)) {
			t.Fatal("zero-capacity bucket must be disabled, not empty")
		}
	}
}

func TestBreaker(t *testing.T) {
	b := &Breaker{TripAt: 3, DecayEvery: us(1000), Cooldown: us(500)}
	if b.Charge(us(1), 1) || b.Charge(us(2), 1) {
		t.Fatal("breaker tripped below threshold")
	}
	if !b.Charge(us(3), 1) {
		t.Fatal("breaker failed to trip at threshold")
	}
	if !b.Open(us(100)) {
		t.Fatal("breaker not open during cooldown")
	}
	if b.Rejections != 1 || b.Trips != 1 {
		t.Errorf("trips=%d rejections=%d, want 1/1", b.Trips, b.Rejections)
	}
	if b.Open(us(3) + us(500)) {
		t.Fatal("breaker still open after cooldown")
	}
	// Score decays: two charges a long time apart never accumulate.
	b2 := &Breaker{TripAt: 2, DecayEvery: us(10), Cooldown: us(500)}
	if b2.Charge(us(0), 1) {
		t.Fatal("premature trip")
	}
	if b2.Charge(us(1000), 1) {
		t.Fatal("decayed score still tripped")
	}
	// Zero value never trips.
	var off Breaker
	if off.Charge(us(1), 100) || off.Open(us(1)) {
		t.Fatal("zero-value breaker must be disabled")
	}
}
