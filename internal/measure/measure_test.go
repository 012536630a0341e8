package measure

import (
	"math"
	"strings"
	"testing"

	"repro/internal/simclock"
)

func TestProbeAggregates(t *testing.T) {
	var p Probe
	for _, d := range []simclock.Cycles{30, 10, 20} {
		p.Add(d)
	}
	if p.Count != 3 || p.Total != 60 {
		t.Errorf("count/total = %d/%d, want 3/60", p.Count, p.Total)
	}
	if p.Min != 10 || p.Max != 30 {
		t.Errorf("min/max = %d/%d, want 10/30", p.Min, p.Max)
	}
	if got := p.MeanCycles(); got != 20 {
		t.Errorf("MeanCycles = %v, want 20", got)
	}
}

func TestProbeCycleAccounting(t *testing.T) {
	// The canonical conversion is 660 cycles == 1 µs (660 MHz A9).
	var p Probe
	p.Add(simclock.Cycles(simclock.CyclesPerMicrosecond))
	p.Add(simclock.Cycles(3 * simclock.CyclesPerMicrosecond))
	if got := p.MeanMicros(); got < 1.999 || got > 2.001 {
		t.Errorf("MeanMicros = %v, want 2", got)
	}
}

func TestEmptyProbeMeansZero(t *testing.T) {
	var p Probe
	if p.MeanCycles() != 0 || p.MeanMicros() != 0 {
		t.Error("empty probe mean not zero")
	}
	if p.Percentile(50) != 0 {
		t.Error("empty probe percentile not zero")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	p := Probe{Keep: true}
	for d := simclock.Cycles(10); d <= 100; d += 10 {
		p.Add(d) // 10..100
	}
	cases := []struct {
		q    float64
		want simclock.Cycles
	}{
		{0, 10}, {10, 10}, {50, 50}, {90, 90}, {95, 100}, {100, 100},
	}
	for _, c := range cases {
		if got := p.Percentile(c.q); got != c.want {
			t.Errorf("P%.0f = %d, want %d", c.q, got, c.want)
		}
	}
}

// Boundary conditions of the nearest-rank definition: out-of-range and
// non-finite q values clamp instead of indexing out of bounds, and a
// single-sample probe answers that sample for every q.
func TestPercentileBoundaries(t *testing.T) {
	single := Probe{Keep: true}
	single.Add(42)
	pair := Probe{Keep: true}
	pair.Add(10)
	pair.Add(20)
	cases := []struct {
		name string
		p    *Probe
		q    float64
		want simclock.Cycles
	}{
		{"single q=0", &single, 0, 42},
		{"single q=50", &single, 50, 42},
		{"single q=100", &single, 100, 42},
		{"single q<0", &single, -5, 42},
		{"single q>100", &single, 250, 42},
		{"single NaN", &single, math.NaN(), 42},
		{"pair q=0", &pair, 0, 10},
		{"pair q=50", &pair, 50, 10},
		{"pair q=50.0001", &pair, 50.0001, 20},
		{"pair q=100", &pair, 100, 20},
		{"pair q<0", &pair, -1, 10},
		{"pair q>100", &pair, 101, 20},
		{"pair NaN", &pair, math.NaN(), 10},
	}
	for _, c := range cases {
		if got := c.p.Percentile(c.q); got != c.want {
			t.Errorf("%s: got %d, want %d", c.name, got, c.want)
		}
	}
}

func TestPercentileRequiresKeep(t *testing.T) {
	var p Probe // Keep off
	p.Add(42)
	if got := p.Percentile(50); got != 0 {
		t.Errorf("percentile without retention = %d, want 0", got)
	}
	if len(p.Samples()) != 0 {
		t.Error("samples retained without Keep")
	}
}

func TestSamplesCopy(t *testing.T) {
	p := Probe{Keep: true}
	p.Add(7)
	s := p.Samples()
	s[0] = 99
	if p.Percentile(100) != 7 {
		t.Error("Samples did not return a copy")
	}
}

func TestSetGetAddAndNames(t *testing.T) {
	s := NewSet()
	s.Add("b_phase", 100)
	s.Add("a_phase", 50)
	s.Add("b_phase", 200)
	if got := s.Get("b_phase").Count; got != 2 {
		t.Errorf("b_phase count = %d, want 2", got)
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a_phase" || names[1] != "b_phase" {
		t.Errorf("Names = %v, want sorted [a_phase b_phase]", names)
	}
	// Get must create on demand and hand back the same probe.
	if s.Get("new") != s.Get("new") {
		t.Error("Get not stable")
	}
}

func TestSetResetKeepsNamesAndRetention(t *testing.T) {
	s := NewSet()
	p := s.Get("phase")
	p.Keep = true
	p.Add(10)
	s.Reset()
	if got := s.Get("phase").Count; got != 0 {
		t.Errorf("count after reset = %d, want 0", got)
	}
	if !s.Get("phase").Keep {
		t.Error("reset dropped the retention flag")
	}
	s.Get("phase").Add(30)
	if got := s.Get("phase").Percentile(50); got != 30 {
		t.Errorf("post-reset percentile = %d, want 30", got)
	}
	if names := s.Names(); len(names) != 1 {
		t.Errorf("reset dropped probe names: %v", names)
	}
}

func TestSetString(t *testing.T) {
	s := NewSet()
	s.Add(PhaseVMSwitch, 660) // 1 µs
	out := s.String()
	if !strings.Contains(out, PhaseVMSwitch) || !strings.Contains(out, "n=1") {
		t.Errorf("summary missing fields:\n%s", out)
	}
	if !strings.Contains(out, "1.000us") {
		t.Errorf("summary missing converted mean:\n%s", out)
	}
}

// String must render in sorted-name order regardless of insertion order:
// reports from two runs of the same workload have to diff cleanly.
func TestSetRenderingOrderStable(t *testing.T) {
	build := func(order []string) string {
		s := NewSet()
		for i, n := range order {
			s.Add("probe_"+n, simclock.Cycles(100*(i+1)))
		}
		return s.String()
	}
	aStr := build([]string{"z", "m", "a"})
	bStr := build([]string{"a", "z", "m"})
	if aStr == "" {
		t.Fatal("empty rendering")
	}
	// Same contents, different insertion order: identical render apart
	// from the per-probe values, so compare only the line ordering.
	lineNames := func(out string) []string {
		var names []string
		for _, l := range strings.Split(out, "\n") {
			if f := strings.Fields(l); len(f) > 0 {
				names = append(names, f[0])
			}
		}
		return names
	}
	an, bn := lineNames(aStr), lineNames(bStr)
	if len(an) != len(bn) {
		t.Fatalf("renderings differ in size: %v vs %v", an, bn)
	}
	for i := range an {
		if an[i] != bn[i] {
			t.Fatalf("rendering order depends on insertion order: %v vs %v", an, bn)
		}
	}
	for i := 1; i < len(an); i++ {
		if an[i-1] > an[i] {
			t.Fatalf("names not sorted: %v", an)
		}
	}
}
