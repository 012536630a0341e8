package measure

import (
	"math"
	"slices"
	"strings"
	"sync"
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

// Get resolves each phase to its own probe, the same one every time, and
// panics on a name that is not a phase.
func TestSetGetAddAndNames(t *testing.T) {
	s := NewSet()
	s.Get(PhaseMgrExit).Add(100)
	s.Get(PhaseMgrEntry).Add(50)
	s.Get(PhaseMgrExit).Add(200)
	if got := s.Get(PhaseMgrExit).Count; got != 2 {
		t.Errorf("%s count = %d, want 2", PhaseMgrExit, got)
	}
	seen := map[*Probe]string{}
	for _, ph := range Phases {
		p := s.Get(ph)
		if p != s.Get(ph) {
			t.Errorf("Get(%s) not stable", ph)
		}
		if other, dup := seen[p]; dup {
			t.Errorf("%s and %s share a probe", other, ph)
		}
		seen[p] = ph
	}
	defer func() {
		if recover() == nil {
			t.Error("Get of an unknown phase did not panic")
		}
	}()
	s.Get("no_such_phase")
}

func TestSetResetKeepsNamesAndRetention(t *testing.T) {
	s := NewSet()
	p := s.Get(PhaseReconfigCold)
	p.Keep = true
	p.Add(10)
	s.Reset()
	if s.Get(PhaseReconfigCold) != p {
		t.Fatal("reset replaced the probe; a handle from Get went stale")
	}
	if p.Count != 0 {
		t.Errorf("count after reset = %d, want 0", p.Count)
	}
	if !p.Keep {
		t.Error("reset dropped the retention flag")
	}
	if out := s.String(); out != "" {
		t.Errorf("reset set still reports samples:\n%s", out)
	}
	p.Add(30)
	if got := p.Percentile(50); got != 30 {
		t.Errorf("post-reset percentile = %d, want 30", got)
	}
	if out := s.String(); !strings.HasPrefix(out, PhaseReconfigCold) {
		t.Errorf("post-reset summary does not list %s:\n%s", PhaseReconfigCold, out)
	}
}

// String lists only the phases with samples.
func TestSetString(t *testing.T) {
	s := NewSet()
	s.Get(PhaseVMSwitch).Add(660) // 1 µs
	out := s.String()
	if !strings.Contains(out, PhaseVMSwitch) || !strings.Contains(out, "n=1") {
		t.Errorf("summary missing fields:\n%s", out)
	}
	if !strings.Contains(out, "1.000us") {
		t.Errorf("summary missing converted mean:\n%s", out)
	}
	if strings.Count(out, "\n") != 1 {
		t.Errorf("summary lists phases without samples:\n%s", out)
	}
}

// String renders in Phases order whatever order the samples came in:
// reports from two runs of the same workload have to diff cleanly.
func TestSetRenderingOrderStable(t *testing.T) {
	lineNames := func(order []string) []string {
		s := NewSet()
		for i, ph := range order {
			s.Get(ph).Add(simclock.Cycles(100 * (i + 1)))
		}
		var names []string
		for _, l := range strings.Split(s.String(), "\n") {
			if f := strings.Fields(l); len(f) > 0 {
				names = append(names, f[0])
			}
		}
		return names
	}
	want := []string{PhaseMgrEntry, PhaseVMSwitch, PhaseIPCCall, PhaseReconfigQWait}
	for _, order := range [][]string{
		{PhaseReconfigQWait, PhaseIPCCall, PhaseMgrEntry, PhaseVMSwitch},
		{PhaseVMSwitch, PhaseMgrEntry, PhaseReconfigQWait, PhaseIPCCall},
	} {
		if got := lineNames(order); !slices.Equal(got, want) {
			t.Errorf("recorded in order %v, rendered %v; want %v", order, got, want)
		}
	}
}

// Cores record concurrently, some through a resolved handle and some
// resolving the phase on every sample; every sample must land (run under
// -race for the data-race half).
func TestConcurrentAddThroughHandleAndName(t *testing.T) {
	s := NewSet()
	h := s.Get(PhaseVMSwitch)
	const workers, per = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				if w%2 == 0 {
					h.Add(simclock.Cycles(i))
				} else {
					s.Get(PhaseVMSwitch).Add(simclock.Cycles(i))
				}
			}
		}(w)
	}
	wg.Wait()
	if h.Count != workers*per || h.Total != workers*per*(per+1)/2 || h.Min != 1 || h.Max != per {
		t.Errorf("count %d total %d min %d max %d, want %d %d 1 %d",
			h.Count, h.Total, h.Min, h.Max, workers*per, workers*per*(per+1)/2, per)
	}
}
