package experiments

import (
	"testing"

	"repro/internal/simclock"
)

// The Table III 4-VM row, pinned: entry, exit, exec, PL-IRQ entry and
// total (µs means over the steady-state samples), the sample count, and
// the clock at completion. The simulation derives everything from the
// cycle clock, never from host state, so these values are exact; any
// drift means a change altered the modelled system.
func TestGoldenTable3RowDeterminism(t *testing.T) {
	cfg := testConfig(4, 8)
	cfg.Warmup = 2
	sys := BuildVirtSystem(cfg)
	defer sys.Kernel.Shutdown()
	probes := sys.RunToCompletion(safetyHorizon(cfg))
	row := rowFrom("4 OS", probes)
	end := sys.Kernel.Clock.Now()

	want := Row{
		Label:    "4 OS",
		Entry:    0.4130616509926855,
		Exit:     0.34440961337513065,
		Exec:     17.856844305120166,
		IRQEntry: 0.3762360446570973,
		Samples:  29,
	}
	const wantTotal = 18.61431556948798
	const wantEnd = simclock.Cycles(871362266)
	if row != want {
		t.Errorf("Table III 4-VM row drifted from the pinned values:\n  got  %+v\n  want %+v", row, want)
	}
	if got := row.Total(); got != wantTotal {
		t.Errorf("Table III 4-VM total = %v us, pinned %v us", got, wantTotal)
	}
	if end != wantEnd {
		t.Errorf("completion clock = %d cycles, pinned %d", end, wantEnd)
	}
}
