package experiments

import (
	"testing"
)

// TestDiagnoseTable3 prints the internal statistics behind each Table III
// row so calibration work can see which mechanism moves the numbers.
func TestDiagnoseTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	cfg := testConfig(4, 10)
	cfg.RequestGapTicks = 31
	cfg.Warmup = 3
	for n := 1; n <= 4; n++ {
		c := cfg
		c.Guests = n
		sys := BuildVirtSystem(c)
		probes := sys.RunToCompletion(safetyHorizon(c))
		k := sys.Kernel
		st := sys.Manager.Stats
		e := probes.Get("mgr_entry")
		sw := probes.Get("vm_switch")
		t.Logf("   entry[min=%.2f max=%.2f] switch[min=%.2f max=%.2f]",
			e.Min.Micros(), e.Max.Micros(), sw.Min.Micros(), sw.Max.Micros())
		t.Logf("guests=%d dur=%.1fms reqs=%d mgr{hit=%d reconf=%d reclaim=%d busy=%d} L1I=%.3f L1D=%.3f L2=%.3f TLB=%.4f switches=%.2fus(n=%d) entry=%.2f exit=%.2f exec=%.2f irq=%.2f",
			n, k.Clock.Now().Millis(), sys.Requests(),
			st.Hits, st.Reconfigs, st.Reclaims, st.Busy,
			k.CPU.Caches.L1I.Stats().MissRate(),
			k.CPU.Caches.L1D.Stats().MissRate(),
			k.CPU.Caches.L2.Stats().MissRate(),
			k.CPU.TLB.Stats().MissRate(),
			probes.Get("vm_switch").MeanMicros(), probes.Get("vm_switch").Count,
			probes.Get("mgr_entry").MeanMicros(),
			probes.Get("mgr_exit").MeanMicros(),
			probes.Get("mgr_exec").MeanMicros(),
			probes.Get("plirq_entry").MeanMicros(),
		)
		k.Shutdown()
	}
}
