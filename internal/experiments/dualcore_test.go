package experiments

import (
	"strings"
	"testing"
)

func TestDualCoreOffload(t *testing.T) {
	cfg := testConfig(2, 8)
	if testing.Short() {
		cfg.Iterations = 5
	}
	d := RunDualCore(cfg)
	t.Logf("\n%s", d.String())
	// The rows are pinned: entry, exit and execution (us), samples, world
	// switches and reschedule SGIs at 1 and 2 cores.
	type pin struct {
		entry, exit, exec           float64
		samples, switches, sgisSent uint64
	}
	want := [2]pin{
		{0.4070707070707071, 0.3393939393939394, 15.997373737373737, 15, 66, 0},
		{0.25343434343434346, 0, 18.17080808080808, 15, 55, 34},
	}
	if testing.Short() {
		want = [2]pin{
			{0.41010101010101013, 0.33636363636363636, 15.644612794612796, 9, 48, 0},
			{0.2584175084175084, 0, 16.573905723905725, 9, 43, 25},
		}
	}
	for i, r := range []DualCoreReport{d.Single, d.Dual} {
		got := pin{r.Entry, r.Exit, r.Exec, r.Samples, r.VMSwitches, r.SGIsSent}
		if got != want[i] {
			t.Errorf("%d-core row drifted from the pinned values:\n  got  %+v\n  want %+v", i+1, got, want[i])
		}
	}
	checks := d.Check()
	if !checks.AllHold() {
		t.Errorf("dual-core checks failed: %+v", checks)
	}
	if len(d.Dual.PerCore) != 2 {
		t.Fatalf("dual row reports %d cores, want 2", len(d.Dual.PerCore))
	}
	// The guests' core carries the load; the service core only runs
	// request handling.
	if d.Dual.PerCore[0].Utilization < 0.5 {
		t.Errorf("guest core utilization = %.2f, want loaded", d.Dual.PerCore[0].Utilization)
	}
	s := d.String()
	for _, want := range []string{"HW Manager entry", "Reschedule SGIs", "per-core utilization"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestDualCoreSystemCompletes(t *testing.T) {
	// The partitioned dual-core stack must finish the same workload the
	// single-core stack does (all T_hw iterations served cross-core).
	cfg := testConfig(2, 5)
	cfg.Cores = 2
	sys := BuildVirtSystem(cfg)
	defer sys.Kernel.Shutdown()
	sys.RunToCompletion(safetyHorizon(cfg))
	if !sys.AllDone() {
		t.Fatal("dual-core system did not complete its hardware-task iterations")
	}
	k := sys.Kernel
	if k.PDs[0].Core.ID != 1 {
		t.Errorf("service homed on core %d, want 1", k.PDs[0].Core.ID)
	}
	for _, pd := range k.PDs[1:] {
		if pd.Core.ID != 0 {
			t.Errorf("guest %s homed on core %d, want 0", pd.Name(), pd.Core.ID)
		}
	}
	if k.GIC.Stats().SGIsSent == 0 {
		t.Error("no cross-core SGIs in a partitioned run")
	}
}
