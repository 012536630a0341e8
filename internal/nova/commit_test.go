package nova_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/nova"
	"repro/internal/simclock"
)

// TestSingleCoreDefersNothing: a single-core kernel applies every effect
// where it is issued. Over 300 simulated ms of the Table III system —
// four guests churning hardware tasks, reclaims among them — its
// committer replays nothing, while the same system on two cores, with
// the manager on its own core, replays cross-core effects.
func TestSingleCoreDefersNothing(t *testing.T) {
	for _, cores := range []int{1, 2} {
		cfg := experiments.DefaultConfig()
		cfg.Cores = cores
		sys := experiments.BuildVirtSystem(cfg)
		sys.Kernel.RunFor(simclock.FromMillis(300))
		commits, reclaims := nova.Commits(sys.Kernel), sys.Manager.Stats.Reclaims
		sys.Kernel.Shutdown()
		t.Logf("%d cores: %d commits, %d reclaims", cores, commits, reclaims)
		if reclaims == 0 {
			t.Fatalf("%d cores: no reclaim in 300 ms; the run exercises too little", cores)
		}
		if got := commits > 0; got != (cores > 1) {
			t.Errorf("%d cores: committer replayed %d deferred effects", cores, commits)
		}
	}
}
