package experiments

import (
	"fmt"
	"strings"

	"repro/internal/nova"
)

// CoreStat is one core's share of a dual-core run.
type CoreStat struct {
	ID          int
	Utilization float64 // fraction of simulated time executing PDs
	L1DMissRate float64
	TLBMissRate float64
}

// DualCoreReport holds one deployment's steady-state measurements: the
// Table III phase averages plus the topology-level counters that change
// when the Hardware Task Manager service moves to its own core.
type DualCoreReport struct {
	Row
	VMSwitches uint64 // world switches across all cores
	SGIsSent   uint64 // cross-core reschedule IPIs
	PerCore    []CoreStat
}

// RunDualCoreRow measures the fixed workload of Fig. 8 on the given core
// count: guests (plus T_hw) request hardware tasks while the manager
// service runs — sharing CPU0 in the single-core deployment, pinned on
// CPU1 in the dual-core one.
func RunDualCoreRow(cfg Config, cores int) DualCoreReport {
	c := cfg
	c.Cores = cores
	var rep DualCoreReport
	rep.Row = runVirtRow(c, fmt.Sprintf("%d-core", cores), func(k *nova.Kernel) {
		rep.SGIsSent = k.GIC.Stats().SGIsSent
		now := k.Clock.Now()
		for _, pd := range k.PDs {
			rep.VMSwitches += pd.Switches
		}
		for _, core := range k.Cores {
			rep.PerCore = append(rep.PerCore, CoreStat{
				ID:          core.ID,
				Utilization: core.Utilization(now),
				L1DMissRate: core.CPU.Caches.L1D.Stats().MissRate(),
				TLBMissRate: core.CPU.TLB.Stats().MissRate(),
			})
		}
	})
	return rep
}

// DualCore is the offload comparison: the same guest workload measured on
// the paper's CPU0-only deployment and on the dual-core Zynq with the
// Hardware Task Manager partitioned onto core 1.
type DualCore struct {
	Single DualCoreReport
	Dual   DualCoreReport
	Config Config
}

// RunDualCore produces both rows.
func RunDualCore(cfg Config) DualCore {
	return DualCore{
		Single: RunDualCoreRow(cfg, 1),
		Dual:   RunDualCoreRow(cfg, 2),
		Config: cfg,
	}
}

// String renders the comparison.
func (d DualCore) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dual-core offload: HW Task Manager on its own core (%d guests)\n", d.Config.Guests)
	fmt.Fprintf(&b, "%-26s %12s %12s\n", "", d.Single.Label, d.Dual.Label)
	row := func(name string, f func(DualCoreReport) string) {
		fmt.Fprintf(&b, "%-26s %12s %12s\n", name, f(d.Single), f(d.Dual))
	}
	us := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	row("HW Manager entry (us)", func(r DualCoreReport) string { return us(r.Entry) })
	row("HW Manager exit (us)", func(r DualCoreReport) string { return us(r.Exit) })
	row("HW Manager execution (us)", func(r DualCoreReport) string { return us(r.Exec) })
	row("Total overhead (us)", func(r DualCoreReport) string { return us(r.Total()) })
	row("VM switches", func(r DualCoreReport) string { return fmt.Sprintf("%d", r.VMSwitches) })
	row("Reschedule SGIs", func(r DualCoreReport) string { return fmt.Sprintf("%d", r.SGIsSent) })
	row("Samples", func(r DualCoreReport) string { return fmt.Sprintf("%d", r.Samples) })
	for _, rep := range []DualCoreReport{d.Single, d.Dual} {
		fmt.Fprintf(&b, "per-core utilization (%s): ", rep.Label)
		for _, cs := range rep.PerCore {
			fmt.Fprintf(&b, "cpu%d %.1f%%  ", cs.ID, cs.Utilization*100)
		}
		b.WriteString("\n")
	}
	for _, rep := range []DualCoreReport{d.Single, d.Dual} {
		if rep.ReconfigSummary != "" {
			fmt.Fprintf(&b, "%s: %s\n", rep.Label, rep.ReconfigSummary)
		}
	}
	return b.String()
}

// Check verifies the qualitative claims of the dual-core deployment:
// pinning the service on its own core removes the request path's world
// switches from the guests' core, so the manager entry shrinks and the
// switch count collapses, while the service core stays lightly loaded
// (it only runs request handling).
type DualCoreChecks struct {
	EntryShrinks    bool // dual entry < single entry
	FewerSwitches   bool // dual world switches < single
	SGIsFlow        bool // the dual-core run used IPIs
	ServiceCoreIdle bool // service core utilization < guest core's
	SamplesMatch    bool // both rows measured work
}

// Check runs the assertions.
func (d DualCore) Check() DualCoreChecks {
	guestU, svcU := 0.0, 0.0
	if len(d.Dual.PerCore) == 2 {
		guestU, svcU = d.Dual.PerCore[0].Utilization, d.Dual.PerCore[1].Utilization
	}
	return DualCoreChecks{
		EntryShrinks:    d.Dual.Entry < d.Single.Entry,
		FewerSwitches:   d.Dual.VMSwitches < d.Single.VMSwitches,
		SGIsFlow:        d.Dual.SGIsSent > 0 && d.Single.SGIsSent == 0,
		ServiceCoreIdle: svcU < guestU,
		SamplesMatch:    d.Single.Samples > 0 && d.Dual.Samples > 0,
	}
}

// AllHold reports whether every dual-core property holds.
func (c DualCoreChecks) AllHold() bool {
	return c.EntryShrinks && c.FewerSwitches && c.SGIsFlow && c.ServiceCoreIdle && c.SamplesMatch
}
