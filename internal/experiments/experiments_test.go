package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/hwtask"
)

// testConfig is small enough for CI but large enough to exercise every
// phase probe.
func testConfig(guests, iters int) Config {
	cfg := DefaultConfig()
	cfg.Guests = guests
	cfg.Iterations = iters
	cfg.Warmup = 3
	return cfg
}

func TestNativeBaselineProducesSamples(t *testing.T) {
	row := RunTable3Native(testConfig(1, 8))
	if row.Samples < 8 {
		t.Fatalf("native samples = %d, want >= 8", row.Samples)
	}
	if row.Exec <= 0 {
		t.Error("native exec time is zero")
	}
	if row.Entry != 0 || row.Exit != 0 {
		t.Errorf("native entry/exit = %.2f/%.2f, want 0 (direct dispatch)", row.Entry, row.Exit)
	}
}

func TestVirtRowProducesAllPhases(t *testing.T) {
	row := RunTable3Row(testConfig(1, 8), 1)
	if row.Samples < 8 {
		t.Fatalf("virt samples = %d, want >= 8", row.Samples)
	}
	for name, v := range map[string]float64{
		"entry": row.Entry, "exit": row.Exit, "irq": row.IRQEntry, "exec": row.Exec,
	} {
		if v <= 0 {
			t.Errorf("phase %s = %v, want > 0", name, v)
		}
	}
	if row.Total() <= row.Exec {
		t.Error("total should exceed exec under virtualization")
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		// Reduced-iteration short path: a 2-VM sweep that exercises the
		// whole Table III pipeline but asserts only the invariants that
		// are stable at low sample counts (the fine-grained growth
		// ordering needs the full run's iterations). Keeps CI fast; the
		// full sweep below runs without -short.
		cfg := testConfig(2, 5)
		cfg.Warmup = 2
		tab := RunTable3(cfg)
		t.Logf("\n%s", tab.String())
		checks := tab.Check()
		if !checks.VirtExecAboveNative || !checks.TotalWithinBound {
			t.Errorf("coarse shape checks failed: %+v", checks)
		}
		for _, r := range tab.Virt {
			if r.Samples == 0 {
				t.Errorf("row %s produced no samples", r.Label)
			}
		}
		return
	}
	cfg := testConfig(4, 10)
	tab := RunTable3(cfg)
	t.Logf("\n%s", tab.String())
	checks := tab.Check()
	if !checks.AllHold() {
		t.Errorf("shape checks failed: %+v", checks)
	}
	fig := Figure9(tab)
	t.Logf("\n%s", fig.String())
	if !fig.SlopeDecreasing() {
		t.Errorf("Fig 9 total-ratio slope not decreasing: %v", fig.Total)
	}
	// The Fig. 9 series, pinned like TestGoldenTable3RowDeterminism's row:
	// every ratio derives from cycle counts, so the values are exact and
	// any drift means a change altered the modelled system.
	want := Fig9{
		GuestCounts: []int{1, 2, 3, 4},
		Entry:       []float64{1, 0.997926236021474, 1.0101938673367243, 1.072705358419644},
		Exit:        []float64{1, 1.1356425859468458, 1.1126034756866403, 1.1575571514719587},
		IRQEntry:    []float64{1, 1.0243454294901242, 1.033332667611991, 1.1818098300413413},
		Exec:        []float64{1.2888466516196395, 1.3686895187179664, 1.4335208269297288, 1.4614665934198516},
		Total:       []float64{1.3465922234796146, 1.429711257712483, 1.4943803459712253, 1.5255029198746648},
	}
	if !reflect.DeepEqual(fig, want) {
		t.Errorf("Fig. 9 series drifted from the pinned values:\n  got  %#v\n  want %#v", fig, want)
	}
}

func TestTable3Rendering(t *testing.T) {
	tab := Table3{
		Native: Row{Label: "Native", Exec: 15.01},
		Virt: []Row{
			{Label: "1 OS", Entry: 0.87, Exit: 0.72, IRQEntry: 0.23, Exec: 15.46},
			{Label: "2 OS", Entry: 1.11, Exit: 0.91, IRQEntry: 0.46, Exec: 15.83},
		},
	}
	s := tab.String()
	for _, want := range []string{"HW Manager entry", "PL IRQ entry", "Total overhead", "15.01"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
	if got := tab.Virt[0].Total(); got < 17.0 || got > 17.1 {
		t.Errorf("1-OS total = %.2f, want 17.05 (paper row)", got)
	}
}

func TestFigure9PaperData(t *testing.T) {
	// Feed the paper's own Table III numbers through Figure9 and verify
	// the derivation reproduces the paper's plotted ratios.
	tab := Table3{
		Native: Row{Exec: 15.01},
		Virt: []Row{
			{Entry: 0.87, Exit: 0.72, IRQEntry: 0.26, Exec: 15.46},
			{Entry: 1.11, Exit: 0.91, IRQEntry: 0.46, Exec: 15.83},
			{Entry: 1.26, Exit: 0.96, IRQEntry: 0.50, Exec: 16.11},
			{Entry: 1.29, Exit: 0.99, IRQEntry: 0.51, Exec: 16.31},
		},
	}
	f := Figure9(tab)
	// Paper: entry ratio at 4 OS = 1.29/0.87 = 1.48 (plot: ~1.65 uses a
	// slightly different base; we assert the arithmetic, not the plot).
	if got := f.Entry[3]; got < 1.4 || got > 1.6 {
		t.Errorf("entry ratio @4 = %.3f, want ~1.48", got)
	}
	if got := f.Exec[0]; got < 1.02 || got > 1.04 {
		t.Errorf("exec ratio @1 = %.3f, want ~1.03", got)
	}
	if got := f.Total[3]; got < 1.2 || got > 1.3 {
		t.Errorf("total ratio @4 = %.3f, want ~1.24 (paper: 1.227)", got)
	}
	if !f.SlopeDecreasing() {
		t.Error("paper's own data should show a decreasing slope")
	}
}

func TestFootprint(t *testing.T) {
	f := CollectFootprint("../..")
	if f.Hypercalls != 25 {
		t.Errorf("hypercalls = %d, want 25", f.Hypercalls)
	}
	if f.KernelLoC == 0 {
		t.Error("kernel LoC count failed (sources should be on disk in tests)")
	}
	s := f.String()
	if !strings.Contains(s, "paper: 25") {
		t.Error("report missing paper reference")
	}
}

// TestTaskPickerDeterministicAndCoversSet pins T_hw's task stream: the
// catalog's picker over a VM's default menu is reproducible and draws
// from the whole menu.
func TestTaskPickerDeterministicAndCoversSet(t *testing.T) {
	p1 := hwtask.NewMenuPicker(hwtask.DefaultTaskMenu(1), 7, false)
	p2 := hwtask.NewMenuPicker(hwtask.DefaultTaskMenu(1), 7, false)
	seen := map[uint16]bool{}
	for i := 0; i < 200; i++ {
		a, b := p1.Next(), p2.Next()
		if a != b {
			t.Fatal("picker not deterministic")
		}
		seen[a] = true
	}
	if len(seen) < 3 {
		t.Errorf("picker covered only %d distinct tasks", len(seen))
	}
}

func TestTaskPickerSequentialCyclesMenu(t *testing.T) {
	menu := []uint16{5, 9, 2}
	p := hwtask.NewMenuPicker(menu, 0, true)
	for i := 0; i < 9; i++ {
		if got, want := p.Next(), menu[i%len(menu)]; got != want {
			t.Fatalf("sequential pick %d = %d, want %d", i, got, want)
		}
	}
}
