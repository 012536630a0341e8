package experiments

import (
	"fmt"
	"strings"
)

// Fig9 is the reproduction of the paper's Figure 9: the degradation ratio
// R_D = t_virtualization / t_native of each Table III phase, as a series
// over the number of parallel guest OSes. "For HW Manager entry/exit and
// PL IRQ entry overheads, which are measured as zero when running
// natively, the performances with one virtual machine are used instead of
// t_native" (§V-B).
type Fig9 struct {
	GuestCounts []int
	Entry       []float64
	Exit        []float64
	IRQEntry    []float64
	Exec        []float64
	Total       []float64
}

// Figure9 derives the ratio series from a Table III run.
func Figure9(t Table3) Fig9 {
	f := Fig9{}
	// Entry, exit and IRQ entry are zero natively: the one-VM row is
	// their base.
	eBase := t.Virt[0].Entry
	xBase := t.Virt[0].Exit
	iBase := t.Virt[0].IRQEntry
	cBase := t.Native.Exec
	tBase := t.Native.Exec // native total == native exec (no entry/exit)
	for i, r := range t.Virt {
		f.GuestCounts = append(f.GuestCounts, i+1)
		f.Entry = append(f.Entry, r.Entry/eBase)
		f.Exit = append(f.Exit, r.Exit/xBase)
		f.IRQEntry = append(f.IRQEntry, r.IRQEntry/iBase)
		f.Exec = append(f.Exec, r.Exec/cBase)
		f.Total = append(f.Total, r.Total()/tBase)
	}
	return f
}

// String renders the series plus an ASCII plot of the Total curve.
func (f Fig9) String() string {
	var b strings.Builder
	b.WriteString("Figure 9: Performance degradation ratio of Hardware Task Manager\n")
	fmt.Fprintf(&b, "%-12s", "guests")
	for _, n := range f.GuestCounts {
		fmt.Fprintf(&b, " %6d", n)
	}
	b.WriteString("\n")
	series := func(name string, v []float64) {
		fmt.Fprintf(&b, "%-12s", name)
		for _, x := range v {
			fmt.Fprintf(&b, " %6.3f", x)
		}
		b.WriteString("\n")
	}
	series("entry", f.Entry)
	series("exit", f.Exit)
	series("IRQ entry", f.IRQEntry)
	series("execution", f.Exec)
	series("Total", f.Total)
	return b.String()
}

// Efficiency returns the curve as the paper actually plots it (the data
// table embedded in the figure runs 0.878 → 0.815 for Total): the
// native-to-virtualized performance ratio t_native/t_virt, declining
// toward a constant as the worst case is approached.
func (f Fig9) Efficiency() []float64 {
	out := make([]float64, len(f.Total))
	for i, r := range f.Total {
		out[i] = 1 / r
	}
	return out
}

// SlopeDecreasing reports the paper's qualitative finding: "the ratios
// are declining with the OS number, while the trend is slowing down,
// indicating that the system is getting a constant overhead" — the Total
// ratio's per-VM increments shrink (with a small tolerance for sampling
// noise).
func (f Fig9) SlopeDecreasing() bool {
	if len(f.Total) < 3 {
		return true
	}
	prev := f.Total[1] - f.Total[0]
	for i := 2; i < len(f.Total); i++ {
		d := f.Total[i] - f.Total[i-1]
		if d > prev+0.05 {
			return false
		}
		prev = d
	}
	return true
}
