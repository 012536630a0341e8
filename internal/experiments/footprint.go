package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/abi"
	"repro/internal/nova"
)

// Footprint reports the §V-B scalar claims next to this reproduction's
// equivalents: the paper's kernel is 5,363 LoC / ~40 KB ELF with 25
// hypercalls, of which the paravirtualized uCOS-II uses 17 through a
// ~200 LoC patch.
type Footprint struct {
	Hypercalls        int
	UCOSHypercalls    int
	KernelModelBytes  int
	KernelLoC         int // Go LoC of internal/nova (the kernel model)
	PortLoC           int // Go LoC of the paravirtualized port (virt.go)
	TimeSliceMs       int
	PRRs              int
	FFTCompatiblePRRs int
}

// VirtHypercallsUsed is the count of distinct hypercalls the
// paravirtualized uCOS-II port issues (listed in ucos.VirtMachine's doc;
// TestPortHypercallCount counts them on a traced kernel). The paper's
// port uses 17.
const VirtHypercallsUsed = 15

// CollectFootprint gathers the scalars; root is the repository root (LoC
// counts are best-effort: zero when sources are not on disk).
func CollectFootprint(root string) Footprint {
	return Footprint{
		Hypercalls:        abi.NumHypercalls,
		UCOSHypercalls:    VirtHypercallsUsed,
		KernelModelBytes:  nova.KernelCodeSize,
		KernelLoC:         countGoLoC(filepath.Join(root, "internal", "nova")),
		PortLoC:           countFileLoC(filepath.Join(root, "internal", "ucos", "virt.go")),
		TimeSliceMs:       nova.DefaultQuantumMs,
		PRRs:              4,
		FFTCompatiblePRRs: 2,
	}
}

func countGoLoC(dir string) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	total := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		total += countFileLoC(filepath.Join(dir, name))
	}
	return total
}

func countFileLoC(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		s := strings.TrimSpace(line)
		if s != "" && !strings.HasPrefix(s, "//") {
			n++
		}
	}
	return n
}

// String renders the footprint report with the paper's numbers inline.
func (f Footprint) String() string {
	var b strings.Builder
	b.WriteString("Footprint (paper Section V-B scalars vs this reproduction)\n")
	fmt.Fprintf(&b, "  hypercalls provided:        %d   (paper: 25)\n", f.Hypercalls)
	fmt.Fprintf(&b, "  hypercalls used by uCOS-II: %d   (paper: 17)\n", f.UCOSHypercalls)
	fmt.Fprintf(&b, "  kernel text model:          %d KB (paper ELF: ~40 KB)\n", f.KernelModelBytes>>10)
	if f.KernelLoC > 0 {
		fmt.Fprintf(&b, "  kernel implementation LoC:  %d  (paper C/asm: 5363)\n", f.KernelLoC)
	}
	if f.PortLoC > 0 {
		fmt.Fprintf(&b, "  uCOS-II port layer LoC:     %d  (paper patch: ~200)\n", f.PortLoC)
	}
	fmt.Fprintf(&b, "  guest time slice:           %d ms (paper: 33 ms)\n", f.TimeSliceMs)
	fmt.Fprintf(&b, "  PRRs:                       %d, FFT-capable: %d (paper: 4 / 2)\n", f.PRRs, f.FFTCompatiblePRRs)
	return b.String()
}
