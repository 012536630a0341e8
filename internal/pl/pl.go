// Package pl models the programmable logic half of the Zynq-7000 (paper
// §IV): a 7-series FPGA fabric divided into static logic and partially
// reconfigurable regions (PRRs), the PRR controller with one register
// group per region, the hwMMU that polices hardware-task DMA, the PCAP
// configuration engine, and the 16 PL→PS interrupt lines.
//
// The pieces map to the paper as follows.
//
//   - Each PRR has a register group "mapped to the edge of separate
//     physical small-size pages (4KB), so that each PRR can be mapped to a
//     virtual 4KB page independently" (§IV-C). Here the controller is one
//     MMIO device whose 4 KB-aligned subpages are the groups.
//   - "hwMMU is loaded with the physical address of the VM's hardware task
//     data section … any access from this hardware task is checked by the
//     hwMMU, which forbids the access outside the determined section"
//     (§IV-C). DMA issued by a PRR goes through its window check.
//   - PCAP downloads bitstreams into PRRs with latency proportional to the
//     .bit size and raises a completion IRQ (§IV-D/E).
package pl

import (
	"fmt"
	"sync/atomic"

	"repro/internal/bitstream"
	"repro/internal/gic"
	"repro/internal/physmem"
	"repro/internal/simclock"
)

// Register-group word offsets within a PRR's 4 KB page.
const (
	RegCtrl    = 0x00 // bit0 START; bit1 IRQ_EN
	RegStatus  = 0x04 // see Status* constants
	RegSrc     = 0x08 // input byte offset within the client's data section
	RegDst     = 0x0C // output byte offset within the client's data section
	RegLen     = 0x10 // input length in bytes
	RegParam   = 0x14 // core-specific parameter
	RegIRQStat = 0x18 // bit0 done, bit1 error (write-1-to-clear)
	RegTaskID  = 0x1C // read-only: loaded task<<16 | variant
)

// CtrlStart and CtrlIRQEn are RegCtrl bits.
const (
	CtrlStart = 1 << 0
	CtrlIRQEn = 1 << 1
)

// Status values of RegStatus.
const (
	StatusIdle  = 0
	StatusBusy  = 1
	StatusDone  = 2
	StatusError = 3
)

// GroupStride is the byte distance between consecutive PRR register
// groups: one small page, the granularity of the exclusive-mapping trick.
const GroupStride = 0x1000

// Accel is a behavioural model of a hardware IP core hosted in a PRR.
// Implementations live in internal/apps (FFT, QAM); the fabric calls them
// when a started task's latency elapses.
type Accel interface {
	// Latency returns the processing time for n input bytes with the
	// given parameter register value.
	Latency(n int, param uint32) simclock.Cycles
	// Process transforms input to output (the DMA'd bytes).
	Process(input []byte, param uint32) ([]byte, error)
}

// Window is one hwMMU entry: the physical span a PRR's DMA may touch.
type Window struct {
	Base  physmem.Addr
	Size  uint32
	Valid bool
}

// Contains reports whether [a, a+n) fits inside the window.
func (w Window) Contains(a physmem.Addr, n uint32) bool {
	return w.Valid && a >= w.Base && uint64(a)+uint64(n) <= uint64(w.Base)+uint64(w.Size)
}

// HwMMU is the custom DMA gatekeeper of §IV-C, one window per PRR.
// Disabled turns the check off (security ablation: without the hwMMU a
// hardware task can DMA anywhere, which is exactly the §IV-C threat).
type HwMMU struct {
	windows []Window
	// Violations is atomic: completion-path checks for different PRRs can
	// run on different core goroutines during a parallel epoch.
	Violations atomic.Uint64
	Disabled   bool
}

// NewHwMMU sizes the unit for n PRRs, all windows invalid.
func NewHwMMU(n int) *HwMMU { return &HwMMU{windows: make([]Window, n)} }

// Load programs the window for PRR r (the kernel/manager does this when a
// task is dispatched to a VM).
func (h *HwMMU) Load(r int, w Window) { h.windows[r] = w }

// WindowOf returns PRR r's current window.
func (h *HwMMU) WindowOf(r int) Window { return h.windows[r] }

// Check validates a DMA access of n bytes at a for PRR r.
func (h *HwMMU) Check(r int, a physmem.Addr, n uint32) bool {
	if h.windows[r].Contains(a, n) {
		return true
	}
	h.Violations.Add(1)
	return h.Disabled // disabled: count the breach but let it through
}

// PRR is one partially reconfigurable region.
type PRR struct {
	Index    int
	Capacity bitstream.Resources

	// Loaded is the currently configured task (nil when the region holds
	// no valid configuration).
	Loaded *bitstream.Bitstream
	core   Accel

	// IRQLine is the PL_IRQ line allocated to this region (-1 = none).
	IRQLine int

	// clock, when set, carries this region's completion events. A mapped
	// region belongs to exactly one client VM, so its events ride that
	// client core's clock in parallel runs; nil falls back to the fabric
	// clock (single-clock configurations and unit tests).
	clock *simclock.Clock

	regs [8]uint32
	// done is the in-flight run's completion, owned and re-armed by every
	// start; runner is the behavioural model that run completes through.
	done   simclock.Event
	runner Accel

	// Stats
	Runs      uint64
	DMAErrors uint64
}

// Fabric is the programmable logic: PRRs + static logic (controller,
// hwMMU, PCAP). It implements physmem.Device for the AXI GP window.
type Fabric struct {
	Clock *simclock.Clock
	Bus   *physmem.Bus
	GIC   *gic.GIC
	HwMMU *HwMMU

	PRRs []*PRR
	PCAP *PCAP

	cores map[uint16]Accel // task ID -> behavioural model
}

// NewFabric builds a fabric with the given PRR capacities and maps it on
// the bus at physmem.AXIGP0Base.
func NewFabric(clock *simclock.Clock, bus *physmem.Bus, g *gic.GIC, capacities []bitstream.Resources) *Fabric {
	f := &Fabric{
		Clock: clock,
		Bus:   bus,
		GIC:   g,
		HwMMU: NewHwMMU(len(capacities)),
		cores: make(map[uint16]Accel),
	}
	for i, c := range capacities {
		p := &PRR{Index: i, Capacity: c, IRQLine: -1}
		p.done.Fire = func(simclock.Cycles) { f.complete(p) }
		f.PRRs = append(f.PRRs, p)
	}
	f.PCAP = newPCAP(f)
	bus.MapDevice(physmem.AXIGP0Base, uint32(len(capacities))*GroupStride, f)
	bus.MapDevice(physmem.DevCfgBase, 0x100, f.PCAP)
	return f
}

// RegisterCore associates a behavioural model with a hardware-task ID.
func (f *Fabric) RegisterCore(taskID uint16, a Accel) { f.cores[taskID] = a }

// GroupBase returns the physical address of PRR r's register group — what
// the kernel maps into the client VM (§IV-C).
func (f *Fabric) GroupBase(r int) physmem.Addr {
	return physmem.AXIGP0Base + physmem.Addr(r*GroupStride)
}

// AllocateIRQ assigns a free PL_IRQ line to PRR r and returns the GIC
// interrupt ID, or an error when all 16 lines are taken (§IV-D).
func (f *Fabric) AllocateIRQ(r int) (int, error) {
	inUse := make(map[int]bool)
	for _, p := range f.PRRs {
		if p.IRQLine >= 0 {
			inUse[p.IRQLine] = true
		}
	}
	for line := 0; line < gic.NumPLIRQs; line++ {
		if !inUse[line] {
			f.PRRs[r].IRQLine = line
			return gic.PLIRQBase + line, nil
		}
	}
	return 0, fmt.Errorf("pl: no free PL_IRQ line for PRR%d", r)
}

// ReleaseIRQ frees PRR r's interrupt line.
func (f *Fabric) ReleaseIRQ(r int) { f.PRRs[r].IRQLine = -1 }

// BindClock routes PRR r's future completion events onto clk (the owning
// client core's clock in parallel runs). Pass nil to fall back to the
// fabric clock. Must only be called while the region has no task in
// flight — the manager never remaps a busy region, so the mapping and
// unmapping paths satisfy this by construction.
func (f *Fabric) BindClock(r int, clk *simclock.Clock) { f.PRRs[r].clock = clk }

// AbortRun cancels PRR r's in-flight task, if any: the pending completion
// event is removed from whichever clock carries it and the region reports
// an error, exactly as a real partial-reconfiguration abort would leave
// the old task's status. The manager's forced-reclaim path uses this so a
// completion launched by the previous owner can never land after the
// region has been handed to a new one.
func (f *Fabric) AbortRun(r int) {
	p := f.PRRs[r]
	if !p.done.Queued() {
		return
	}
	clk := p.clock
	if clk == nil {
		clk = f.Clock
	}
	clk.Cancel(&p.done)
	p.regs[RegStatus/4] = StatusError
	p.regs[RegIRQStat/4] |= 2
}

// Name implements physmem.Device.
func (f *Fabric) Name() string { return "prr-controller" }

// ReadReg implements physmem.Device: dispatch to the owning PRR group.
func (f *Fabric) ReadReg(off physmem.Addr) uint32 {
	r := int(off / GroupStride)
	reg := off % GroupStride
	if r >= len(f.PRRs) || reg >= 0x20 {
		return 0
	}
	p := f.PRRs[r]
	if reg == RegTaskID {
		if p.Loaded == nil {
			return 0xFFFF_FFFF
		}
		return uint32(p.Loaded.TaskID)<<16 | uint32(p.Loaded.Variant)
	}
	return p.regs[reg/4]
}

// WriteReg implements physmem.Device.
func (f *Fabric) WriteReg(off physmem.Addr, v uint32) {
	r := int(off / GroupStride)
	reg := off % GroupStride
	if r >= len(f.PRRs) || reg >= 0x20 {
		return
	}
	p := f.PRRs[r]
	switch reg {
	case RegStatus, RegTaskID:
		// read-only
	case RegIRQStat:
		p.regs[RegIRQStat/4] &^= v // W1C
	case RegCtrl:
		p.regs[RegCtrl/4] = v &^ CtrlStart
		if v&CtrlStart != 0 {
			f.start(p)
		}
	default:
		p.regs[reg/4] = v
	}
}

// start kicks a loaded task: STATUS goes busy, and after the core's
// latency the DMA + computation completes.
func (f *Fabric) start(p *PRR) {
	if p.Loaded == nil || p.regs[RegStatus/4] == StatusBusy {
		p.regs[RegStatus/4] = StatusError
		p.regs[RegIRQStat/4] |= 2
		f.finishIRQ(p)
		return
	}
	core := p.core
	if core == nil {
		core = f.cores[p.Loaded.TaskID]
	}
	if core == nil {
		p.regs[RegStatus/4] = StatusError
		p.regs[RegIRQStat/4] |= 2
		f.finishIRQ(p)
		return
	}
	p.regs[RegStatus/4] = StatusBusy
	n := int(p.regs[RegLen/4])
	param := p.regs[RegParam/4]
	lat := core.Latency(n, param)
	clk := p.clock
	if clk == nil {
		clk = f.Clock
	}
	p.runner = core
	clk.Schedule(&p.done, clk.Now()+lat)
}

// complete performs the DMA through the hwMMU, runs the behavioural model
// and finishes the task.
func (f *Fabric) complete(p *PRR) {
	p.Runs++
	win := f.HwMMU.WindowOf(p.Index)
	src := win.Base + physmem.Addr(p.regs[RegSrc/4])
	dst := win.Base + physmem.Addr(p.regs[RegDst/4])
	n := p.regs[RegLen/4]

	fail := func() {
		p.DMAErrors++
		p.regs[RegStatus/4] = StatusError
		p.regs[RegIRQStat/4] |= 2
		f.finishIRQ(p)
	}

	if !f.HwMMU.Check(p.Index, src, n) {
		fail()
		return
	}
	input, err := f.Bus.ReadBytes(src, int(n))
	if err != nil {
		fail()
		return
	}
	output, err := p.runner.Process(input, p.regs[RegParam/4])
	if err != nil {
		fail()
		return
	}
	if !f.HwMMU.Check(p.Index, dst, uint32(len(output))) {
		fail()
		return
	}
	if err := f.Bus.WriteBytes(dst, output); err != nil {
		fail()
		return
	}
	p.regs[RegStatus/4] = StatusDone
	p.regs[RegIRQStat/4] |= 1
	f.finishIRQ(p)
}

func (f *Fabric) finishIRQ(p *PRR) {
	if p.regs[RegCtrl/4]&CtrlIRQEn != 0 && p.IRQLine >= 0 {
		f.GIC.Raise(gic.PLIRQBase + p.IRQLine)
	}
}

// LoadConfiguration installs a decoded bitstream into PRR r, as the PCAP
// completion path does. It fails when the region is too small — the
// resource check behind "only PRR1 and PRR2 are large enough to contain
// the FFT tasks" (§V-B).
func (f *Fabric) LoadConfiguration(r int, b *bitstream.Bitstream) error {
	p := f.PRRs[r]
	if !b.Needs.Fits(p.Capacity) {
		return fmt.Errorf("pl: task %d does not fit PRR%d (needs %+v, capacity %+v)",
			b.TaskID, r, b.Needs, p.Capacity)
	}
	if p.regs[RegStatus/4] == StatusBusy {
		return fmt.Errorf("pl: PRR%d is busy; cannot reconfigure", r)
	}
	p.Loaded = b
	p.core = f.cores[b.TaskID]
	p.regs[RegStatus/4] = StatusIdle
	p.regs[RegIRQStat/4] = 0
	return nil
}

// Busy reports whether PRR r is executing.
func (f *Fabric) Busy(r int) bool { return f.PRRs[r].regs[RegStatus/4] == StatusBusy }

// SaveRegGroup snapshots PRR r's software-visible registers — what the
// manager stores into the previous owner's data section when a task is
// reclaimed (§IV-C "the register group content of T1 is saved to the VM1
// hardware task data section").
func (f *Fabric) SaveRegGroup(r int) [8]uint32 { return f.PRRs[r].regs }
