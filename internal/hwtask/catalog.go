package hwtask

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/apps"
	"repro/internal/bitstream"
	"repro/internal/gic"
	"repro/internal/physmem"
	"repro/internal/pl"
	"repro/internal/simclock"
)

// Task IDs of the paper's evaluation set (§V-B, Fig. 8): an FFT family
// ranging from 256 to 8192 points and a QAM family with constellation
// sizes 4, 16 and 64.
const (
	TaskFFT256  = 1
	TaskFFT512  = 2
	TaskFFT1024 = 3
	TaskFFT2048 = 4
	TaskFFT4096 = 5
	TaskFFT8192 = 6

	TaskQAM4  = 10
	TaskQAM16 = 11
	TaskQAM64 = 12
)

// FFTTaskIDs and QAMTaskIDs enumerate the two families.
var (
	FFTTaskIDs = []uint16{TaskFFT256, TaskFFT512, TaskFFT1024, TaskFFT2048, TaskFFT4096, TaskFFT8192}
	QAMTaskIDs = []uint16{TaskQAM4, TaskQAM16, TaskQAM64}
)

// FFTPoints returns the transform size of an FFT task ID.
func FFTPoints(id uint16) int { return 256 << (id - TaskFFT256) }

// QAMOrder returns the constellation size of a QAM task ID.
func QAMOrder(id uint16) int { return 4 << (2 * (id - TaskQAM4)) }

// DefaultTaskMenu is the deterministic stand-in for T_hw's "randomly
// selects a hardware task from the hardware task set" (§V-B). All VMs
// draw from the shared QAM pool (Fig. 8: hardware tasks are shared
// across guests — "one hardware task can be shared by any VM") plus a
// per-VM FFT stage. This reproduces the paper's two §V-B growth
// mechanisms with the right saturation: the probability that a request
// finds its task owned by another VM — forcing a client reclaim with the
// §IV-C consistency protocol — is roughly (N-1)/N, concave in N; and the
// number of distinct FFT configurations competing for the two large PRRs
// grows 1, 2, 3, 3, driving "more PCAP transfers" that likewise level
// off.
func DefaultTaskMenu(vm int) []uint16 {
	return []uint16{
		TaskQAM4,
		TaskQAM16,
		TaskQAM64,
		FFTTaskIDs[vm%3], // per-VM FFT stage
	}
}

// TaskPicker draws hardware-task IDs from a menu: pseudo-randomly
// (xorshift32 — T_hw's selection stream) or cycling the menu in order (a
// periodic sequence the reconfiguration prefetcher can learn). Shared by
// the experiments' T_hw driver and the scenario engine's churn drivers.
type TaskPicker struct {
	state      uint32
	menu       []uint16
	pos        int
	sequential bool
}

// NewMenuPicker builds a picker over an explicit menu.
func NewMenuPicker(menu []uint16, seed uint32, sequential bool) *TaskPicker {
	if seed == 0 {
		seed = 0x9E3779B9
	}
	return &TaskPicker{state: seed, menu: menu, sequential: sequential}
}

// Next returns the next task ID in the stream.
func (p *TaskPicker) Next() uint16 {
	if p.sequential {
		id := p.menu[p.pos%len(p.menu)]
		p.pos++
		return id
	}
	p.state ^= p.state << 13
	p.state ^= p.state >> 17
	p.state ^= p.state << 5
	return p.menu[p.state%uint32(len(p.menu))]
}

// TaskParams returns the Run() parameters (input length and the
// core-specific parameter register value) for a paper-catalog task. The
// scenario engine's churn drivers share it with the experiments' T_hw.
func TaskParams(id uint16) (length, param uint32) {
	switch {
	case id >= TaskFFT256 && id <= TaskFFT8192:
		points := uint32(FFTPoints(id))
		return points * 4, points
	default:
		return 48, uint32(QAMOrder(id))
	}
}

// PaperTaskSpec describes one catalog entry before installation.
type PaperTaskSpec struct {
	ID      uint16
	Name    string
	Variant uint16
	Needs   bitstream.Resources
	BitLen  int // payload bytes; drives PCAP latency
}

// PaperTaskSet returns the evaluation catalog. FFT blocks "are quite
// large" — their resource needs exceed the small PRRs, so "only PRR1 and
// PRR2 are large enough to contain the FFT tasks"; QAM modules "have a
// small size and can be hosted in all four PRRs" (§V-B). Bitstream sizes
// grow with the FFT point count, following the size↔delay relation of the
// authors' earlier work ([17]).
func PaperTaskSet() []PaperTaskSpec {
	var specs []PaperTaskSpec
	for i, id := range FFTTaskIDs {
		specs = append(specs, PaperTaskSpec{
			ID:      id,
			Name:    fmt.Sprintf("FFT-%d", FFTPoints(id)),
			Variant: uint16(i),
			Needs:   bitstream.Resources{LUTs: 6000 + uint32(i)*400, BRAM: 16 + uint32(i)*2, DSP: 24},
			BitLen:  150<<10 + i*30<<10,
		})
	}
	for i, id := range QAMTaskIDs {
		specs = append(specs, PaperTaskSpec{
			ID:      id,
			Name:    fmt.Sprintf("QAM-%d", QAMOrder(id)),
			Variant: uint16(i),
			Needs:   bitstream.Resources{LUTs: 1200 + uint32(i)*150, BRAM: 2, DSP: 4},
			BitLen:  60<<10 + i*8<<10,
		})
	}
	return specs
}

// PaperPRRCapacities returns the four-region layout of §V-B: two large
// regions (FFT-capable) and two small ones (QAM only).
func PaperPRRCapacities() []bitstream.Resources {
	return []bitstream.Resources{
		{LUTs: 10000, BRAM: 32, DSP: 48},
		{LUTs: 10000, BRAM: 32, DSP: 48},
		{LUTs: 2200, BRAM: 4, DSP: 8},
		{LUTs: 2200, BRAM: 4, DSP: 8},
	}
}

// NewPaperFabric builds a PL fabric with one PRR per capacity and the
// behavioural FFT and QAM cores registered for the paper's tasks.
func NewPaperFabric(clock *simclock.Clock, bus *physmem.Bus, g *gic.GIC, capacities []bitstream.Resources) *pl.Fabric {
	f := pl.NewFabric(clock, bus, g, capacities)
	for _, id := range FFTTaskIDs {
		f.RegisterCore(id, apps.FFTCore{})
	}
	for _, id := range QAMTaskIDs {
		f.RegisterCore(id, apps.QAMCore{})
	}
	return f
}

// paperImage is one PaperTaskSet entry's encoded bitstream: its length,
// and its bytes cut into frames, the last one zero-padded.
type paperImage struct {
	len    int
	frames []physmem.SharedFrame
}

// paperImages holds the encoded bitstream of each PaperTaskSet entry, in
// order. Synthesizing them would dominate a platform's bring-up and the
// bytes never change, so they are encoded once per process, as immutable
// frames that every bus's store points at (InstallTaskSet): a write to a
// store frame gives that frame a private copy on that bus only, so no
// simulation sees another's writes.
var paperImages = sync.OnceValue(func() []paperImage {
	specs := PaperTaskSet()
	imgs := make([]paperImage, len(specs))
	for i, s := range specs {
		raw := bitstream.Synthesize(s.ID, s.Variant, s.Needs, s.BitLen).Encode()
		imgs[i].len = len(raw)
		for frame := range slices.Chunk(raw, physmem.FrameSize) {
			imgs[i].frames = append(imgs[i].frames, physmem.NewSharedFrame(frame))
		}
	}
	return imgs
})

// InstallTaskSet puts the bitstream of each PaperTaskSet entry in the
// store region on the bus (the .bit files of §IV-B, "stored in the DDR
// memory"), one page-aligned entry each, and registers the task in the
// manager's table with its PRR compatibility list. The store's frames
// point at paperImages' shared frames instead of holding copies: they
// read the same bytes, and a write gives a frame a private copy. storePA
// must be frame-aligned RAM with room for the whole set.
func InstallTaskSet(m *Manager, bus *physmem.Bus, storePA physmem.Addr, capacities []bitstream.Resources) error {
	if storePA&(physmem.FrameSize-1) != 0 {
		return fmt.Errorf("hwtask: bitstream store %#08x is not frame-aligned", uint32(storePA))
	}
	off, imgs := uint32(0), paperImages()
	for i, s := range PaperTaskSet() {
		img := imgs[i]
		for j, f := range img.frames {
			bus.InstallFrame(storePA+physmem.Addr(off)+physmem.Addr(j)<<physmem.FrameShift, f)
		}
		var prrs []int
		for r, c := range capacities {
			if s.Needs.Fits(c) {
				prrs = append(prrs, r)
			}
		}
		if len(prrs) == 0 {
			return fmt.Errorf("hwtask: task %s fits no PRR", s.Name)
		}
		m.AddTask(&TaskInfo{
			ID:              s.ID,
			Name:            s.Name,
			Variant:         s.Variant,
			BitstreamOff:    off,
			BitstreamLen:    uint32(img.len),
			ReconfigLatency: pl.TransferCycles(img.len),
			Needs:           s.Needs,
			PRRList:         prrs,
		})
		off += uint32(len(img.frames)) << physmem.FrameShift // page-aligned entries
	}
	return nil
}
