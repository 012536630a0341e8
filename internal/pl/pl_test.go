package pl

import (
	"bytes"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/gic"
	"repro/internal/physmem"
	"repro/internal/simclock"
)

// reverseCore is a trivial Accel for tests: reverses its input.
type reverseCore struct{}

func (reverseCore) Latency(n int, _ uint32) simclock.Cycles {
	return simclock.Cycles(10 * n)
}
func (reverseCore) Process(in []byte, _ uint32) ([]byte, error) {
	out := make([]byte, len(in))
	for i, b := range in {
		out[len(in)-1-i] = b
	}
	return out, nil
}

func rig() (*simclock.Clock, *physmem.Bus, *gic.GIC, *Fabric) {
	clock := simclock.New()
	bus := physmem.NewBus()
	g := gic.New()
	caps := []bitstream.Resources{
		{LUTs: 10000, BRAM: 32, DSP: 48}, // PRR0: large
		{LUTs: 10000, BRAM: 32, DSP: 48}, // PRR1: large
		{LUTs: 2000, BRAM: 4, DSP: 8},    // PRR2: small
		{LUTs: 2000, BRAM: 4, DSP: 8},    // PRR3: small
	}
	f := NewFabric(clock, bus, g, caps)
	f.RegisterCore(1, reverseCore{})
	return clock, bus, g, f
}

func loadTask(t *testing.T, f *Fabric, r int) *bitstream.Bitstream {
	t.Helper()
	bs := bitstream.Synthesize(1, 0, bitstream.Resources{LUTs: 1500}, 4096)
	if err := f.LoadConfiguration(r, bs); err != nil {
		t.Fatalf("LoadConfiguration: %v", err)
	}
	return bs
}

func TestRegisterGroupIsolationPerPage(t *testing.T) {
	_, bus, _, f := rig()
	// Each group page is GroupStride apart.
	if f.GroupBase(1)-f.GroupBase(0) != GroupStride {
		t.Error("register groups not one page apart")
	}
	// Writing PRR0's Src must not affect PRR1's.
	if err := bus.Write32(f.GroupBase(0)+RegSrc, 0x100); err != nil {
		t.Fatal(err)
	}
	v, _ := bus.Read32(f.GroupBase(1) + RegSrc)
	if v != 0 {
		t.Error("register write leaked across PRR groups")
	}
}

func TestTaskRunsThroughHwMMU(t *testing.T) {
	clock, bus, g, f := rig()
	loadTask(t, f, 0)
	irqID, err := f.AllocateIRQ(0)
	if err != nil {
		t.Fatal(err)
	}
	g.Enable(irqID)

	// Client data section at DDR+1MB, 64KB.
	section := physmem.DDRBase + 1<<20
	f.HwMMU.Load(0, Window{Base: section, Size: 64 << 10, Valid: true})
	input := []byte("hardware-task-input-payload!")
	if err := bus.WriteBytes(section+0x100, input); err != nil {
		t.Fatal(err)
	}

	gb := f.GroupBase(0)
	bus.Write32(gb+RegSrc, 0x100)
	bus.Write32(gb+RegDst, 0x800)
	bus.Write32(gb+RegLen, uint32(len(input)))
	bus.Write32(gb+RegCtrl, CtrlStart|CtrlIRQEn)

	if v, _ := bus.Read32(gb + RegStatus); v != StatusBusy {
		t.Fatalf("status after start = %d, want busy", v)
	}
	clock.RunUntilIdle(10)
	if v, _ := bus.Read32(gb + RegStatus); v != StatusDone {
		t.Fatalf("status after completion = %d, want done", v)
	}
	out, _ := bus.ReadBytes(section+0x800, len(input))
	want, _ := reverseCore{}.Process(input, 0)
	if !bytes.Equal(out, want) {
		t.Error("core output mismatch")
	}
	if !g.IsPending(irqID) {
		t.Error("completion IRQ not raised")
	}
}

func TestHwMMUBlocksEscape(t *testing.T) {
	clock, bus, _, f := rig()
	loadTask(t, f, 0)
	section := physmem.DDRBase + 1<<20
	f.HwMMU.Load(0, Window{Base: section, Size: 4 << 10, Valid: true})

	gb := f.GroupBase(0)
	bus.Write32(gb+RegSrc, 0x0)
	bus.Write32(gb+RegDst, 5<<10) // dst outside the 4KB window
	bus.Write32(gb+RegLen, 64)
	bus.Write32(gb+RegCtrl, CtrlStart)
	clock.RunUntilIdle(10)

	if v, _ := bus.Read32(gb + RegStatus); v != StatusError {
		t.Errorf("status = %d, want error on hwMMU violation", v)
	}
	if f.HwMMU.Violations.Load() == 0 {
		t.Error("violation not counted")
	}
	if f.PRRs[0].DMAErrors != 1 {
		t.Error("DMA error not counted on PRR")
	}
}

func TestHwMMUInvalidWindowBlocksEverything(t *testing.T) {
	clock, bus, _, f := rig()
	loadTask(t, f, 0)
	// No window loaded at all.
	gb := f.GroupBase(0)
	bus.Write32(gb+RegLen, 4)
	bus.Write32(gb+RegCtrl, CtrlStart)
	clock.RunUntilIdle(10)
	if v, _ := bus.Read32(gb + RegStatus); v != StatusError {
		t.Errorf("status = %d, want error with invalid window", v)
	}
}

func TestStartWithoutConfigurationErrors(t *testing.T) {
	_, bus, _, f := rig()
	gb := f.GroupBase(2)
	bus.Write32(gb+RegCtrl, CtrlStart)
	if v, _ := bus.Read32(gb + RegStatus); v != StatusError {
		t.Errorf("status = %d, want error on empty PRR", v)
	}
}

func TestResourceFitRejected(t *testing.T) {
	_, _, _, f := rig()
	big := bitstream.Synthesize(1, 0, bitstream.Resources{LUTs: 5000}, 128)
	if err := f.LoadConfiguration(2, big); err == nil {
		t.Error("oversized task loaded into small PRR")
	}
	if err := f.LoadConfiguration(0, big); err != nil {
		t.Errorf("task rejected from large PRR: %v", err)
	}
}

func TestIRQLineAllocation(t *testing.T) {
	_, _, _, f := rig()
	seen := make(map[int]bool)
	for r := 0; r < 4; r++ {
		id, err := f.AllocateIRQ(r)
		if err != nil {
			t.Fatalf("AllocateIRQ(%d): %v", r, err)
		}
		if id < gic.PLIRQBase || id >= gic.PLIRQBase+gic.NumPLIRQs {
			t.Errorf("IRQ id %d outside PL range", id)
		}
		if seen[id] {
			t.Errorf("IRQ id %d allocated twice", id)
		}
		seen[id] = true
	}
	f.ReleaseIRQ(2)
	if _, err := f.AllocateIRQ(2); err != nil {
		t.Errorf("re-allocation after release failed: %v", err)
	}
}

func TestPCAPDownload(t *testing.T) {
	clock, bus, g, f := rig()
	g.Enable(gic.PCAPIRQ)
	bs := bitstream.Synthesize(1, 2, bitstream.Resources{LUTs: 1500}, 8192)
	raw := bs.Encode()
	src := physmem.DDRBase + 2<<20
	if err := bus.WriteBytes(src, raw); err != nil {
		t.Fatal(err)
	}

	bus.Write32(physmem.DevCfgBase+PCAPRegSrc, uint32(src))
	bus.Write32(physmem.DevCfgBase+PCAPRegLen, uint32(len(raw)))
	bus.Write32(physmem.DevCfgBase+PCAPRegTarget, 1)
	bus.Write32(physmem.DevCfgBase+PCAPRegCtrl, 1)

	if !f.PCAP.Busy() {
		t.Fatal("PCAP not busy after kick")
	}
	start := clock.Now()
	clock.RunUntilIdle(10)
	elapsed := clock.Now() - start
	if want := TransferCycles(len(raw)); elapsed < want {
		t.Errorf("transfer finished in %d cycles, want >= %d", elapsed, want)
	}
	if f.PRRs[1].Loaded == nil || f.PRRs[1].Loaded.TaskID != 1 || f.PRRs[1].Loaded.Variant != 2 {
		t.Error("bitstream not loaded into PRR1")
	}
	if !g.IsPending(gic.PCAPIRQ) {
		t.Error("PCAP completion IRQ not raised")
	}
	if v, _ := bus.Read32(physmem.DevCfgBase + PCAPRegStatus); v != 2 {
		t.Errorf("PCAP status = %d, want done", v)
	}
}

func TestPCAPBusyStartRejectedWithoutClobber(t *testing.T) {
	// Regression: a Ctrl start while a transfer is in flight must not
	// disturb the latched src/len/target of the running transfer, must
	// leave STATUS showing busy, and must be counted in Errors.
	clock, bus, _, f := rig()
	bs := bitstream.Synthesize(1, 2, bitstream.Resources{LUTs: 1500}, 8192)
	raw := bs.Encode()
	src := physmem.DDRBase + 2<<20
	if err := bus.WriteBytes(src, raw); err != nil {
		t.Fatal(err)
	}
	bus.Write32(physmem.DevCfgBase+PCAPRegSrc, uint32(src))
	bus.Write32(physmem.DevCfgBase+PCAPRegLen, uint32(len(raw)))
	bus.Write32(physmem.DevCfgBase+PCAPRegTarget, 1)
	bus.Write32(physmem.DevCfgBase+PCAPRegCtrl, 1)
	if !f.PCAP.Busy() {
		t.Fatal("PCAP not busy after kick")
	}

	// Mid-transfer, a confused driver reprograms everything and starts
	// again: garbage src, different target.
	bus.Write32(physmem.DevCfgBase+PCAPRegSrc, 0xDEAD_0000)
	bus.Write32(physmem.DevCfgBase+PCAPRegLen, 16)
	bus.Write32(physmem.DevCfgBase+PCAPRegTarget, 0)
	bus.Write32(physmem.DevCfgBase+PCAPRegCtrl, 1)

	if f.PCAP.Errors != 1 {
		t.Errorf("rejected start not counted: Errors = %d, want 1", f.PCAP.Errors)
	}
	if v, _ := bus.Read32(physmem.DevCfgBase + PCAPRegStatus); v != 1 {
		t.Errorf("status after rejected start = %d, want 1 (busy, not clobbered)", v)
	}

	clock.RunUntilIdle(10)
	// The original transfer completes into its latched target with its
	// latched source, untouched by the mid-flight register writes.
	if v, _ := bus.Read32(physmem.DevCfgBase + PCAPRegStatus); v != 2 {
		t.Errorf("status after completion = %d, want done", v)
	}
	if f.PRRs[1].Loaded == nil || f.PRRs[1].Loaded.TaskID != 1 || f.PRRs[1].Loaded.Variant != 2 {
		t.Error("in-flight transfer corrupted by rejected start")
	}
	if f.PRRs[0].Loaded != nil {
		t.Error("rejected start configured its target anyway")
	}
	if f.PCAP.Transfers != 1 || f.PCAP.Errors != 1 {
		t.Errorf("transfers/errors = %d/%d, want 1/1", f.PCAP.Transfers, f.PCAP.Errors)
	}
}

func TestPCAPCompletionHook(t *testing.T) {
	clock, bus, _, f := rig()
	var gotTarget int
	var gotOK bool
	calls := 0
	f.PCAP.OnComplete = func(target int, ok bool) { gotTarget, gotOK, calls = target, ok, calls+1 }
	raw := bitstream.Synthesize(1, 0, bitstream.Resources{LUTs: 100}, 1024).Encode()
	src := physmem.DDRBase + 2<<20
	bus.WriteBytes(src, raw)
	bus.Write32(physmem.DevCfgBase+PCAPRegSrc, uint32(src))
	bus.Write32(physmem.DevCfgBase+PCAPRegLen, uint32(len(raw)))
	bus.Write32(physmem.DevCfgBase+PCAPRegTarget, 1)
	bus.Write32(physmem.DevCfgBase+PCAPRegCtrl, 1)
	clock.RunUntilIdle(10)
	if calls != 1 || gotTarget != 1 || !gotOK {
		t.Errorf("hook: calls=%d target=%d ok=%v, want 1/1/true", calls, gotTarget, gotOK)
	}
}

func TestPCAPCorruptBitstreamErrors(t *testing.T) {
	clock, bus, _, f := rig()
	raw := bitstream.Synthesize(1, 0, bitstream.Resources{}, 512).Encode()
	raw[40] ^= 0xFF // corrupt payload
	src := physmem.DDRBase + 2<<20
	bus.WriteBytes(src, raw)
	bus.Write32(physmem.DevCfgBase+PCAPRegSrc, uint32(src))
	bus.Write32(physmem.DevCfgBase+PCAPRegLen, uint32(len(raw)))
	bus.Write32(physmem.DevCfgBase+PCAPRegTarget, 0)
	bus.Write32(physmem.DevCfgBase+PCAPRegCtrl, 1)
	clock.RunUntilIdle(10)
	if v, _ := bus.Read32(physmem.DevCfgBase + PCAPRegStatus); v != 3 {
		t.Errorf("PCAP status = %d, want error", v)
	}
	if f.PCAP.Errors != 1 {
		t.Error("error not counted")
	}
}

func TestReconfigureBusyPRRRejected(t *testing.T) {
	_, bus, _, f := rig()
	loadTask(t, f, 0)
	section := physmem.DDRBase + 1<<20
	f.HwMMU.Load(0, Window{Base: section, Size: 64 << 10, Valid: true})
	gb := f.GroupBase(0)
	bus.Write32(gb+RegLen, 16)
	bus.Write32(gb+RegCtrl, CtrlStart) // busy now
	bs := bitstream.Synthesize(1, 1, bitstream.Resources{}, 128)
	if err := f.LoadConfiguration(0, bs); err == nil {
		t.Error("reconfiguration of busy PRR allowed")
	}
}

func TestSaveRestoreRegGroup(t *testing.T) {
	_, bus, _, f := rig()
	loadTask(t, f, 0)
	gb := f.GroupBase(0)
	bus.Write32(gb+RegSrc, 0xAA)
	bus.Write32(gb+RegParam, 0xBB)
	saved := f.SaveRegGroup(0)
	bus.Write32(gb+RegSrc, 0)
	if saved[RegSrc/4] != 0xAA || saved[RegParam/4] != 0xBB {
		t.Errorf("saved Src, Param = %#x, %#x, want 0xAA, 0xBB", saved[RegSrc/4], saved[RegParam/4])
	}
}

func TestIRQStatW1C(t *testing.T) {
	clock, bus, _, f := rig()
	loadTask(t, f, 0)
	section := physmem.DDRBase + 1<<20
	f.HwMMU.Load(0, Window{Base: section, Size: 64 << 10, Valid: true})
	gb := f.GroupBase(0)
	bus.Write32(gb+RegLen, 8)
	bus.Write32(gb+RegCtrl, CtrlStart)
	clock.RunUntilIdle(10)
	if v, _ := bus.Read32(gb + RegIRQStat); v&1 == 0 {
		t.Fatal("done bit not set")
	}
	bus.Write32(gb+RegIRQStat, 1)
	if v, _ := bus.Read32(gb + RegIRQStat); v&1 != 0 {
		t.Error("W1C did not clear done bit")
	}
}
