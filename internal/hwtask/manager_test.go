package hwtask

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/bitstream"
	"repro/internal/cpu"
	"repro/internal/gic"
	"repro/internal/physmem"
	"repro/internal/simclock"
)

// fakeActions records effects for decision-core tests.
type fakeActions struct {
	busy      map[int]bool
	quar      map[int]bool
	reclaims  [][2]int
	mapped    []int
	windows   []int
	reconfigs []int
	irqs      []int
	mapFail   bool
	pcapBusy  bool
}

func (f *fakeActions) PRRBusy(prr int) bool        { return f.busy[prr] }
func (f *fakeActions) PRRQuarantined(prr int) bool { return f.quar[prr] }
func (f *fakeActions) Reclaim(c, p int)            { f.reclaims = append(f.reclaims, [2]int{c, p}) }
func (f *fakeActions) MapIface(r abi.Request, p int) bool {
	if f.mapFail {
		return false
	}
	f.mapped = append(f.mapped, p)
	return true
}
func (f *fakeActions) LoadWindow(r abi.Request, p int) bool {
	f.windows = append(f.windows, p)
	return true
}
func (f *fakeActions) StartReconfig(r abi.Request, t *TaskInfo, p int) bool {
	if f.pcapBusy {
		return false
	}
	f.reconfigs = append(f.reconfigs, p)
	return true
}
func (f *fakeActions) AllocIRQ(r abi.Request, p int) (int, bool) {
	f.irqs = append(f.irqs, p)
	return 61 + p, true
}

func testCtx() *cpu.ExecContext {
	clock := simclock.New()
	bus := physmem.NewBus()
	c := cpu.New(clock, bus, gic.New())
	c.MMU.Enabled = false
	return cpu.NewExecContext(c, "mgr", 0x1_0000, 32<<10)
}

func mgr(t *testing.T) *Manager {
	t.Helper()
	m := NewManager(4, 0x10_0000)
	caps := PaperPRRCapacities()
	for _, s := range PaperTaskSet() {
		var prrs []int
		for r, c := range caps {
			if s.Needs.Fits(c) {
				prrs = append(prrs, r)
			}
		}
		m.AddTask(&TaskInfo{ID: s.ID, Name: s.Name, Needs: s.Needs, PRRList: prrs,
			BitstreamLen: uint32(s.BitLen)})
	}
	return m
}

func req(client int, task uint16) abi.Request {
	return abi.Request{Kind: abi.ReqAcquire, ID: 1, ClientID: client, TaskID: task,
		IfaceVA: 0x0900_0000, DataVA: 0x0800_0000}
}

func TestFFTOnlyFitsLargePRRs(t *testing.T) {
	m := mgr(t)
	fft := m.Tasks[TaskFFT8192]
	if len(fft.PRRList) != 2 || fft.PRRList[0] != 0 || fft.PRRList[1] != 1 {
		t.Errorf("FFT-8192 PRR list = %v, want [0 1] (paper §V-B)", fft.PRRList)
	}
	qam := m.Tasks[TaskQAM4]
	if len(qam.PRRList) != 4 {
		t.Errorf("QAM-4 PRR list = %v, want all four regions", qam.PRRList)
	}
}

func TestColdAllocationReconfigures(t *testing.T) {
	m := mgr(t)
	act := &fakeActions{busy: map[int]bool{}}
	status := abi.ReplyStatus(m.Handle(testCtx(), req(1, TaskFFT1024), act))
	if status != abi.StatusReconfig {
		t.Fatalf("cold allocation status = %d, want reconfig", status)
	}
	if len(act.reconfigs) != 1 || act.reconfigs[0] != 0 {
		t.Errorf("reconfigs = %v, want [0]", act.reconfigs)
	}
	if len(act.mapped) != 1 || len(act.windows) != 1 || len(act.irqs) != 1 {
		t.Error("stages 3/4/IRQ not all executed")
	}
	if m.PRRs[0].Client != 1 || m.PRRs[0].TaskID != TaskFFT1024 {
		t.Errorf("PRR table after allocation: %+v", m.PRRs[0])
	}
}

func TestWarmAllocationAvoidsReconfig(t *testing.T) {
	m := mgr(t)
	act := &fakeActions{busy: map[int]bool{}}
	m.Handle(testCtx(), req(1, TaskQAM16), act)
	m.NotifyLoaded(0)
	// Same task again, same client: configuration is already loaded.
	status := abi.ReplyStatus(m.Handle(testCtx(), req(1, TaskQAM16), act))
	if status != abi.StatusOK {
		t.Fatalf("warm allocation status = %d, want OK", status)
	}
	if len(act.reconfigs) != 1 {
		t.Errorf("reconfig launched twice for the same configuration (%v)", act.reconfigs)
	}
	if m.Stats.Hits != 1 {
		t.Errorf("hits = %d, want 1", m.Stats.Hits)
	}
}

func TestReclaimFromOtherVM(t *testing.T) {
	m := mgr(t)
	act := &fakeActions{busy: map[int]bool{}}
	m.Handle(testCtx(), req(1, TaskQAM4), act)
	m.NotifyLoaded(0)
	// VM 2 wants the same task: region must be reclaimed from VM 1.
	status := abi.ReplyStatus(m.Handle(testCtx(), req(2, TaskQAM4), act))
	if status != abi.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if len(act.reclaims) != 1 || act.reclaims[0] != [2]int{1, 0} {
		t.Errorf("reclaims = %v, want [[1 0]] (§IV-C handover)", act.reclaims)
	}
	if m.OwnerOf(0) != 2 {
		t.Errorf("owner = %d, want 2", m.OwnerOf(0))
	}
}

func TestBusyWhenAllRegionsExecuting(t *testing.T) {
	m := mgr(t)
	act := &fakeActions{busy: map[int]bool{0: true, 1: true}}
	status := m.Handle(testCtx(), req(1, TaskFFT256), act)
	if status != abi.StatusBusy {
		t.Fatalf("status = %d, want Busy (Fig. 7 stage 2)", status)
	}
	if m.Stats.Busy != 1 {
		t.Error("busy outcome not counted")
	}
	if len(act.mapped) != 0 {
		t.Error("mapping performed despite Busy")
	}
}

func TestBusyRegionsNeverVictims(t *testing.T) {
	m := mgr(t)
	act := &fakeActions{busy: map[int]bool{}}
	// Fill both large PRRs with FFT tasks.
	m.Handle(testCtx(), req(1, TaskFFT256), act)
	m.NotifyLoaded(0)
	m.Handle(testCtx(), req(2, TaskFFT512), act)
	m.NotifyLoaded(1)
	// PRR0 starts executing; a request for a third FFT must take PRR1.
	act.busy = map[int]bool{0: true}
	status := abi.ReplyStatus(m.Handle(testCtx(), req(3, TaskFFT1024), act))
	if status != abi.StatusReconfig {
		t.Fatalf("status = %d", status)
	}
	if got := act.reconfigs[len(act.reconfigs)-1]; got != 1 {
		t.Errorf("victim = PRR%d, want PRR1 (PRR0 is executing)", got)
	}
}

func TestPCAPContentionReturnsBusy(t *testing.T) {
	m := mgr(t)
	act := &fakeActions{busy: map[int]bool{}, pcapBusy: true}
	status := m.Handle(testCtx(), req(1, TaskFFT256), act)
	if status != abi.StatusBusy {
		t.Errorf("status = %d, want Busy when PCAP is occupied", status)
	}
}

func TestUnknownTaskRejected(t *testing.T) {
	m := mgr(t)
	act := &fakeActions{busy: map[int]bool{}}
	if status := m.Handle(testCtx(), req(1, 999), act); status != abi.StatusInval {
		t.Errorf("unknown task status = %d, want Inval", status)
	}
}

func TestRelease(t *testing.T) {
	m := mgr(t)
	act := &fakeActions{busy: map[int]bool{}}
	m.Handle(testCtx(), req(1, TaskQAM4), act)
	m.NotifyLoaded(0)
	status := m.Handle(testCtx(), abi.Request{Kind: abi.ReqRelease, ClientID: 1, TaskID: TaskQAM4}, act)
	if status != abi.StatusOK {
		t.Fatalf("release status = %d", status)
	}
	if m.OwnerOf(0) != -1 {
		t.Error("region still owned after release")
	}
	if m.PRRs[0].TaskID != TaskQAM4 {
		t.Error("release dropped the loaded configuration (should stay for reuse)")
	}
	// Next client gets a warm hit.
	st := abi.ReplyStatus(m.Handle(testCtx(), req(2, TaskQAM4), act))
	if st != abi.StatusOK || m.Stats.Hits != 1 {
		t.Errorf("post-release allocation: status=%d hits=%d", st, m.Stats.Hits)
	}
}

func TestInstallTaskSet(t *testing.T) {
	bus, m, _ := installStore(t)
	if len(m.Tasks) != 9 {
		t.Fatalf("installed %d tasks, want 9 (6 FFT + 3 QAM)", len(m.Tasks))
	}
	// Bitstreams must decode from the store at their recorded offsets.
	for _, task := range m.Tasks {
		raw, err := bus.ReadBytes(testStorePA+physmem.Addr(task.BitstreamOff), int(task.BitstreamLen))
		if err != nil {
			t.Fatalf("%s: read: %v", task.Name, err)
		}
		bs, err := bitstream.Decode(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", task.Name, err)
		}
		if bs.TaskID != task.ID {
			t.Errorf("%s: bitstream id %d != task id %d", task.Name, bs.TaskID, task.ID)
		}
		if task.ReconfigLatency == 0 {
			t.Errorf("%s: zero reconfig latency", task.Name)
		}
	}
}

func TestExclusiveOwnership(t *testing.T) {
	// Property from §IV-C: "a hardware task can only be accessed by no
	// more than one VM at a time" — after any request sequence, each PRR
	// has at most one client.
	m := mgr(t)
	act := &fakeActions{busy: map[int]bool{}}
	tasks := []uint16{TaskQAM4, TaskQAM16, TaskFFT256, TaskQAM64, TaskFFT512}
	for i := 0; i < 40; i++ {
		client := i%4 + 1
		m.Handle(testCtx(), req(client, tasks[i%len(tasks)]), act)
		for r := range m.PRRs {
			m.NotifyLoaded(r)
		}
		owners := map[int]int{}
		for r := range m.PRRs {
			if c := m.OwnerOf(r); c >= 0 {
				owners[r] = c
			}
		}
		// each region has exactly one owner entry by construction; verify
		// a client's iface maps to at most the regions it owns
		for r, c := range owners {
			if c < 1 || c > 4 {
				t.Fatalf("iteration %d: PRR%d owned by bogus client %d", i, r, c)
			}
		}
	}
}
