package experiments

import (
	"reflect"
	"testing"

	"repro/internal/gic"
	"repro/internal/hwtask"
	"repro/internal/nova"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/ucos"
)

// portGuest drives every ucos.Machine method of a VirtMachine once, in an
// order the bare kernel can serve: the virtual tick is armed before Idle
// so the idle wait ends, and cancelled after it. No hardware-task service
// is registered, so the three hardware-task calls fail fast, but each is
// still one traced hypercall.
type portGuest struct {
	called map[string]bool
	done   bool
}

func (g *portGuest) RunSlice(env *nova.Env) {
	m := ucos.NewVirtMachine(env)
	steps := []struct {
		method string
		call   func()
	}{
		{"NewContext", func() { m.NewContext("t", m.TaskCodeBase(1), 4<<10) }},
		{"KernelCodeBase", func() { m.KernelCodeBase() }},
		{"TaskCodeBase", func() { m.TaskCodeBase(2) }},
		{"Now", func() { m.Now() }},
		{"SetIRQEntry", func() { m.SetIRQEntry(m.EOI) }},
		{"EnableIRQ", func() { m.EnableIRQ(gic.PrivateTimerIRQ) }},
		{"SetTickTimer", func() { m.SetTickTimer(simclock.FromMicros(100)) }},
		{"Idle", m.Idle},
		{"SetTickTimer", func() { m.SetTickTimer(0) }},
		{"DisableIRQ", func() { m.DisableIRQ(gic.PrivateTimerIRQ) }},
		{"EOI", func() { m.EOI(gic.PrivateTimerIRQ) }},
		{"CheckPreempt", m.CheckPreempt},
		{"Print", func() { m.Print("x") }},
		{"CacheFlush", m.CacheFlush},
		{"EnterUserCtx", m.EnterUserCtx},
		{"EnterKernelCtx", m.EnterKernelCtx},
		{"VMID", func() { m.VMID() }},
		{"SetupDataSection", func() { m.SetupDataSection(4 << 10) }},
		{"RequestHwTask", func() { m.RequestHwTask(hwtask.TaskQAM4) }},
		{"ReleaseHwTask", func() { m.ReleaseHwTask(hwtask.TaskQAM4) }},
		{"ReconfigStatus", func() { m.ReconfigStatus() }},
	}
	for _, s := range steps {
		s.call()
		g.called[s.method] = true
	}
	g.done = true
	for {
		env.Ctx.Exec(1000)
		env.CheckPreempt()
	}
}

// TestPortHypercallCount derives VirtHypercallsUsed from the port itself:
// every ucos.Machine method of a VirtMachine runs on a traced kernel, and
// the distinct hypercall selectors in the trace must number exactly the
// constant the footprint report prints.
func TestPortHypercallCount(t *testing.T) {
	k := nova.NewKernel()
	defer k.Shutdown()
	tr := k.EnableTrace()
	g := &portGuest{called: map[string]bool{}}
	k.CreatePD(nova.PDConfig{Name: "ucos-port", Priority: nova.PrioGuest, Guest: g})
	k.RunFor(simclock.FromMillis(2))
	if !g.done {
		t.Fatal("the port guest did not get through every Machine method")
	}
	machine := reflect.TypeFor[ucos.Machine]()
	for i := 0; i < machine.NumMethod(); i++ {
		if name := machine.Method(i).Name; !g.called[name] {
			t.Errorf("ucos.Machine.%s is not exercised", name)
		}
	}
	selectors := map[uint64]bool{}
	for _, e := range tr.Core(0).Events() {
		if e.Kind == trace.KindHypercall {
			selectors[e.A] = true
		}
	}
	if len(selectors) != VirtHypercallsUsed {
		t.Errorf("the port issues %d distinct hypercalls, VirtHypercallsUsed = %d", len(selectors), VirtHypercallsUsed)
	}
}
