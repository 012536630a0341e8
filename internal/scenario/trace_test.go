package scenario

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/abi"
	"repro/internal/nova"
	"repro/internal/simclock"
)

// The observability contract: tracing must be a pure observer. Every
// suite scenario run with tracing on at 1, 2 and 4 shards must produce
// the byte-identical state dump and checksum of its untraced run. Any
// trace emission that advances a clock, perturbs a probe, or reorders a
// cross-core effect diverges here.
func TestTraceDoesNotPerturbChecksums(t *testing.T) {
	specs := Suite(true)
	shardCounts := []int{1, 2, 4}
	type run struct {
		spec Spec
		res  Result
	}
	var runs []run
	for _, spec := range specs {
		runs = append(runs, run{spec: spec}) // untraced one-shard reference
		for _, sh := range shardCounts {
			s := spec
			s.Trace = true
			s.Shards = sh
			runs = append(runs, run{spec: s})
		}
	}
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i].res = Build(runs[i].spec).Run()
		}(i)
	}
	wg.Wait()
	for i := 0; i < len(runs); i += 1 + len(shardCounts) {
		ref := runs[i].res
		for j := 1; j <= len(shardCounts); j++ {
			got := runs[i+j].res
			shards := runs[i+j].spec.Shards
			if got.TraceEvents == 0 {
				t.Errorf("%s: traced run (shards=%d) emitted no events", ref.Name, shards)
			}
			if got.Checksum != ref.Checksum {
				t.Errorf("%s: traced shards=%d checksum %016x != untraced %016x\nflight recorder:\n%s",
					ref.Name, shards, got.Checksum, ref.Checksum, got.Trace.FlightDump(64))
				continue
			}
			if got.Detail != ref.Detail {
				t.Errorf("%s: traced shards=%d state dump diverged with equal checksum (hash collision?)",
					ref.Name, shards)
			}
		}
	}
}

// A traced reconfig-thrash run must export valid Chrome-trace JSON
// containing at least one complete causal span chain — client hypercall
// span, PCAP download start, completion IRQ — stitched by one flow id
// across both cores (clients live on core 0, the manager on core 1).
func TestReconfigTraceCausalChain(t *testing.T) {
	spec, ok := FindSpec("reconfig-thrash", true)
	if !ok {
		t.Fatal("reconfig-thrash spec missing")
	}
	spec.Trace = true
	spec.Shards = 2
	res := Build(spec).Run()
	if res.Trace == nil {
		t.Fatal("traced run returned no tracer")
	}
	raw, err := res.Trace.ChromeJSON()
	if err != nil {
		t.Fatalf("ChromeJSON: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	// Collect, per flow id, which chain stages appeared and on which cores.
	type chain struct {
		hwreq, pcap, irq bool
		tids             map[int]bool
	}
	chains := map[float64]*chain{}
	for _, e := range doc.TraceEvents {
		flow, ok := e.Args["flow"].(float64)
		if !ok {
			continue
		}
		c := chains[flow]
		if c == nil {
			c = &chain{tids: map[int]bool{}}
			chains[flow] = c
		}
		c.tids[e.TID] = true
		switch {
		case strings.HasPrefix(e.Name, "hwreq#") && e.Ph == "X":
			c.hwreq = true
		case strings.HasPrefix(e.Name, "pcap_start"):
			c.pcap = true
		case e.Name == "completion_irq":
			c.irq = true
		}
	}
	for _, c := range chains {
		if c.hwreq && c.pcap && c.irq && len(c.tids) >= 2 {
			return // found a complete cross-core chain
		}
	}
	t.Fatalf("no complete causal chain (hwreq span + pcap_start + completion_irq across >=2 cores) among %d flows\nflight recorder:\n%s",
		len(chains), res.Trace.FlightDump(48))
}

const guestFault = "guest hypercall fault"

// faultyGuest does nothing but issue hypercalls, after arming a clock
// event that panics a few dozen of them later: only the SWI path moves
// the clock, so the panic is raised inside a hypercall, on the guest's
// own coroutine.
type faultyGuest struct{}

func (faultyGuest) RunSlice(env *nova.Env) {
	env.K.Clock.After(20_000, func(simclock.Cycles) { panic(guestFault) })
	for {
		env.Hypercall(abi.HcVMID)
	}
}

// A panic raised on the guest side of a hypercall must surface from
// System.Run — not crash the process from the guest's goroutine — with
// its original value and the flight-recorder dump attached.
func TestGuestPanicReachesFlightRecorder(t *testing.T) {
	sys := Build(Spec{Name: "guest-panic", RunMs: 1, Trace: true})
	defer sys.Kernel.Shutdown()
	sys.Kernel.CreatePD(nova.PDConfig{Name: "faulty", Priority: nova.PrioGuest, Guest: faultyGuest{}})

	var got any
	func() {
		defer func() { got = recover() }()
		sys.Run()
	}()
	msg, ok := got.(string)
	if !ok {
		t.Fatalf("System.Run raised %v (%T), want the flight-recorder report", got, got)
	}
	if !strings.HasPrefix(msg, guestFault+"\n") {
		t.Errorf("report does not lead with the original panic value:\n%s", msg)
	}
	if !strings.Contains(msg, "flight recorder (last events per core)") || !strings.Contains(msg, "hc:vmid") {
		t.Errorf("report lacks the flight-recorder dump of the guest's hypercalls:\n%s", msg)
	}
}
