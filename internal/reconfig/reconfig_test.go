package reconfig

import (
	"testing"

	"repro/internal/bitstream"
	"repro/internal/gic"
	"repro/internal/measure"
	"repro/internal/physmem"
	"repro/internal/pl"
	"repro/internal/simclock"
)

// testRig is a bare fabric + pipeline with a small synthetic catalog
// written into the bitstream store on the bus.
type testRig struct {
	clock *simclock.Clock
	bus   *physmem.Bus
	fab   *pl.Fabric
	pipe  *Pipeline
	// catalog: key (store offset) -> encoded length, one image per task.
	offs map[uint16]uint32
	lens map[uint16]uint32
}

const testStorePA = physmem.DDRBase + 0xA0_0000

func newRig(t *testing.T, cacheBytes uint32, payloadBytes int, tasks ...uint16) *testRig {
	t.Helper()
	clock := simclock.New()
	bus := physmem.NewBus()
	g := gic.New()
	caps := []bitstream.Resources{
		{LUTs: 10000, BRAM: 32, DSP: 48},
		{LUTs: 10000, BRAM: 32, DSP: 48},
	}
	fab := pl.NewFabric(clock, bus, g, caps)
	r := &testRig{
		clock: clock, bus: bus, fab: fab,
		offs: map[uint16]uint32{}, lens: map[uint16]uint32{},
	}
	off := uint32(0)
	for _, id := range tasks {
		raw := bitstream.Synthesize(id, 0, bitstream.Resources{LUTs: 100}, payloadBytes).Encode()
		if err := bus.WriteBytes(testStorePA+physmem.Addr(off), raw); err != nil {
			t.Fatal(err)
		}
		r.offs[id] = off
		r.lens[id] = uint32(len(raw))
		off += uint32(len(raw)+0xFFF) &^ 0xFFF
	}
	r.pipe = New(clock, fab, bus, testStorePA)
	r.pipe.SetCacheCapacity(cacheBytes)
	r.pipe.PrefetchOn = false
	r.pipe.Probes = measure.NewSet()
	return r
}

// request builds a demand request for task id targeting prr, recording
// completion into *done.
func (r *testRig) request(id uint16, prr, prio int, done *int) *Request {
	return &Request{
		Key: r.offs[id], SrcOff: r.offs[id], Len: r.lens[id],
		Target: prr, Priority: prio, Owner: id,
		OnDone: func(_ *Request, ok bool) {
			if ok {
				*done++
			}
		},
	}
}

func TestColdThenWarmLatency(t *testing.T) {
	r := newRig(t, 1<<20, 32<<10, 1)
	done := 0

	t0 := r.clock.Now()
	r.pipe.Submit(r.request(1, 0, 1, &done))
	r.clock.RunUntilIdle(100)
	cold := r.clock.Now() - t0
	if done != 1 {
		t.Fatalf("cold request not completed (done=%d)", done)
	}
	if r.fab.PRRs[0].Loaded == nil || r.fab.PRRs[0].Loaded.TaskID != 1 {
		t.Fatal("bitstream not configured into PRR0")
	}
	// The cold path must include the SD fetch.
	if min := SDFetchCycles(int(r.lens[1])); cold < min {
		t.Errorf("cold latency %d < SD fetch alone %d", cold, min)
	}

	t1 := r.clock.Now()
	r.pipe.Submit(r.request(1, 1, 1, &done))
	r.clock.RunUntilIdle(100)
	warm := r.clock.Now() - t1
	if done != 2 {
		t.Fatalf("warm request not completed (done=%d)", done)
	}
	if warm >= cold {
		t.Errorf("warm latency %d not below cold %d", warm, cold)
	}
	// Warm skips the SD read entirely: it should be roughly the PCAP leg.
	if warm > 2*pl.TransferCycles(int(r.lens[1])) {
		t.Errorf("warm latency %d suspiciously high (PCAP leg is %d)", warm, pl.TransferCycles(int(r.lens[1])))
	}
	if h, m := r.pipe.Cache.Stats.Hits, r.pipe.Cache.Stats.Misses; h != 1 || m != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", h, m)
	}
	// Probes recorded one sample per outcome.
	if n := r.pipe.Probes.Get(measure.PhaseReconfigCold).Count; n != 1 {
		t.Errorf("cold probe count = %d", n)
	}
	if n := r.pipe.Probes.Get(measure.PhaseReconfigWarm).Count; n != 1 {
		t.Errorf("warm probe count = %d", n)
	}
}

func TestQueueOverlapsAndPriority(t *testing.T) {
	r := newRig(t, 1<<20, 16<<10, 1, 2, 3)
	// Stage all three images so the PCAP channel is the only bottleneck.
	var done int
	for _, id := range []uint16{1, 2, 3} {
		r.pipe.Submit(r.request(id, 0, 1, &done))
		r.clock.RunUntilIdle(100)
	}
	done = 0

	order := []uint16{}
	mk := func(id uint16, prr, prio int) *Request {
		req := r.request(id, prr, prio, &done)
		req.OnDone = func(_ *Request, ok bool) {
			if ok {
				done++
				order = append(order, id)
			}
		}
		return req
	}
	// Submit three warm requests back to back: the first occupies the
	// PCAP, the other two must queue (not be rejected) and drain in
	// priority order (task 3 outranks task 2).
	r.pipe.Submit(mk(1, 0, 1))
	r.pipe.Submit(mk(2, 1, 1))
	r.pipe.Submit(mk(3, 0, 5))
	if got := r.pipe.Queue.Depth(); got != 2 {
		t.Fatalf("queue depth after burst = %d, want 2", got)
	}
	r.clock.RunUntilIdle(100)
	if done != 3 {
		t.Fatalf("completed %d of 3 queued requests", done)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 3 || order[2] != 2 {
		t.Errorf("completion order = %v, want [1 3 2] (priority drains first)", order)
	}
	if r.pipe.Queue.Stats.MaxDepth != 2 {
		t.Errorf("max queue depth = %d, want 2", r.pipe.Queue.Stats.MaxDepth)
	}
}

func TestCoalescedMissJoinsFill(t *testing.T) {
	r := newRig(t, 1<<20, 16<<10, 1)
	var done int
	r.pipe.Submit(r.request(1, 0, 1, &done))
	// Second request for the same image while the SD fill is in flight:
	// must join the fill, not start a second SD read.
	r.pipe.Submit(r.request(1, 1, 1, &done))
	r.clock.RunUntilIdle(100)
	if done != 2 {
		t.Fatalf("completed %d of 2", done)
	}
	if c := r.pipe.Cache.Stats.Coalesced; c != 1 {
		t.Errorf("coalesced = %d, want 1", c)
	}
	if tr := r.fab.PCAP.Transfers; tr != 2 {
		t.Errorf("transfers = %d, want 2 (both requests download)", tr)
	}
}

func TestLRUEvictionAndPinning(t *testing.T) {
	// Cache fits two of the three images (payload 16K -> ~16.5K each).
	r := newRig(t, 34<<10, 16<<10, 1, 2, 3)
	var done int
	for _, id := range []uint16{1, 2} {
		r.pipe.Submit(r.request(id, 0, 1, &done))
		r.clock.RunUntilIdle(100)
	}
	// Touch image 1 so image 2 is the LRU victim.
	r.pipe.Submit(r.request(1, 0, 1, &done))
	r.clock.RunUntilIdle(100)
	// Image 3 must evict image 2.
	r.pipe.Submit(r.request(3, 1, 1, &done))
	r.clock.RunUntilIdle(100)
	if r.pipe.Cache.Peek(r.offs[2]) != nil {
		t.Error("LRU image 2 still cached after eviction pressure")
	}
	if r.pipe.Cache.Peek(r.offs[1]) == nil {
		t.Error("recently-used image 1 evicted")
	}
	if r.pipe.Cache.Stats.Evictions == 0 {
		t.Error("no eviction counted")
	}
}

func TestBypassWhenImageExceedsCapacity(t *testing.T) {
	r := newRig(t, 4<<10, 16<<10, 1)
	var done int
	r.pipe.Submit(r.request(1, 0, 1, &done))
	r.clock.RunUntilIdle(100)
	if done != 1 {
		t.Fatal("bypass fetch did not complete")
	}
	if r.pipe.Cache.Stats.Bypasses != 1 {
		t.Errorf("bypasses = %d, want 1", r.pipe.Cache.Stats.Bypasses)
	}
	if r.pipe.Cache.Len() != 0 {
		t.Error("oversized image cached anyway")
	}
}

func TestBypassCompletionDoesNotStealLaterPin(t *testing.T) {
	// Regression: a bypass request (cache full of pinned entries at
	// submit time) holds no pin, so its completion must not unpin an
	// entry a later request for the same image inserted meanwhile.
	// Sequence: B's cold fill for image 2 pins the whole cache, so A's
	// request for image 1 bypasses; the instant A's download starts
	// (B has completed, its entry is unpinned), C demands image 1 —
	// evicting B's entry and inserting a fresh, pinned one for image 1.
	// A's completion used to steal C's pin; C's own completion then hit
	// the unpin panic.
	r := newRig(t, 17<<10, 16<<10, 1, 2)
	var done int
	r.pipe.Submit(r.request(2, 0, 1, &done)) // B: fills the cache
	a := r.request(1, 1, 1, &done)           // A: bypass (B's entry pinned)
	a.OnStart = func(*Request) {
		r.pipe.Submit(r.request(1, 0, 1, &done)) // C: same image as A
	}
	r.pipe.Submit(a)
	r.clock.RunUntilIdle(200)
	if done != 3 {
		t.Fatalf("completed %d of 3", done)
	}
	if r.pipe.Cache.Stats.Bypasses != 1 {
		t.Fatalf("bypasses = %d, want 1 (scenario not exercised)", r.pipe.Cache.Stats.Bypasses)
	}
	// C's entry survives with no dangling pins.
	e := r.pipe.Cache.Peek(r.offs[1])
	if e == nil {
		t.Fatal("image 1 entry lost")
	}
	if e.pins != 0 {
		t.Errorf("image 1 entry pins = %d, want 0 after all completions", e.pins)
	}
	if !r.pipe.Idle() {
		t.Error("pipeline not idle")
	}
}

func TestPrefetchFillsPredictedSuccessor(t *testing.T) {
	r := newRig(t, 1<<20, 16<<10, 1, 2)
	r.pipe.PrefetchOn = true
	var done int
	// Teach the transition 1 -> 2 on PRR0.
	for i := 0; i < 2; i++ {
		r.pipe.Submit(r.request(1, 0, 1, &done))
		r.clock.RunUntilIdle(100)
		r.pipe.Submit(r.request(2, 0, 1, &done))
		r.clock.RunUntilIdle(100)
	}
	// Evict nothing; just clear the cache to force re-learning the win.
	r.pipe.SetCacheCapacity(1 << 20)
	// A completed demand for 1 should now prefetch 2 in the idle window.
	r.pipe.Submit(r.request(1, 0, 1, &done))
	r.clock.RunUntilIdle(100)
	if r.pipe.Prefetch.Stats.Issued == 0 {
		t.Fatal("no speculative fill issued after learned transition")
	}
	e := r.pipe.Cache.Peek(r.offs[2])
	if e == nil {
		t.Fatal("predicted image 2 not staged")
	}
	// No speculative PCAP write: PRR0 still holds task 1.
	if r.fab.PRRs[0].Loaded.TaskID != 1 {
		t.Error("prefetch touched the fabric configuration")
	}
	// The demand for 2 is now a hit attributed to the prefetcher.
	before := r.pipe.Cache.Stats.Hits
	r.pipe.Submit(r.request(2, 0, 1, &done))
	r.clock.RunUntilIdle(100)
	if r.pipe.Cache.Stats.Hits != before+1 {
		t.Error("prefetched image did not produce a cache hit")
	}
	if r.pipe.Prefetch.Stats.Hits == 0 {
		t.Error("prefetch hit not attributed")
	}
}

func TestInFlightAndPendingFor(t *testing.T) {
	r := newRig(t, 1<<20, 16<<10, 1)
	var done int
	r.pipe.Submit(r.request(1, 0, 1, &done))
	if !r.pipe.InFlight(0) {
		t.Error("PRR0 not reported in flight during fill")
	}
	if r.pipe.InFlight(1) {
		t.Error("PRR1 spuriously in flight")
	}
	if !r.pipe.PendingFor(uint16(1)) {
		t.Error("owner not reported pending")
	}
	r.clock.RunUntilIdle(100)
	if r.pipe.InFlight(0) || r.pipe.PendingFor(uint16(1)) || !r.pipe.Idle() {
		t.Error("pipeline still reports work after completion")
	}
}

func TestFailedTransferCompletesPipeline(t *testing.T) {
	r := newRig(t, 1<<20, 1<<10, 1)
	// Corrupt the stored image so the PCAP decode fails.
	raw, _ := r.bus.ReadBytes(testStorePA, int(r.lens[1]))
	raw[40] ^= 0xFF
	_ = r.bus.WriteBytes(testStorePA, raw)
	failed := 0
	req := r.request(1, 0, 1, new(int))
	req.OnDone = func(_ *Request, ok bool) {
		if !ok {
			failed++
		}
	}
	r.pipe.Submit(req)
	r.clock.RunUntilIdle(100)
	if failed != 1 {
		t.Fatalf("failure callback fired %d times, want 1", failed)
	}
	if r.pipe.Stats.Failures != 1 {
		t.Errorf("failures = %d, want 1", r.pipe.Stats.Failures)
	}
	if !r.pipe.Idle() {
		t.Error("pipeline wedged after failed transfer")
	}
}

func TestSummaryAndCounters(t *testing.T) {
	r := newRig(t, 1<<20, 4<<10, 1)
	var done int
	r.pipe.Submit(r.request(1, 0, 1, &done))
	r.clock.RunUntilIdle(100)
	r.pipe.Submit(r.request(1, 1, 1, &done))
	r.clock.RunUntilIdle(100)

	if cs := r.pipe.Cache.Stats; cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("cache stats wrong: hits=%d misses=%d", cs.Hits, cs.Misses)
	}
	if n := r.pipe.Fabric.PCAP.Transfers; n != 2 {
		t.Errorf("pcap transfers = %d, want 2", n)
	}
	if s := r.pipe.Summary(); s == "" {
		t.Error("empty summary")
	}
}
