package reconfig

import (
	"testing"

	"repro/internal/fault"
)

// findSeed scans for a seed whose decision stream matches pattern — the
// deterministic way to pin "fails once, then succeeds" shapes without
// hardcoding whitener internals into the tests.
func findSeed(t *testing.T, cfg fault.Config, pattern func(in *fault.Injector) bool) uint32 {
	t.Helper()
	for s := uint32(1); s < 50_000; s++ {
		c := cfg
		c.Seed = s
		if pattern(fault.New(c)) {
			return s
		}
	}
	t.Fatal("no seed produces the wanted fault pattern")
	return 0
}

// TestFailedFillUnpinsAndEvicts is the pin-while-loading regression: an
// SD fill that exhausts its retries must unpin and remove its
// placeholder entry — the cache previously kept a pinned, loading entry
// forever, leaking its reservation.
func TestFailedFillUnpinsAndEvicts(t *testing.T) {
	r := newRig(t, 1<<20, 8<<10, 1)
	r.pipe.Inject = fault.New(fault.Config{Seed: 3, SDErrorPermille: 1000})
	var ok, failed int
	req := r.request(1, 0, 1, &ok)
	req.OnDone = func(_ *Request, good bool) {
		if !good {
			failed++
		}
	}
	r.pipe.Submit(req)
	r.clock.RunUntilIdle(500)
	if failed != 1 {
		t.Fatalf("failure callback fired %d times, want 1", failed)
	}
	if r.pipe.Stats.Retries != maxRetries {
		t.Errorf("retries = %d, want maxRetries = %d", r.pipe.Stats.Retries, maxRetries)
	}
	if r.pipe.Stats.FaultedRequests != 1 {
		t.Errorf("faulted requests = %d, want 1", r.pipe.Stats.FaultedRequests)
	}
	if n := r.pipe.Cache.Len(); n != 0 {
		t.Errorf("cache holds %d entries after failed fill, want 0 (pinned-garbage leak)", n)
	}
	if r.pipe.Cache.Used() != 0 {
		t.Errorf("cache charges %d bytes after failed fill", r.pipe.Cache.Used())
	}
	if r.pipe.Cache.Stats.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", r.pipe.Cache.Stats.Invalidations)
	}
	if !r.pipe.Idle() {
		t.Error("pipeline wedged after exhausted fill")
	}
}

// TestSDErrorRetriesThenSucceeds: a transient SD error is outwaited by
// the backoff loop and the request still completes.
func TestSDErrorRetriesThenSucceeds(t *testing.T) {
	cfg := fault.Config{SDErrorPermille: 400}
	seed := findSeed(t, cfg, func(in *fault.Injector) bool {
		return in.SDFill(0).Err && !in.SDFill(0).Err
	})
	cfg.Seed = seed
	r := newRig(t, 1<<20, 8<<10, 1)
	r.pipe.Inject = fault.New(cfg)
	var done int
	r.pipe.Submit(r.request(1, 0, 1, &done))
	r.clock.RunUntilIdle(500)
	if done != 1 {
		t.Fatalf("request did not recover from transient SD error (done=%d)", done)
	}
	if r.pipe.Stats.Retries != 1 {
		t.Errorf("retries = %d, want 1", r.pipe.Stats.Retries)
	}
	if r.pipe.Inject.Stats.SDErrors != 1 {
		t.Errorf("injected SD errors = %d, want 1", r.pipe.Inject.Stats.SDErrors)
	}
	if e := r.pipe.Cache.Peek(r.offs[1]); e == nil || e.Loading() || e.pins != 0 {
		t.Error("image not cleanly resident after recovered fill")
	}
}

// TestSDStallStretchesFill: a stalled read completes, just late.
func TestSDStallStretchesFill(t *testing.T) {
	cfg := fault.Config{SDStallPermille: 500}
	seed := findSeed(t, cfg, func(in *fault.Injector) bool {
		return in.SDFill(0).Stall
	})
	cfg.Seed = seed
	r := newRig(t, 1<<20, 8<<10, 1)
	r.pipe.Inject = fault.New(cfg)
	var done int
	t0 := r.clock.Now()
	r.pipe.Submit(r.request(1, 0, 1, &done))
	r.clock.RunUntilIdle(500)
	if done != 1 {
		t.Fatalf("stalled fill never completed (done=%d)", done)
	}
	// The stall multiplies the SD leg by SDStallFactor (default 4).
	if lat := r.clock.Now() - t0; lat < 4*SDFetchCycles(int(r.lens[1])) {
		t.Errorf("latency %d below the stalled SD leg %d", lat, 4*SDFetchCycles(int(r.lens[1])))
	}
	if r.pipe.Inject.Stats.SDStalls != 1 {
		t.Errorf("injected stalls = %d, want 1", r.pipe.Inject.Stats.SDStalls)
	}
}

// TestPoisonedEntryInvalidatedAndRefetched: a corrupt staged image fails
// its download CRC, must leave the cache immediately (never served warm
// again), and the request recovers through a fresh SD fetch.
func TestPoisonedEntryInvalidatedAndRefetched(t *testing.T) {
	cfg := fault.Config{CorruptPermille: 400}
	seed := findSeed(t, cfg, func(in *fault.Injector) bool {
		return in.SDFill(0).Corrupt && !in.SDFill(0).Corrupt
	})
	cfg.Seed = seed
	r := newRig(t, 1<<20, 8<<10, 1)
	r.pipe.Inject = fault.New(cfg)
	var done int
	r.pipe.Submit(r.request(1, 0, 1, &done))
	r.clock.RunUntilIdle(500)
	if done != 1 {
		t.Fatalf("request did not recover from poisoned image (done=%d)", done)
	}
	if r.pipe.Stats.PoisonEvictions != 1 {
		t.Errorf("poison evictions = %d, want 1", r.pipe.Stats.PoisonEvictions)
	}
	if r.pipe.Cache.Stats.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", r.pipe.Cache.Stats.Invalidations)
	}
	// The CRC failure registered on the device, and the re-download
	// succeeded.
	if r.fab.PCAP.Errors == 0 || r.fab.PCAP.Transfers == 0 {
		t.Errorf("device errors=%d transfers=%d, want both nonzero", r.fab.PCAP.Errors, r.fab.PCAP.Transfers)
	}
	// The resident copy is the clean refetch.
	if e := r.pipe.Cache.Peek(r.offs[1]); e == nil || e.Corrupt() || e.pins != 0 {
		t.Error("clean refetched image not resident after recovery")
	}
}

// TestPCAPCRCRetries: a transient download CRC failure is retried on the
// same staged image (no refetch) and succeeds.
func TestPCAPCRCRetries(t *testing.T) {
	cfg := fault.Config{PCAPCRCPermille: 400}
	seed := findSeed(t, cfg, func(in *fault.Injector) bool {
		return in.PCAPStart(0, 0).CRC && !in.PCAPStart(0, 0).CRC
	})
	cfg.Seed = seed
	r := newRig(t, 1<<20, 8<<10, 1)
	r.pipe.Inject = fault.New(cfg)
	var done int
	r.pipe.Submit(r.request(1, 0, 1, &done))
	r.clock.RunUntilIdle(500)
	if done != 1 {
		t.Fatalf("request did not recover from CRC failure (done=%d)", done)
	}
	if r.pipe.Stats.Retries != 1 {
		t.Errorf("retries = %d, want 1", r.pipe.Stats.Retries)
	}
	if r.fab.PCAP.Errors != 1 || r.fab.PCAP.Transfers != 1 {
		t.Errorf("device errors=%d transfers=%d, want 1/1", r.fab.PCAP.Errors, r.fab.PCAP.Transfers)
	}
	// The staged image was fine — no invalidation, still resident.
	if r.pipe.Cache.Stats.Invalidations != 0 {
		t.Errorf("invalidations = %d, want 0 for a transient CRC fault", r.pipe.Cache.Stats.Invalidations)
	}
}

// TestPCAPStallReapedByWatchdog: a hung transfer is aborted by the
// pipeline watchdog and re-downloaded.
func TestPCAPStallReapedByWatchdog(t *testing.T) {
	cfg := fault.Config{PCAPStallPermille: 400}
	seed := findSeed(t, cfg, func(in *fault.Injector) bool {
		return in.PCAPStart(0, 0).Stall && !in.PCAPStart(0, 0).Stall
	})
	cfg.Seed = seed
	r := newRig(t, 1<<20, 8<<10, 1)
	r.pipe.Inject = fault.New(cfg)
	var done int
	r.pipe.Submit(r.request(1, 0, 1, &done))
	r.clock.RunUntilIdle(500)
	if done != 1 {
		t.Fatalf("request did not recover from stalled transfer (done=%d)", done)
	}
	if r.pipe.Stats.Timeouts != 1 {
		t.Errorf("watchdog timeouts = %d, want 1", r.pipe.Stats.Timeouts)
	}
	if r.fab.PCAP.Aborts != 1 {
		t.Errorf("device aborts = %d, want 1", r.fab.PCAP.Aborts)
	}
	if r.pipe.Stats.Retries != 1 {
		t.Errorf("retries = %d, want 1", r.pipe.Stats.Retries)
	}
}

// TestPRRQuarantine: repeated config faults on one PRR quarantine it and
// fail the request instead of retrying forever.
func TestPRRQuarantine(t *testing.T) {
	r := newRig(t, 1<<20, 8<<10, 1)
	r.pipe.Inject = fault.New(fault.Config{Seed: 11, PRRFaultPermille: 1000})
	var ok, failed int
	req := r.request(1, 0, 1, &ok)
	req.OnDone = func(_ *Request, good bool) {
		if !good {
			failed++
		}
	}
	r.pipe.Submit(req)
	r.clock.RunUntilIdle(500)
	if failed != 1 {
		t.Fatalf("request against always-faulting PRR: failed=%d, want 1", failed)
	}
	if !r.pipe.Quarantined(0) {
		t.Error("PRR0 not quarantined after repeated config faults")
	}
	if r.pipe.Quarantined(1) {
		t.Error("healthy PRR1 quarantined")
	}
	if r.pipe.Stats.Quarantines != 1 {
		t.Errorf("quarantines = %d, want 1", r.pipe.Stats.Quarantines)
	}
	if r.pipe.PRRFaults(0) != quarantineAfter {
		t.Errorf("PRR0 fault count = %d, want quarantineAfter = %d", r.pipe.PRRFaults(0), quarantineAfter)
	}
	if !r.pipe.Idle() {
		t.Error("pipeline wedged after quarantine failure")
	}
}

// TestPurgeOwner: teardown removes an owner's queued requests and fill
// waiters, releases their pins, and orphans (but does not abort) its
// active transfer.
func TestPurgeOwner(t *testing.T) {
	r := newRig(t, 1<<20, 8<<10, 1, 2)
	var stage int
	r.pipe.Submit(r.request(2, 0, 1, &stage)) // stage image 2
	r.clock.RunUntilIdle(200)

	type owner struct{ name string }
	x, y := &owner{"x"}, &owner{"y"}
	var fired int
	mk := func(id uint16, o *owner, prr int) *Request {
		req := r.request(id, prr, 1, new(int))
		req.Owner = o
		req.OnDone = func(*Request, bool) { fired++ }
		return req
	}
	r.pipe.Submit(mk(2, y, 0)) // warm: takes the PCAP channel
	r.pipe.Submit(mk(2, x, 1)) // warm: queued behind y
	r.pipe.Submit(mk(1, x, 1)) // cold: waiter on image 1's fill
	if !r.pipe.PendingFor(x) {
		t.Fatal("x not pending before purge")
	}
	if n := r.pipe.PurgeOwner(x); n != 2 {
		t.Fatalf("purged %d requests, want 2 (one queued, one fill waiter)", n)
	}
	if r.pipe.PendingFor(x) {
		t.Error("x still pending after purge")
	}
	if r.pipe.Stats.Purged != 2 {
		t.Errorf("Stats.Purged = %d, want 2", r.pipe.Stats.Purged)
	}
	r.clock.RunUntilIdle(500)
	if fired != 1 {
		t.Errorf("OnDone fired %d times, want 1 (y only; purged requests stay silent)", fired)
	}
	// The fill for image 1 still landed (the staged image remains
	// useful) with no dangling pins anywhere.
	for _, id := range []uint16{1, 2} {
		e := r.pipe.Cache.Peek(r.offs[id])
		if e == nil {
			t.Fatalf("image %d not resident after purge", id)
		}
		if e.pins != 0 || e.Loading() {
			t.Errorf("image %d: pins=%d loading=%v, want clean resident", id, e.pins, e.Loading())
		}
	}
	if !r.pipe.Idle() {
		t.Error("pipeline not idle after purge and drain")
	}
}

// TestFaultPipelineDeterministic: the same fault plan over the same
// traffic yields byte-identical stats and device counters.
func TestFaultPipelineDeterministic(t *testing.T) {
	run := func() (Stats, fault.Stats, uint64, uint64) {
		r := newRig(t, 48<<10, 8<<10, 1, 2, 3)
		r.pipe.Inject = fault.New(fault.Config{
			Seed: 99, SDErrorPermille: 150, SDStallPermille: 100, CorruptPermille: 120,
			PCAPCRCPermille: 150, PCAPStallPermille: 80, PRRFaultPermille: 120,
		})
		var done int
		for i := 0; i < 30; i++ {
			id := uint16(1 + i%3)
			r.pipe.Submit(r.request(id, i%2, 1, &done))
			r.clock.RunUntilIdle(2000)
		}
		return r.pipe.Stats, r.pipe.Inject.Stats, r.fab.PCAP.Transfers, r.fab.PCAP.Errors
	}
	s1, i1, t1, e1 := run()
	s2, i2, t2, e2 := run()
	if s1 != s2 || i1 != i2 || t1 != t2 || e1 != e2 {
		t.Fatalf("fault pipeline diverged:\n%+v %+v %d %d\n%+v %+v %d %d", s1, i1, t1, e1, s2, i2, t2, e2)
	}
	if i1.Total() == 0 {
		t.Fatal("plan injected nothing over 30 requests — rates too low for the test to mean anything")
	}
}
