// Package reconfig turns the raw PCAP device into a managed
// reconfiguration pipeline. In the paper, hardware-task switching cost is
// dominated by reconfiguration: every allocation miss pays an SD-card
// read of the .bit file plus a serial PCAP download (§IV-B/§IV-D). The
// pipeline attacks both legs:
//
//   - a bitstream cache (cache.go): a bounded DDR/OCM-resident store in
//     front of the SD path with LRU replacement and pin-while-loading
//     semantics, so repeat reconfigurations of a cached image skip the
//     SD read entirely;
//   - a PCAP request queue (queue.go): a priority-aware reconfiguration
//     scheduler that replaces the old busy-rejection, letting VMs on
//     both cores overlap compute with a pending download;
//   - a history-based prefetcher (prefetch.go): per-PRR task-transition
//     history drives speculative cache fills — never speculative PCAP
//     writes — during idle windows.
//
// The pipeline is event-driven on the shared simulated clock: Submit
// never blocks the caller (the Hardware Task Manager "does NOT wait", to
// overlap the reconfiguration overhead, §IV-E); SD fills and PCAP
// transfers complete through scheduled events and the device's
// completion hook.
package reconfig

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/measure"
	"repro/internal/physmem"
	"repro/internal/pl"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// SD-card fetch model: a class-10 card over the Zynq SDIO sustains on the
// order of 20 MB/s, so each byte costs FrequencyHz/20MB ≈ 33 cycles, plus
// a fixed command/seek setup. This is the cost a cache hit avoids; the
// PCAP leg (pl.TransferCycles, ~5 cycles/byte) is paid either way.
const (
	sdCyclesPerByte = 33
	sdSetupCycles   = 40_000 // ~60 µs command setup + FAT walk

	// cacheAdminCycles is the warm-hit bookkeeping (tag lookup + LRU
	// update in kernel data).
	cacheAdminCycles = 260

	// pcapProgramCycles covers the four strongly-ordered devcfg register
	// writes that kick one transfer.
	pcapProgramCycles = 80
)

// SDFetchCycles is the modelled latency of reading an n-byte bitstream
// image from the SD card into the staging store.
func SDFetchCycles(n int) simclock.Cycles {
	return sdSetupCycles + simclock.Cycles(n)*sdCyclesPerByte
}

// Request is one reconfiguration through the pipeline.
type Request struct {
	// Key identifies the bitstream image (its offset inside the store).
	Key uint32
	// SrcOff/Len locate the image for the PCAP leg.
	SrcOff uint32
	Len    uint32
	// Target is the destination PRR.
	Target int
	// Priority orders the PCAP queue (the client PD's scheduling
	// priority; higher wins).
	Priority int
	// Owner is an opaque client cookie (the kernel stores the PD) used
	// by PendingFor.
	Owner any
	// Flow is the trace flow id stitching this request into its causal
	// chain (the hw-task request id; 0 when untraced).
	Flow uint64

	// OnStart fires when the PCAP transfer for this request is about to
	// kick (the kernel routes the completion IRQ to the owner here).
	OnStart func(*Request)
	// OnDone fires when the transfer finished (ok reports success).
	OnDone func(*Request, bool)

	warm      bool
	submitted simclock.Cycles
	readyAt   simclock.Cycles
	seq       uint64
	// attempts counts PCAP download launches for this request (retries
	// after CRC failures, watchdog reaps, and PRR config faults).
	attempts int
	// pinned is the cache entry this request holds a pin on (nil for
	// bypass fetches). Completion releases exactly this pin — looking the
	// key up again would steal a pin from an entry inserted by a later
	// request for the same image.
	pinned *CacheEntry
}

// fill is one SD→cache staging read. entry is nil for a bypass fetch
// (image did not fit the cache); waiters are the demand requests released
// when the read lands.
type fill struct {
	key         uint32
	length      uint32
	entry       *CacheEntry
	waiters     []*Request
	speculative bool
	// flow is the trace flow id of the demand request that started the
	// fill (0 for speculative fills).
	flow uint64
	// attempts counts SD read launches (the first try plus retries).
	attempts int
	// corrupt marks the staged image poisoned (injected fault): the
	// entry is served but its PCAP download will fail CRC.
	corrupt bool
}

// Stats counts pipeline-level outcomes (cache/queue/prefetch keep their
// own). The second block is the fault-tolerance ledger: how the pipeline
// *reacted* to injected faults (the injector's own Stats count what was
// injected).
type Stats struct {
	Requests    uint64 // demand requests submitted
	Queued      uint64 // requests that waited for the PCAP channel
	Completions uint64
	Failures    uint64

	Retries         uint64 // SD or PCAP legs relaunched after a fault
	Timeouts        uint64 // stalled PCAP transfers reaped by the watchdog
	PoisonEvictions uint64 // corrupt cache entries invalidated after CRC failure
	Quarantines     uint64 // PRRs quarantined for repeated config faults
	FaultedRequests uint64 // requests failed after exhausting retries
	Purged          uint64 // requests removed by owner teardown/revocation
}

// Pipeline owns the PCAP on behalf of the kernel: all managed
// reconfigurations flow through Submit, and the device's completion hook
// drains the queue.
type Pipeline struct {
	Clock   *simclock.Clock
	Fabric  *pl.Fabric
	Bus     *physmem.Bus
	StorePA physmem.Addr

	Cache    *Cache
	Queue    *Queue
	Prefetch *Prefetcher

	// PrefetchOn gates speculative fills (history is learned regardless).
	PrefetchOn bool

	// Probes, when set, receives the reconfiguration latency samples
	// (PhaseReconfigCold / PhaseReconfigWarm / PhaseReconfigQWait).
	Probes *measure.Set

	// Trace, when set, receives the pipeline's journey events (submit,
	// fill, queue, PCAP start/done). The kernel points it at the ring of
	// the core whose goroutine runs the pipeline — the same core Clock
	// belongs to.
	Trace *trace.Ring

	// Inject, when set, is the scenario's deterministic fault plan. It
	// must only be consulted from the pipeline's own (manager-core)
	// goroutine; nil means a fault-free run and zero overhead.
	Inject *fault.Injector

	Stats Stats

	active      *Request
	fills       []*fill
	fillRunning bool

	// watchdog reaps a stalled PCAP transfer: armed at every kick for
	// ~2x the expected latency, cancelled by normal completion.
	watchdog *simclock.Event

	// prrFaults/prrQuar track per-PRR config-fault health. Indexed by
	// target PRR, grown on demand; mutated only on the pipeline
	// goroutine and read by the manager (whose Handle runs there too).
	prrFaults []int
	prrQuar   []bool
}

// New builds a pipeline over the fabric's PCAP and installs its
// completion hook. storePA is the physical base of the bitstream store.
// The pipeline has the paper platform's defaults: a 1 MiB cache (a
// fraction of the 22 MiB catalog, enough for a working set of a few
// images) with prefetching on.
func New(clock *simclock.Clock, fabric *pl.Fabric, bus *physmem.Bus, storePA physmem.Addr) *Pipeline {
	p := &Pipeline{
		Clock:      clock,
		Fabric:     fabric,
		Bus:        bus,
		StorePA:    storePA,
		Queue:      NewQueue(),
		Prefetch:   NewPrefetcher(),
		PrefetchOn: true,
	}
	p.SetCacheCapacity(1 << 20)
	fabric.PCAP.OnComplete = p.pcapComplete
	return p
}

// SetCacheCapacity replaces the cache with an empty one of the given
// budget (experiment sweeps resize before any traffic flows). A budget of
// 0 disables caching: every request pays the SD fetch.
func (p *Pipeline) SetCacheCapacity(bytes uint32) {
	p.Cache = NewCache(bytes)
	p.Cache.OnEvict = p.onEvict
}

func (p *Pipeline) onEvict(e *CacheEntry) {
	if e.speculative {
		p.Prefetch.Stats.Useless++
	}
}

// Submit accepts a demand reconfiguration. It never blocks and never
// rejects: the request proceeds through (optionally) an SD fill, then the
// PCAP queue, then the download; OnDone fires at the end.
func (p *Pipeline) Submit(r *Request) {
	r.submitted = p.Clock.Now()
	p.Stats.Requests++

	e := p.Cache.Lookup(r.Key)
	var outcome uint64 = trace.ReconfigColdMiss
	switch {
	case e != nil && !e.loading:
		// Warm hit: the image is staged; skip straight to the PCAP leg.
		outcome = trace.ReconfigWarm
		r.warm = true
		if e.speculative {
			e.speculative = false
			p.Prefetch.Stats.Hits++
		}
	case e != nil:
		// Coalesced miss: a fill for this image is already in flight.
		outcome = trace.ReconfigCoalesced
	}
	p.Trace.Emit(p.Clock.Now(), trace.KindReconfigSubmit, r.Flow, uint64(r.Key), outcome)
	p.stage(r, e)
}

// stage brings r's image to the PCAP leg from e, the cache entry for it.
// A found entry is pinned: a resident one readies r, a loading one has r
// join its fill instead of re-reading the card. With no entry, stage
// reserves a cache slot (which may evict LRU images) and reads the card;
// a nil reservation means bypass, an uncached fetch.
func (p *Pipeline) stage(r *Request, e *CacheEntry) {
	if e == nil {
		if e = p.Cache.Insert(r.Key, r.Len, false); e != nil {
			p.Cache.Pin(e)
			r.pinned = e
		}
		p.enqueueFill(&fill{key: r.Key, length: r.Len, entry: e, waiters: []*Request{r}, flow: r.Flow})
		return
	}
	p.Cache.Pin(e)
	r.pinned = e
	if !e.loading {
		if r.warm {
			p.Clock.Advance(cacheAdminCycles) // Submit's warm-hit bookkeeping
		}
		p.ready(r)
		return
	}
	// A loading entry's fill is queued or running until FillDone or
	// FillFailed clears the flag.
	f := p.fillFor(r.Key)
	if f.speculative {
		// The prefetch partially hid this fetch.
		f.speculative = false
		e.speculative = false
		p.Prefetch.Stats.Hits++
	}
	f.waiters = append(f.waiters, r)
}

// ready moves a request whose image is staged onto the PCAP channel, or
// into the queue when a transfer is in flight.
func (p *Pipeline) ready(r *Request) {
	r.readyAt = p.Clock.Now()
	if p.active == nil {
		p.start(r)
		return
	}
	p.Trace.Emit(p.Clock.Now(), trace.KindReconfigQueued, r.Flow, uint64(r.Key), 0)
	p.Queue.Push(r)
	p.Stats.Queued++
}

// start claims the PCAP channel for r and kicks its first download.
func (p *Pipeline) start(r *Request) {
	p.active = r
	if p.Probes != nil {
		p.Probes.Get(measure.PhaseReconfigQWait).Add(p.Clock.Now() - r.readyAt)
	}
	if r.OnStart != nil {
		r.OnStart(r)
	}
	p.kick(r)
}

// kick programs the devcfg registers and launches one download attempt
// (the first, or a retry after a fault). Injected PCAP faults are armed
// on the device here, and the watchdog that reaps a stalled transfer is
// set for about twice the fault-free latency.
func (p *Pipeline) kick(r *Request) {
	r.attempts++
	// A poisoned staged image always fails its CRC check; otherwise
	// consult the fault plan for this attempt's fate.
	if r.pinned != nil && r.pinned.corrupt {
		p.Fabric.PCAP.InjectFault(pl.FaultCRC)
	} else {
		out := p.Inject.PCAPStart(r.Key, r.Target)
		switch {
		case out.CRC:
			p.Trace.Emit(p.Clock.Now(), trace.KindFaultInject, r.Flow, trace.FaultPCAPCRC, uint64(r.Key))
			p.Fabric.PCAP.InjectFault(pl.FaultCRC)
		case out.Stall:
			p.Trace.Emit(p.Clock.Now(), trace.KindFaultInject, r.Flow, trace.FaultPCAPStall, uint64(r.Key))
			p.Fabric.PCAP.InjectFault(pl.FaultStall)
		}
	}
	dc := physmem.DevCfgBase
	_ = p.Bus.Write32(dc+pl.PCAPRegSrc, uint32(p.StorePA)+r.SrcOff)
	_ = p.Bus.Write32(dc+pl.PCAPRegLen, r.Len)
	_ = p.Bus.Write32(dc+pl.PCAPRegTarget, uint32(r.Target))
	_ = p.Bus.Write32(dc+pl.PCAPRegCtrl, 1)
	p.Clock.Advance(pcapProgramCycles)
	p.Trace.Emit(p.Clock.Now(), trace.KindPCAPStart, r.Flow, uint64(r.Target), uint64(r.Len))
	if p.Inject != nil {
		p.watchdog = p.Clock.After(2*pl.TransferCycles(int(r.Len))+pcapProgramCycles, func(simclock.Cycles) {
			p.watchdogFire(r)
		})
	}
}

// watchdogFire reaps a PCAP transfer that blew past twice its expected
// latency: abort the hung download and retry (or fail) the request.
func (p *Pipeline) watchdogFire(r *Request) {
	p.watchdog = nil
	if p.active != r {
		return // completed in the same instant; nothing to reap
	}
	p.Fabric.PCAP.Abort()
	p.Stats.Timeouts++
	p.retryOrFail(r)
}

// retryOrFail relaunches the active request's download with exponential
// backoff, or fails it once its retry budget is spent. The request keeps
// the channel during backoff — head-of-line, but deterministic and
// bounded. Without a fault plan there is nothing transient to outwait
// (a decode failure is structural), so the request fails immediately —
// the seed pipeline's behavior.
func (p *Pipeline) retryOrFail(r *Request) {
	if p.Inject == nil || !p.retry(r.Flow, r.Key, r.attempts) {
		p.failActive(r)
		return
	}
	p.Clock.After(backoff(r.attempts), func(simclock.Cycles) {
		if p.active == r {
			p.kick(r)
		}
	})
}

// The tolerance policy: a failed SD fill or PCAP download is retried
// after backoffBase, doubling per attempt, at most maxRetries times, and
// a PRR that takes quarantineAfter config faults leaves the placement
// pool.
const (
	backoffBase     = 50 * simclock.CyclesPerMicrosecond
	maxRetries      = 3
	quarantineAfter = 2
)

// retry reports whether a request or fill that has made attempts
// attempts may retry, and if so counts and traces the retry.
func (p *Pipeline) retry(flow uint64, key uint32, attempts int) bool {
	if attempts > maxRetries {
		return false
	}
	p.Stats.Retries++
	p.Trace.Emit(p.Clock.Now(), trace.KindReconfigRetry, flow, uint64(key), uint64(attempts))
	return true
}

// backoff returns the delay before retry n, backoffBase << (n-1); n is
// at most maxRetries.
func backoff(n int) simclock.Cycles { return backoffBase << (n - 1) }

// failActive fails the request holding the PCAP channel and drains the
// queue behind it.
func (p *Pipeline) failActive(r *Request) {
	p.active = nil
	p.Stats.FaultedRequests++
	p.finishRequest(r, false)
	if next := p.Queue.Pop(); next != nil {
		p.start(next)
	}
}

// finishRequest is the common request epilogue: release the cache pin,
// count, sample the latency probe, and fire OnDone.
func (p *Pipeline) finishRequest(r *Request, ok bool) {
	if r.pinned != nil {
		p.Cache.Unpin(r.pinned)
		r.pinned = nil
	}
	if ok {
		p.Stats.Completions++
		p.Prefetch.Observe(r.Target, r.Key, r.Len)
	} else {
		p.Stats.Failures++
	}
	if p.Probes != nil {
		phase := measure.PhaseReconfigCold
		if r.warm {
			phase = measure.PhaseReconfigWarm
		}
		p.Probes.Get(phase).Add(p.Clock.Now() - r.submitted)
	}
	if r.OnDone != nil {
		r.OnDone(r, ok)
	}
}

// pcapComplete is the device completion hook: account the finished
// request, feed the prefetcher, and drain the queue (demand work first,
// then speculative fills in the idle window). Failed downloads retry
// within their budget; a poisoned image is invalidated and re-fetched
// from the card; a completed download may still draw a transient PRR
// config fault, feeding the quarantine counter.
func (p *Pipeline) pcapComplete(target int, ok bool) {
	r := p.active
	if r == nil || r.Target != target {
		return // a transfer the pipeline did not launch (direct device use)
	}
	if p.watchdog != nil {
		p.Clock.Cancel(p.watchdog)
		p.watchdog = nil
	}
	okBit := uint64(0)
	if ok {
		okBit = 1
	}
	p.Trace.Emit(p.Clock.Now(), trace.KindPCAPDone, r.Flow, uint64(r.Target), okBit)

	if !ok {
		if r.pinned != nil && r.pinned.corrupt {
			// Poisoned image: the CRC failure is structural, not
			// transient — invalidate the entry so it can never be served
			// warm again, then re-fetch from the card (same retry
			// budget).
			p.Stats.PoisonEvictions++
			e := r.pinned
			p.Cache.Unpin(e)
			r.pinned = nil
			p.Cache.Invalidate(e)
			if !p.retry(r.Flow, r.Key, r.attempts) {
				p.failActive(r)
				return
			}
			p.refetch(r)
			return
		}
		p.retryOrFail(r)
		return
	}

	// The download landed; a transient PRR config fault can still spoil
	// the configuration. Repeated faults quarantine the region.
	if p.Inject.PRRConfig(r.Target) {
		p.Trace.Emit(p.Clock.Now(), trace.KindFaultInject, r.Flow, trace.FaultPRR, uint64(r.Target))
		p.notePRRFault(r.Target)
		if p.Quarantined(r.Target) {
			// No point retrying into a quarantined region; the manager
			// re-places the task on a healthy PRR on the client's retry.
			p.failActive(r)
			return
		}
		p.retryOrFail(r)
		return
	}

	p.active = nil
	p.finishRequest(r, true)
	if next := p.Queue.Pop(); next != nil {
		p.start(next)
		return
	}
	p.maybePrefetch(r.Key)
}

// refetch sends the active request's image back through the SD path
// after its poisoned cache entry was invalidated. The request releases
// the PCAP channel (the queue drains behind it) and rejoins via ready()
// once a fresh copy is staged. A second victim of the same poisoned
// entry may find a fresh entry (or fill) already present; stage joins it
// rather than double-inserting the key.
func (p *Pipeline) refetch(r *Request) {
	p.active = nil
	r.warm = false
	p.stage(r, p.Cache.Peek(r.Key))
	if p.active == nil {
		if next := p.Queue.Pop(); next != nil {
			p.start(next)
		}
	}
}

// notePRRFault bumps target's health counter, quarantining it at
// quarantineAfter.
func (p *Pipeline) notePRRFault(target int) {
	for len(p.prrFaults) <= target {
		p.prrFaults = append(p.prrFaults, 0)
		p.prrQuar = append(p.prrQuar, false)
	}
	p.prrFaults[target]++
	if !p.prrQuar[target] && p.prrFaults[target] >= quarantineAfter {
		p.prrQuar[target] = true
		p.Stats.Quarantines++
		p.Trace.Emit(p.Clock.Now(), trace.KindPRRQuarantine, 0, uint64(target), uint64(p.prrFaults[target]))
	}
}

// Quarantined reports whether PRR target is out of the placement pool.
// Safe wherever pipeline state is readable: the manager's Handle runs on
// the same core goroutine that mutates it.
func (p *Pipeline) Quarantined(target int) bool {
	return target < len(p.prrQuar) && p.prrQuar[target]
}

// PRRFaults returns target's accumulated config-fault count.
func (p *Pipeline) PRRFaults(target int) int {
	if target < len(p.prrFaults) {
		return p.prrFaults[target]
	}
	return 0
}

// maybePrefetch issues a speculative cache fill for the predicted
// successor of key, but only in an idle window: nothing queued, no
// transfer active, and the SD channel free.
func (p *Pipeline) maybePrefetch(key uint32) {
	if !p.PrefetchOn || p.active != nil || p.Queue.Depth() > 0 || p.fillRunning {
		return
	}
	next, length, ok := p.Prefetch.Predict(key)
	if !ok || length == 0 || p.Cache.Peek(next) != nil {
		return
	}
	e := p.Cache.Insert(next, length, true)
	if e == nil {
		return
	}
	p.Prefetch.Stats.Issued++
	p.enqueueFill(&fill{key: next, length: length, entry: e, speculative: true})
}

// enqueueFill adds an SD read to the (single-channel) fill engine. Demand
// fills jump ahead of waiting speculative ones; an in-flight read is
// never aborted.
func (p *Pipeline) enqueueFill(f *fill) {
	if f.speculative {
		p.fills = append(p.fills, f)
	} else {
		// Insert after the in-flight fill (index 0 when running) but
		// before any speculative stragglers.
		insert := 0
		if p.fillRunning {
			insert = 1
		}
		for insert < len(p.fills) && !p.fills[insert].speculative {
			insert++
		}
		p.fills = append(p.fills, nil)
		copy(p.fills[insert+1:], p.fills[insert:])
		p.fills[insert] = f
	}
	if !p.fillRunning {
		p.runFill()
	}
}

func (p *Pipeline) runFill() {
	p.fillRunning = true
	p.startRead(p.fills[0])
}

// startRead launches one SD read attempt for the fill at the head of the
// engine, consulting the fault plan for its fate: an injected error
// fails the attempt after the command setup, a stall completes it at a
// multiple of the modelled latency, and a corruption stages poisoned
// bytes that the PCAP leg will reject.
func (p *Pipeline) startRead(f *fill) {
	f.attempts++
	p.Trace.Emit(p.Clock.Now(), trace.KindFillStart, f.flow, uint64(f.key), uint64(f.length))
	out := p.Inject.SDFill(f.key)
	if out.Err {
		p.Trace.Emit(p.Clock.Now(), trace.KindFaultInject, f.flow, trace.FaultSDError, uint64(f.key))
		p.Clock.After(sdSetupCycles, func(simclock.Cycles) {
			p.fillErr(f)
		})
		return
	}
	delay := SDFetchCycles(int(f.length))
	if out.Stall {
		p.Trace.Emit(p.Clock.Now(), trace.KindFaultInject, f.flow, trace.FaultSDStall, uint64(f.key))
		delay *= simclock.Cycles(p.Inject.Config().SDStallFactor)
	}
	if out.Corrupt {
		p.Trace.Emit(p.Clock.Now(), trace.KindFaultInject, f.flow, trace.FaultCorrupt, uint64(f.key))
		f.corrupt = true
	}
	p.Clock.After(delay, func(simclock.Cycles) {
		p.fillDone(f)
	})
}

// fillErr handles a failed SD read: retry with exponential backoff while
// the budget lasts (the fill keeps the single SD channel), then fail
// every waiter and drop the placeholder entry so the cache cannot leak
// pinned garbage.
func (p *Pipeline) fillErr(f *fill) {
	if p.retry(f.flow, f.key, f.attempts) {
		p.Clock.After(backoff(f.attempts), func(simclock.Cycles) {
			p.startRead(f)
		})
		return
	}
	// Exhausted: the image cannot be staged.
	p.fills = p.fills[1:]
	p.fillRunning = false
	p.Trace.Emit(p.Clock.Now(), trace.KindFillDone, f.flow, uint64(f.key), 1)
	for _, w := range f.waiters {
		if w.pinned != nil {
			p.Cache.Unpin(w.pinned)
			w.pinned = nil
		}
		p.Stats.FaultedRequests++
		p.finishRequest(w, false)
	}
	if f.entry != nil {
		p.Cache.FillFailed(f.entry)
	}
	if !p.fillRunning && len(p.fills) > 0 {
		p.runFill()
	}
}

func (p *Pipeline) fillDone(f *fill) {
	p.fills = p.fills[1:]
	p.fillRunning = false
	p.Trace.Emit(p.Clock.Now(), trace.KindFillDone, f.flow, uint64(f.key), 0)
	if f.entry != nil {
		f.entry.corrupt = f.corrupt
		p.Cache.FillDone(f.entry)
	}
	for _, w := range f.waiters {
		p.ready(w)
	}
	// ready() can re-enter the pipeline (a waiter's OnStart may submit a
	// new request whose fill restarts the engine), so only kick the next
	// read if no one else already has.
	if !p.fillRunning && len(p.fills) > 0 {
		p.runFill()
	}
}

// fillFor returns the pending or in-flight fill for key, if any.
func (p *Pipeline) fillFor(key uint32) *fill {
	for _, f := range p.fills {
		if f.key == key {
			return f
		}
	}
	return nil
}

// PurgeOwner removes every trace of owner from the pipeline — queued
// requests, fill waiters, and the active transfer's callbacks — and
// returns how many requests it touched. The kernel calls it when the
// owning PD dies or its capabilities are revoked: purged requests
// release their cache pins and never fire OnStart/OnDone (their vGIC is
// gone); an active transfer cannot be yanked off the device, so it is
// orphaned instead — it completes on the hardware's schedule with no
// observer. Fill reads whose only waiters were purged still land (the
// staged image stays useful), they just wake nobody.
func (p *Pipeline) PurgeOwner(owner any) int {
	n := 0
	drop := func(r *Request) {
		if r.pinned != nil {
			p.Cache.Unpin(r.pinned)
			r.pinned = nil
		}
		r.OnStart, r.OnDone = nil, nil
		n++
	}
	for _, r := range p.Queue.PurgeOwner(owner) {
		drop(r)
	}
	for _, f := range p.fills {
		kept := f.waiters[:0]
		for _, w := range f.waiters {
			if w.Owner == owner {
				drop(w)
			} else {
				kept = append(kept, w)
			}
		}
		for i := len(kept); i < len(f.waiters); i++ {
			f.waiters[i] = nil
		}
		f.waiters = kept
	}
	if r := p.active; r != nil && r.Owner == owner {
		r.OnStart, r.OnDone = nil, nil
		r.Owner = nil
		n++
	}
	p.Stats.Purged += uint64(n)
	return n
}

// InFlight reports whether any demand request targeting PRR prr is still
// somewhere in the pipeline (filling, queued, or downloading). The
// Hardware Task Manager uses it to retire its Loading flags.
func (p *Pipeline) InFlight(prr int) bool {
	return p.anyDemand(func(r *Request) bool { return r.Target == prr })
}

// PendingFor reports whether owner has a request anywhere in the
// pipeline — the guest-visible "reconfiguration in progress" poll.
func (p *Pipeline) PendingFor(owner any) bool {
	return p.anyDemand(func(r *Request) bool { return r.Owner == owner })
}

func (p *Pipeline) anyDemand(pred func(*Request) bool) bool {
	if p.active != nil && pred(p.active) {
		return true
	}
	if p.Queue.any(pred) {
		return true
	}
	for _, f := range p.fills {
		for _, w := range f.waiters {
			if pred(w) {
				return true
			}
		}
	}
	return false
}

// Idle reports whether the pipeline has no demand work anywhere.
func (p *Pipeline) Idle() bool {
	return !p.anyDemand(func(*Request) bool { return true })
}

// HitRatio is the cache's demand hit ratio.
func (p *Pipeline) HitRatio() float64 { return p.Cache.HitRatio() }

// Summary renders the one-line reconfiguration report the experiment
// commands print after a sweep.
func (p *Pipeline) Summary() string {
	cs := p.Cache.Stats
	return fmt.Sprintf(
		"reconfig: pcap transfers=%d errors=%d | cache hits=%d misses=%d ratio=%.2f evictions=%d bypasses=%d | queue max=%d mean=%.2f queued=%d | prefetch issued=%d hits=%d useless=%d",
		p.Fabric.PCAP.Transfers, p.Fabric.PCAP.Errors,
		cs.Hits, cs.Misses, p.HitRatio(), cs.Evictions, cs.Bypasses,
		p.Queue.Stats.MaxDepth, p.Queue.MeanDepth(), p.Stats.Queued,
		p.Prefetch.Stats.Issued, p.Prefetch.Stats.Hits, p.Prefetch.Stats.Useless)
}
