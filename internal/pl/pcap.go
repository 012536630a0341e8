package pl

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/gic"
	"repro/internal/physmem"
	"repro/internal/simclock"
)

// PCAP transfer rate model: the Zynq processor configuration access port
// sustains on the order of 128 MB/s through the devcfg DMA, so each byte
// costs FrequencyHz/128MiB ≈ 4.9 core cycles. The resulting latencies
// (hundreds of µs to a few ms for the paper's FFT/QAM partial bitstreams)
// match the size↔delay relation of the authors' earlier work ([17]).
const pcapCyclesPerByte = 5

// PCAP device register offsets (subset of the Zynq devcfg block).
const (
	PCAPRegCtrl   = 0x00 // write 1: start transfer with latched src/len/target
	PCAPRegSrc    = 0x08 // bitstream physical address
	PCAPRegLen    = 0x0C // bitstream byte count
	PCAPRegTarget = 0x10 // destination PRR index
	PCAPRegStatus = 0x14 // 0 idle, 1 busy, 2 done, 3 error
	PCAPRegIntSts = 0x18 // bit0 done (W1C)
)

// PCAP is the bitstream download engine. One transfer at a time; the
// completion interrupt is gic.PCAPIRQ, which Mini-NOVA routes to the VM
// that launched the transfer (§IV-D).
type PCAP struct {
	f    *Fabric
	regs map[physmem.Addr]uint32

	busy bool
	// done is the in-flight transfer's completion, owned and re-armed by
	// every kick.
	done simclock.Event
	// cur latches the in-flight transfer's parameters at kick time, so
	// register writes (or rejected starts) during the transfer cannot
	// disturb it.
	cur struct {
		src    physmem.Addr
		n      int
		target int
	}

	// OnComplete, when set, observes every finished transfer (after the
	// status registers are updated and the IRQ is raised). The
	// reconfiguration pipeline uses it to drain its request queue.
	OnComplete func(target int, ok bool)

	// armed is the one-shot fault the next kick consumes (fault
	// injection; see InjectFault).
	armed FaultKind

	// Transfers counts completed downloads; Errors counts failed ones,
	// including starts rejected while a transfer was in flight.
	Transfers uint64
	Errors    uint64
	// Aborts counts transfers cancelled through Abort (watchdog reaps).
	Aborts uint64
}

// FaultKind selects the one-shot fault InjectFault arms on the device.
type FaultKind uint8

const (
	// FaultNone clears any armed fault.
	FaultNone FaultKind = iota
	// FaultCRC makes the next transfer complete in error (CRC check
	// failure): status 3, completion IRQ raised, no configuration loaded.
	FaultCRC
	// FaultStall makes the next transfer hang: its completion is
	// scheduled pcapStallFactor× late, so a supervising watchdog must
	// Abort and restart it. If nothing reaps it, it eventually completes
	// normally — a stall, not a loss.
	FaultStall
)

// pcapStallFactor stretches a stalled transfer's completion far beyond
// any sane watchdog horizon.
const pcapStallFactor = 64

func newPCAP(f *Fabric) *PCAP {
	p := &PCAP{f: f, regs: make(map[physmem.Addr]uint32)}
	p.done.Fire = p.finish
	return p
}

// Name implements physmem.Device.
func (p *PCAP) Name() string { return "devcfg-pcap" }

// ReadReg implements physmem.Device.
func (p *PCAP) ReadReg(off physmem.Addr) uint32 { return p.regs[off] }

// WriteReg implements physmem.Device.
func (p *PCAP) WriteReg(off physmem.Addr, v uint32) {
	switch off {
	case PCAPRegCtrl:
		if v&1 != 0 {
			p.kick()
		}
	case PCAPRegIntSts:
		p.regs[PCAPRegIntSts] &^= v
	default:
		p.regs[off] = v
	}
}

// TransferCycles is the modelled latency of downloading n bytes.
func TransferCycles(n int) simclock.Cycles {
	return simclock.Cycles(n * pcapCyclesPerByte)
}

func (p *PCAP) kick() {
	if p.busy {
		// Rejected start: the in-flight transfer keeps its latched state
		// and its busy status — the stray Ctrl write is only counted.
		p.Errors++
		return
	}
	p.cur.src = physmem.Addr(p.regs[PCAPRegSrc])
	p.cur.n = int(p.regs[PCAPRegLen])
	p.cur.target = int(p.regs[PCAPRegTarget])
	p.busy = true
	p.regs[PCAPRegStatus] = 1
	delay := TransferCycles(p.cur.n)
	if p.armed == FaultStall {
		delay *= pcapStallFactor
	}
	p.f.Clock.Schedule(&p.done, p.f.Clock.Now()+delay)
}

func (p *PCAP) finish(simclock.Cycles) {
	src, n, target := p.cur.src, p.cur.n, p.cur.target
	p.busy = false
	armed := p.armed
	p.armed = FaultNone
	fail := func(err error) {
		p.Errors++
		p.regs[PCAPRegStatus] = 3
		p.regs[PCAPRegIntSts] |= 1
		p.f.GIC.Raise(gic.PCAPIRQ)
		_ = err
		if p.OnComplete != nil {
			p.OnComplete(target, false)
		}
	}
	if armed == FaultCRC {
		fail(fmt.Errorf("pcap: CRC check failed (injected)"))
		return
	}
	if target < 0 || target >= len(p.f.PRRs) {
		fail(fmt.Errorf("pcap: bad target PRR %d", target))
		return
	}
	raw, err := p.f.Bus.ReadBytes(src, n)
	if err != nil {
		fail(err)
		return
	}
	bs, err := bitstream.Decode(raw)
	if err != nil {
		fail(err)
		return
	}
	if err := p.f.LoadConfiguration(target, bs); err != nil {
		fail(err)
		return
	}
	p.Transfers++
	p.regs[PCAPRegStatus] = 2
	p.regs[PCAPRegIntSts] |= 1
	p.f.GIC.Raise(gic.PCAPIRQ)
	if p.OnComplete != nil {
		p.OnComplete(target, true)
	}
}

// Busy reports whether a transfer is in flight.
func (p *PCAP) Busy() bool { return p.busy }

// InjectFault arms a one-shot fault consumed by the next transfer (the
// fault-plan engine's hook; a real board fails on its own). Arming while
// a transfer is in flight affects that transfer's completion only for
// FaultCRC; a stall must be armed before the kick to stretch the timer.
func (p *PCAP) InjectFault(k FaultKind) { p.armed = k }

// Abort cancels the in-flight transfer without completing it: no status
// update, no IRQ, no OnComplete. The supervising pipeline uses it to
// reap a stalled transfer from its watchdog before re-kicking. A no-op
// when idle.
func (p *PCAP) Abort() {
	if !p.busy {
		return
	}
	p.f.Clock.Cancel(&p.done)
	p.busy = false
	p.armed = FaultNone
	p.regs[PCAPRegStatus] = 0
	p.Aborts++
}
