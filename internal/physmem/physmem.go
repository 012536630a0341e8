// Package physmem models the physical address space of the Zynq-7000
// processing system: DDR DRAM, on-chip memory, and memory-mapped device
// windows (GIC, timers, the PL's PRR register groups through the AXI GP
// port, the PCAP configuration interface, ...).
//
// Memory is sparse: DDR frames are allocated on first touch, so modelling
// the paper's 512 MB part costs only what the workloads actually touch.
package physmem

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
)

// Addr is a 32-bit physical address (the Zynq-7000 PS has a 4 GB map).
type Addr uint32

// Zynq-7000 physical memory map constants used across the repository.
// These mirror the technical reference manual (UG585) regions that the
// paper's platform exposes.
const (
	DDRBase Addr = 0x0010_0000 // DDR starts above the boot OCM alias
	DDRSize      = 512 << 20   // 512 MB part used in the paper

	OCMBase Addr = 0xFFFC_0000 // 256 KB on-chip memory
	OCMSize      = 256 << 10

	// AXI GP0 window: PRR controller register groups live here.
	AXIGP0Base Addr = 0x4000_0000
	AXIGP0Size      = 1 << 30

	GICDistBase Addr = 0xF8F0_1000
	GICCPUBase  Addr = 0xF8F0_0100
	PrivTimer   Addr = 0xF8F0_0600
	DevCfgBase  Addr = 0xF800_7000 // PCAP / device configuration interface
	UARTBase    Addr = 0xE000_0000
	SDIOBase    Addr = 0xE010_0000
)

// FrameShift is log2 of the sparse backing frame size (4 KB, matching the
// small-page granularity the MMU and the PRR mapping trick use).
const FrameShift = 12

// FrameSize is the sparse backing frame size in bytes.
const FrameSize = 1 << FrameShift

// Device is the interface MMIO peripherals implement. Accesses are
// word-oriented, as on the real AXI bus; off is the offset from the
// window base.
type Device interface {
	// Name identifies the device in errors and traces.
	Name() string
	// ReadReg returns the 32-bit register at off.
	ReadReg(off Addr) uint32
	// WriteReg stores the 32-bit register at off.
	WriteReg(off Addr, v uint32)
}

type window struct {
	base Addr
	size uint32
	dev  Device
}

// BusError describes an access that hit no RAM and no device window.
type BusError struct {
	Addr  Addr
	Write bool
}

func (e *BusError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("physmem: bus error on %s at %#08x", op, uint32(e.Addr))
}

// frameBuf is one 4 KB sparse backing frame.
type frameBuf [FrameSize]byte

// Bus is the physical interconnect: sparse DDR/OCM RAM plus MMIO windows.
// It is the single source of truth for physical state; the caches sit in
// front of it, the FPGA's AXI HP masters behind it.
//
// The sparse frames are kept in one flat pointer table indexed by frame
// number (1 MB of pointers for the 512 MB DDR part) rather than a map:
// the table walk issues a RAM read on every TLB miss, which made the map
// lookup one of the hottest operations in the whole simulator.
type Bus struct {
	frames  []*frameBuf  // ramFrames entries, indexed by frameNum
	touched atomic.Int64 // allocated frames, for the footprint report
	windows []window     // sorted by base

	// Copy-on-write frame sharing state (cow.go).
	cow cowTable
}

// NewBus returns an empty bus with DDR and OCM RAM available.
func NewBus() *Bus {
	return &Bus{frames: make([]*frameBuf, ramFrames)}
}

// MapDevice registers an MMIO window. Windows must not overlap each other.
func (b *Bus) MapDevice(base Addr, size uint32, dev Device) {
	for _, w := range b.windows {
		if base < w.base+Addr(w.size) && w.base < base+Addr(size) {
			panic(fmt.Sprintf("physmem: window %s overlaps %s", dev.Name(), w.dev.Name()))
		}
	}
	b.windows = append(b.windows, window{base, size, dev})
	sort.Slice(b.windows, func(i, j int) bool { return b.windows[i].base < b.windows[j].base })
}

// findWindow returns the device window containing a, or nil.
func (b *Bus) findWindow(a Addr) *window {
	i := sort.Search(len(b.windows), func(i int) bool {
		return b.windows[i].base+Addr(b.windows[i].size) > a
	})
	if i < len(b.windows) && b.windows[i].base <= a {
		return &b.windows[i]
	}
	return nil
}

// isRAM reports whether a falls in a RAM (DDR or OCM) region.
func isRAM(a Addr) bool {
	if a >= DDRBase && uint64(a) < uint64(DDRBase)+uint64(DDRSize) {
		return true
	}
	if a >= OCMBase && uint64(a) < uint64(OCMBase)+uint64(OCMSize) {
		return true
	}
	return false
}

// ramFrames is the number of RAM frames: DDR's, then OCM's.
const ramFrames = (DDRSize + OCMSize) / FrameSize

// frameNum numbers a RAM address's frame: DDR frames first, then OCM's.
// Consecutive frames of one RAM region get consecutive numbers.
func frameNum(a Addr) int {
	if a >= DDRBase && uint64(a) < uint64(DDRBase)+uint64(DDRSize) {
		return int((a - DDRBase) >> FrameShift)
	}
	return DDRSize/FrameSize + int((a-OCMBase)>>FrameShift)
}

// ramEnd returns the end of the RAM region holding a (2^32 for OCM).
func ramEnd(a Addr) uint64 {
	if a >= OCMBase {
		return uint64(OCMBase) + OCMSize
	}
	return uint64(DDRBase) + DDRSize
}

// frame returns the backing frame for a RAM address, allocating on demand.
func (b *Bus) frame(a Addr) *frameBuf {
	slot := &b.frames[frameNum(a)]
	if *slot == nil {
		// Parallel runs keep concurrent cores off shared untouched frames:
		// bytes only move through per-PD regions (disjoint guest RAM bases,
		// page-table arenas carved at construction), while kernel text and
		// data traffic is cost-only — the caches track tag state and never
		// read the bus. A plain slot store is therefore safe; only the
		// global footprint counter is shared and needs to be atomic.
		*slot = new(frameBuf)
		b.touched.Add(1)
	}
	return *slot
}

// Read32 reads a 32-bit little-endian word. RAM reads are naturally-aligned
// within a frame; device reads are dispatched to the owning window.
func (b *Bus) Read32(a Addr) (uint32, error) {
	if isRAM(a) {
		f := b.frame(a)
		off := a & (FrameSize - 1)
		if off+4 <= FrameSize {
			return binary.LittleEndian.Uint32(f[off : off+4]), nil
		}
		// straddles frames: byte-by-byte
		var v uint32
		for i := Addr(0); i < 4; i++ {
			bb, err := b.Read8(a + i)
			if err != nil {
				return 0, err
			}
			v |= uint32(bb) << (8 * i)
		}
		return v, nil
	}
	if w := b.findWindow(a); w != nil {
		return w.dev.ReadReg(a - w.base), nil
	}
	return 0, &BusError{Addr: a}
}

// Write32 writes a 32-bit little-endian word.
func (b *Bus) Write32(a Addr, v uint32) error {
	if isRAM(a) {
		f := b.frame(a)
		off := a & (FrameSize - 1)
		if off+4 <= FrameSize {
			binary.LittleEndian.PutUint32(f[off:off+4], v)
			return nil
		}
		for i := Addr(0); i < 4; i++ {
			if err := b.Write8(a+i, byte(v>>(8*i))); err != nil {
				return err
			}
		}
		return nil
	}
	if w := b.findWindow(a); w != nil {
		w.dev.WriteReg(a-w.base, v)
		return nil
	}
	return &BusError{Addr: a, Write: true}
}

// Read8 reads one byte (RAM only; device windows are word-addressed).
func (b *Bus) Read8(a Addr) (byte, error) {
	if !isRAM(a) {
		return 0, &BusError{Addr: a}
	}
	return b.frame(a)[a&(FrameSize-1)], nil
}

// Write8 writes one byte (RAM only).
func (b *Bus) Write8(a Addr, v byte) error {
	if !isRAM(a) {
		return &BusError{Addr: a, Write: true}
	}
	b.frame(a)[a&(FrameSize-1)] = v
	return nil
}

// ReadBytes copies n bytes starting at a into a fresh slice. Used by DMA
// masters (PCAP, AXI HP) that move bulk data without CPU involvement.
func (b *Bus) ReadBytes(a Addr, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		v, err := b.Read8(a + Addr(i))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// WriteBytes stores p starting at a.
func (b *Bus) WriteBytes(a Addr, p []byte) error {
	for i, v := range p {
		if err := b.Write8(a+Addr(i), v); err != nil {
			return err
		}
	}
	return nil
}

// Zero clears n bytes of RAM starting at a, allocating untouched frames
// exactly as the word writes it replaces would. It is RAM only: a range
// that leaves its DDR or OCM region writes nothing and returns a
// *BusError at the first address past RAM.
func (b *Bus) Zero(a Addr, n int) error {
	if n <= 0 {
		return nil
	}
	if !isRAM(a) {
		return &BusError{Addr: a, Write: true}
	}
	cur, end := uint64(a), uint64(a)+uint64(n)
	if re := ramEnd(a); end > re {
		return &BusError{Addr: Addr(re), Write: true}
	}
	for cur < end {
		off := cur & (FrameSize - 1)
		m := min(FrameSize-off, end-cur)
		clear(b.frame(Addr(cur))[off : off+m])
		cur += m
	}
	return nil
}

// TouchedFrames reports how many distinct 4 KB frames have been allocated;
// the footprint report uses it as the resident-memory figure.
func (b *Bus) TouchedFrames() int { return int(b.touched.Load()) }
