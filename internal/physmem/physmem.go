// Package physmem models the physical address space of the Zynq-7000
// processing system: DDR DRAM, on-chip memory, and memory-mapped device
// windows (GIC, timers, the PL's PRR register groups through the AXI GP
// port, the PCAP configuration interface, ...).
//
// Memory is sparse: a RAM frame is materialized on first touch, so
// modelling the paper's 512 MB part costs only what the workloads actually
// touch, and a frame no one has written shares one read-only zero buffer,
// so it costs no host memory until its first byte write. Frames may share
// other immutable buffers too (SharedFrame), on one bus or across buses: a
// frame gets a private copy at its first write, so sharing is invisible to
// the bytes.
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

// zeroFrame backs every materialized frame that no one has written. It is
// never written itself, so any number of cores may read it at once.
var zeroFrame frameBuf

// SharedFrame is an immutable 4 KB buffer that any number of frames may
// point at, on one bus or on many: CaptureFrame takes one from a frame,
// NewSharedFrame builds one from bytes, and InstallFrame points a frame
// at one. No one writes the buffer again; a frame on it gets a private
// copy at its first write, on its own bus only.
type SharedFrame struct{ buf *frameBuf }

// NewSharedFrame returns a SharedFrame holding data, at most one frame of
// it, zero-padded to the frame's end. The buffer is data's copy, so data
// may change afterwards; the frame's bytes never do.
func NewSharedFrame(data []byte) SharedFrame {
	if len(data) > FrameSize {
		panic("physmem: NewSharedFrame data exceeds a frame")
	}
	f := new(frameBuf)
	copy(f[:], data)
	return SharedFrame{f}
}

// Bus is the physical interconnect: sparse DDR/OCM RAM plus MMIO windows.
// It is the single source of truth for physical state; the caches sit in
// front of it, the FPGA's AXI HP masters behind it.
//
// The sparse frames are kept in one flat pointer table indexed by frame
// number (1 MB of pointers for the 512 MB DDR part) rather than a map:
// the table walk issues a RAM read on every TLB miss, which made the map
// lookup one of the hottest operations in the whole simulator.
type Bus struct {
	frames  []*frameBuf  // ramFrames entries, indexed by frameNum; nil until materialized
	touched atomic.Int64 // materialized frames (TouchedFrames)
	windows []window     // sorted by base

	// shared marks the frames whose buffer is a SharedFrame other than the
	// zero frame, indexed like frames. It is nil until the bus first
	// captures or installs one, so a bus that never shares pays nothing.
	// One flag per frame, not a bitmap: cores clear the flags of their own
	// frames concurrently.
	shared []bool
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

// frame and frameW return the backing frame of a RAM address, for reading
// and for writing. Either materializes an untouched frame and counts it;
// frame backs it with zeroFrame, and frameW gives a frame on zeroFrame or
// on a shared buffer a private copy before returning it. frameW takes the
// frame number (frameNum) rather than the address, which keeps it within
// the inlining budget with the shared-buffer case.
//
// Parallel runs keep concurrent cores off shared untouched frames: bytes
// only move through per-PD regions (disjoint guest RAM bases, page-table
// arenas carved at construction), while kernel text and data traffic is
// cost-only — the caches track tag state and never read the bus. A plain
// slot store is therefore safe, and so is copying a shared buffer, which
// no one writes; only the global footprint counter is shared and needs to
// be atomic.
func (b *Bus) frame(a Addr) *frameBuf {
	slot := &b.frames[frameNum(a)]
	if *slot == nil {
		*slot = &zeroFrame
		b.touched.Add(1)
	}
	return *slot
}

func (b *Bus) frameW(n int) *frameBuf {
	slot := &b.frames[n]
	switch f := *slot; {
	case f == nil:
		b.touched.Add(1)
		fallthrough
	case f == &zeroFrame:
		*slot = new(frameBuf)
	case b.shared != nil && b.shared[n]:
		*slot = new(frameBuf)
		**slot = *f
		b.shared[n] = false
	}
	return *slot
}

// setFrame points frame n at f, counting a frame it materializes; shared
// says whether f is a SharedFrame's buffer other than the zero frame.
func (b *Bus) setFrame(n int, f *frameBuf, shared bool) {
	if b.frames[n] == nil {
		b.touched.Add(1)
	}
	b.frames[n] = f
	if shared && b.shared == nil {
		b.shared = make([]bool, ramFrames)
	}
	if b.shared != nil {
		b.shared[n] = shared
	}
}

// CaptureFrame returns the buffer behind the frame containing a (RAM),
// materializing it as a read would, and freezes it: from now on the
// frame gets a private copy at its next write, so the returned buffer
// keeps the bytes the frame holds now.
func (b *Bus) CaptureFrame(a Addr) SharedFrame {
	b.Materialize(a)
	n := frameNum(a)
	f := b.frames[n]
	if f != &zeroFrame {
		b.setFrame(n, f, true)
	}
	return SharedFrame{f}
}

// InstallFrame points the frame containing a (RAM) at s's buffer: its old
// bytes are dropped, reads see s's, and its first write gives it a
// private copy. Every other frame on the buffer keeps its bytes.
func (b *Bus) InstallFrame(a Addr, s SharedFrame) {
	if !isRAM(a) {
		panic(fmt.Sprintf("physmem: install at non-RAM address %#08x", uint32(a)))
	}
	b.setFrame(frameNum(a), s.buf, s.buf != &zeroFrame)
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
		f := b.frameW(frameNum(a))
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
	b.frameW(frameNum(a))[a&(FrameSize-1)] = v
	return nil
}

// ramPrefix returns how many of the n bytes from a lie in RAM before the
// first address that does not, and the *BusError naming that address (nil
// when all n bytes are RAM). No range crosses from one RAM region into
// another: OCM ends at the top of the address space, and past it lies 0.
func ramPrefix(a Addr, n int, write bool) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	if !isRAM(a) {
		return 0, &BusError{Addr: a, Write: write}
	}
	if re := ramEnd(a); uint64(a)+uint64(n) > re {
		return int(re - uint64(a)), &BusError{Addr: Addr(re), Write: write}
	}
	return n, nil
}

// ReadBytes copies n bytes starting at a into a fresh slice (ReadInto).
func (b *Bus) ReadBytes(a Addr, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := b.ReadInto(out, a); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto fills dst with the bytes starting at a, a frame at a time.
// Used by DMA masters (PCAP, AXI HP) that move bulk data without CPU
// involvement. A range that leaves RAM returns a *BusError at its first
// non-RAM address, with its RAM prefix copied and every frame of it
// touched, as byte reads would leave them.
func (b *Bus) ReadInto(dst []byte, a Addr) error {
	m, err := ramPrefix(a, len(dst), false)
	for i := 0; i < m; {
		cur := a + Addr(i)
		i += copy(dst[i:m], b.frame(cur)[cur&(FrameSize-1):])
	}
	return err
}

// WriteBytes stores p starting at a, a frame at a time. A range that
// leaves RAM writes its RAM prefix and returns a *BusError at its first
// non-RAM address, as byte writes would.
func (b *Bus) WriteBytes(a Addr, p []byte) error {
	m, err := ramPrefix(a, len(p), true)
	for i := 0; i < m; {
		cur := a + Addr(i)
		i += copy(b.frameW(frameNum(cur))[cur&(FrameSize-1):], p[i:m])
	}
	return err
}

// Zero clears n bytes of RAM starting at a, materializing untouched frames
// exactly as the word writes it replaces would. A frame no one has written
// stays on zeroFrame, and a shared frame cleared whole moves to it; a
// private frame is cleared in place. It is RAM only: a range that leaves
// its DDR or OCM region writes nothing and returns a *BusError at the
// first address past RAM.
func (b *Bus) Zero(a Addr, n int) error {
	m, err := ramPrefix(a, n, true)
	if err != nil {
		return err
	}
	for i := 0; i < m; {
		cur := a + Addr(i)
		off := int(cur & (FrameSize - 1))
		k := min(FrameSize-off, m-i)
		switch fn := frameNum(cur); {
		case b.frame(cur) == &zeroFrame:
		case k == FrameSize && b.shared != nil && b.shared[fn]:
			b.setFrame(fn, &zeroFrame, false)
		default:
			clear(b.frameW(fn)[off : off+k])
		}
		i += k
	}
	return nil
}

// TouchedFrames reports how many distinct 4 KB frames are materialized,
// whether on a private buffer or on a shared one, the zero frame
// included.
func (b *Bus) TouchedFrames() int { return int(b.touched.Load()) }
