package pl_test

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/gic"
	"repro/internal/hwtask"
	"repro/internal/physmem"
	"repro/internal/pl"
	"repro/internal/simclock"
)

// ddrEnd is the first address past DDR.
const ddrEnd = physmem.DDRBase + physmem.DDRSize

// anyFit is a region capacity every bitstream fits, so a transfer into
// such a region succeeds exactly when its bitstream checks out.
var anyFit = bitstream.Resources{LUTs: ^uint32(0), BRAM: ^uint32(0), DSP: ^uint32(0)}

// pcapRig is a bare bus with a fabric on it.
type pcapRig struct {
	clock *simclock.Clock
	bus   *physmem.Bus
	gic   *gic.GIC
	fab   *pl.Fabric
}

func newPCAPRig(capacities ...bitstream.Resources) *pcapRig {
	r := &pcapRig{clock: simclock.New(), bus: physmem.NewBus(), gic: gic.New()}
	r.fab = pl.NewFabric(r.clock, r.bus, r.gic, capacities)
	return r
}

// transfer runs one PCAP download of n bytes at src into region target
// and fires its completion, the clock's only event (an empty transfer's
// is due at once).
func (r *pcapRig) transfer(src physmem.Addr, n uint32, target int) {
	r.bus.Write32(physmem.DevCfgBase+pl.PCAPRegSrc, uint32(src))
	r.bus.Write32(physmem.DevCfgBase+pl.PCAPRegLen, n)
	r.bus.Write32(physmem.DevCfgBase+pl.PCAPRegTarget, uint32(target))
	r.bus.Write32(physmem.DevCfgBase+pl.PCAPRegCtrl, 1)
	r.clock.RunUntilIdle(1)
}

// catalogImage returns the encoded bitstream of the paper catalog's task
// called name.
func catalogImage(tb testing.TB, name string) []byte {
	tb.Helper()
	for _, s := range hwtask.PaperTaskSet() {
		if s.Name == name {
			return bitstream.Synthesize(s.ID, s.Variant, s.Needs, s.BitLen).Encode()
		}
	}
	tb.Fatalf("no catalog task %s", name)
	return nil
}

// pcapOutcome is what a transfer leaves that software or the bus can
// see: the device's counters, status and interrupt, the identity and
// needs the region loaded (it keeps no payload), the frames touched, and
// how many frames around the range the frame table covers.
type pcapOutcome struct {
	Transfers, Errors uint64
	Loaded, Payload   bool
	TaskID, Variant   uint16
	Needs             bitstream.Resources
	Status, IntSts    uint32
	IRQ               bool
	Touched, Covered  int
}

// covered counts the frames from the one before src to the one after the
// range's end that the bus's frame table covers.
func covered(bus *physmem.Bus, src physmem.Addr, n uint32) int {
	c := 0
	for a := uint64(src) - physmem.FrameSize; a <= uint64(src)+uint64(n)+physmem.FrameSize && a < 1<<32; a += physmem.FrameSize {
		if bus.Covers(physmem.Addr(a)) {
			c++
		}
	}
	return c
}

// decodeOutcome is what a transfer of n bytes at src must leave after
// image was written at src, as bitstream.Decode over Bus.ReadBytes of the
// same range decides it: a second bus holding the same image reads the
// range, and the region loads what Decode accepts. An armed FaultCRC
// fails the transfer before anything is read.
func decodeOutcome(image []byte, src physmem.Addr, n uint32, crcFault bool) pcapOutcome {
	bus := physmem.NewBus()
	bus.WriteBytes(src, image)
	o := pcapOutcome{Errors: 1, Status: 3}
	if !crcFault {
		if raw, err := bus.ReadBytes(src, int(n)); err == nil {
			if bs, err := bitstream.Decode(raw); err == nil {
				o = pcapOutcome{Transfers: 1, Loaded: true, TaskID: bs.TaskID, Variant: bs.Variant, Needs: bs.Needs, Status: 2}
			}
		}
	}
	o.IntSts, o.IRQ = 1, true
	o.Touched, o.Covered = bus.TouchedFrames(), covered(bus, src, n)
	return o
}

// pcapRun writes image at src on a fresh rig with one anyFit region, runs
// the transfer into it and returns what it left.
func pcapRun(image []byte, src physmem.Addr, n uint32, crcFault bool) pcapOutcome {
	r := newPCAPRig(anyFit)
	r.bus.WriteBytes(src, image)
	if crcFault {
		r.fab.PCAP.InjectFault(pl.FaultCRC)
	}
	r.transfer(src, n, 0)
	o := pcapOutcome{Transfers: r.fab.PCAP.Transfers, Errors: r.fab.PCAP.Errors}
	if l := r.fab.PRRs[0].Loaded; l != nil {
		o.Loaded, o.Payload = true, l.Payload != nil
		o.TaskID, o.Variant, o.Needs = l.TaskID, l.Variant, l.Needs
	}
	o.Status, _ = r.bus.Read32(physmem.DevCfgBase + pl.PCAPRegStatus)
	o.IntSts, _ = r.bus.Read32(physmem.DevCfgBase + pl.PCAPRegIntSts)
	o.IRQ = r.gic.IsPending(gic.PCAPIRQ)
	o.Touched, o.Covered = r.bus.TouchedFrames(), covered(r.bus, src, n)
	return o
}

// TestPCAPChecksInPlace runs transfers at the edges of the PCAP's check:
// each must leave what Decode over ReadBytes of the same range implies.
// The image is 5,028 bytes, so from a frame boundary its payload ends 932
// bytes into its second frame.
func TestPCAPChecksInPlace(t *testing.T) {
	img := bitstream.Synthesize(7, 1, bitstream.Resources{LUTs: 100, BRAM: 2, DSP: 3}, 5000).Encode()
	flipped := func(i int) []byte {
		c := slices.Clone(img)
		c[i] ^= 0x01
		return c
	}
	n := uint32(len(img))
	page := physmem.DDRBase + 2*physmem.FrameSize
	for _, c := range []struct {
		name     string
		image    []byte
		src      physmem.Addr
		n        uint32
		crcFault bool
		ok       bool // whether Decode accepts the range
	}{
		{"header straddles a frame boundary", img, page - 10, n, false, true},
		{"payload ends mid-frame", img, page, n, false, true},
		{"bytes past the payload", img, page, n + 5000, false, true},
		{"tail past RAM", img, ddrEnd - physmem.Addr(n) - 100, n + 200, false, false},
		{"range starts below RAM", img, physmem.DDRBase - 0x100, n, false, false},
		{"length short of the payload", img, page, n - 1, false, false},
		{"length below the header", img, page, bitstream.HeaderSize - 1, false, false},
		{"bad magic", flipped(0), page, n, false, false},
		{"CRC flip in the payload's last byte", flipped(len(img) - 1), page, n, false, false},
		{"armed FaultCRC", img, page, n, true, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := decodeOutcome(c.image, c.src, c.n, c.crcFault)
			if want.Loaded != c.ok {
				t.Fatalf("Decode accepts the range: %v, want %v", want.Loaded, c.ok)
			}
			if got := pcapRun(c.image, c.src, c.n, c.crcFault); got != want {
				t.Errorf("the transfer left\n%+v\nDecode over ReadBytes implies\n%+v", got, want)
			}
		})
	}
}

// FuzzPCAPMatchesDecode writes a fuzz-chosen image to a bus, at an offset
// within DDR's first four frames or, with nearEnd, around DDR's end, and
// runs a PCAP transfer of the image's length plus extra bytes from there.
// The transfer must leave what Decode over ReadBytes of the same range
// implies (pcapOutcome): the same accept or reject, the same decoded
// header, and the same frames touched and covered. The seeds are the
// catalog's QAM-4 and FFT-8192 images, a QAM-4 copy with a flipped CRC
// and a truncated one.
func FuzzPCAPMatchesDecode(f *testing.F) {
	qam, fft := catalogImage(f, "QAM-4"), catalogImage(f, "FFT-8192")
	badCRC := slices.Clone(qam)
	badCRC[24] ^= 0x80
	f.Add(qam, uint16(physmem.FrameSize-10), false, int16(0))
	f.Add(fft, uint16(0), false, int16(0))
	f.Add(badCRC, uint16(100), false, int16(0))
	f.Add(qam[:len(qam)/2], uint16(0), true, int16(0))
	f.Add(qam, uint16(3*physmem.FrameSize), true, int16(100))
	f.Fuzz(func(t *testing.T, image []byte, off uint16, nearEnd bool, extra int16) {
		src := physmem.DDRBase + physmem.Addr(off)%(4*physmem.FrameSize)
		if nearEnd {
			src += ddrEnd - physmem.DDRBase - 2*physmem.FrameSize - physmem.Addr(len(image))
		}
		n := uint32(max(0, len(image)+int(extra)))
		want := decodeOutcome(image, src, n, false)
		if got := pcapRun(image, src, n, false); got != want {
			t.Errorf("%d-byte transfer at %#x left\n%+v\nDecode over ReadBytes implies\n%+v", n, uint32(src), got, want)
		}
	})
}

// TestPCAPHoldsNoBitstream downloads QAM-4 and then FFT-8192 (300 KB)
// into the paper's regions and measures the live heap around them as
// nova.TestDestroyedClonesHoldLittleHeap does: the PCAP checks each
// bitstream where it sits and keeps no copy, so the heap grows by less
// than one 4 KB frame. The runtime itself now and then allocates a few KB
// between two readings, so the test keeps the least growth of three fresh
// platforms; a kept copy would show on each.
func TestPCAPHoldsNoBitstream(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under -race")
	}
	grown := int64(math.MaxInt64)
	for range 3 {
		grown = min(grown, twoTransfersHeapGrowth(t))
	}
	t.Logf("%d bytes of live heap after the two transfers", grown)
	if grown >= physmem.FrameSize {
		t.Errorf("the transfers grew the live heap by %d bytes, want under %d", grown, physmem.FrameSize)
	}
}

// TestPCAPFailureAllocatesNothing runs a transfer that an armed CRC fault
// fails and one into a region the fabric does not have: neither
// allocates.
func TestPCAPFailureAllocatesNothing(t *testing.T) {
	r := newPCAPRig(anyFit)
	img := catalogImage(t, "QAM-4")
	src, n := physmem.DDRBase, uint32(len(img))
	r.bus.WriteBytes(src, img)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"armed CRC fault", func() {
			r.fab.PCAP.InjectFault(pl.FaultCRC)
			r.transfer(src, n, 0)
		}},
		{"bad target", func() { r.transfer(src, n, 1) }},
	} {
		if a := testing.AllocsPerRun(100, c.run); a != 0 {
			t.Errorf("%s: %.1f allocs per transfer, want 0", c.name, a)
		}
	}
	if r.fab.PCAP.Transfers != 0 {
		t.Errorf("%d transfers succeeded, want every one to fail", r.fab.PCAP.Transfers)
	}
}

// twoTransfersHeapGrowth is how much the live heap grows while a fresh
// paper fabric downloads QAM-4 and then FFT-8192.
func twoTransfersHeapGrowth(t *testing.T) int64 {
	r := newPCAPRig(hwtask.PaperPRRCapacities()...)
	qamSrc, fftSrc := physmem.DDRBase, physmem.DDRBase+1<<20
	qam, fft := catalogImage(t, "QAM-4"), catalogImage(t, "FFT-8192")
	r.bus.WriteBytes(qamSrc, qam)
	r.bus.WriteBytes(fftSrc, fft)
	qamLen, fftLen := uint32(len(qam)), uint32(len(fft))
	qam, fft = nil, nil // garbage before the first reading, not between the two
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r.transfer(qamSrc, qamLen, 2)
	r.transfer(fftSrc, fftLen, 0)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if r.fab.PCAP.Transfers != 2 || r.fab.PCAP.Errors != 0 {
		t.Fatalf("transfers/errors = %d/%d, want 2/0", r.fab.PCAP.Transfers, r.fab.PCAP.Errors)
	}
	runtime.KeepAlive(r)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// BenchmarkPCAPTransfer times one download of the catalog's largest
// bitstream, FFT-8192, into a paper region: the PCAP's check of its
// header and its 300 KB payload's CRC where it sits.
func BenchmarkPCAPTransfer(b *testing.B) {
	r := newPCAPRig(hwtask.PaperPRRCapacities()...)
	fft := catalogImage(b, "FFT-8192")
	src := physmem.DDRBase
	r.bus.WriteBytes(src, fft)
	b.SetBytes(int64(len(fft)))
	b.ReportAllocs()
	for b.Loop() {
		r.transfer(src, uint32(len(fft)), 0)
	}
	if r.fab.PCAP.Errors != 0 {
		b.Fatalf("%d transfers failed", r.fab.PCAP.Errors)
	}
}
