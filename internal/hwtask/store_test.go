package hwtask

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/nova"
	"repro/internal/physmem"
)

// testStorePA is the store address the hwtask tests install at.
const testStorePA = physmem.DDRBase + 0xA0_0000

// installStore returns a fresh bus with the paper task set installed at
// testStorePA, its manager, and the store's extent in bytes.
func installStore(t *testing.T) (*physmem.Bus, *Manager, int) {
	t.Helper()
	caps := PaperPRRCapacities()
	bus, m := physmem.NewBus(), NewManager(len(caps), 0x10_0000)
	if err := InstallTaskSet(m, bus, testStorePA, caps); err != nil {
		t.Fatal(err)
	}
	end := 0
	for _, task := range m.Tasks {
		end = max(end, int(task.BitstreamOff+task.BitstreamLen))
	}
	return bus, m, end
}

// readStore returns the first n bytes of bus's store.
func readStore(t *testing.T, bus *physmem.Bus, n int) []byte {
	t.Helper()
	raw, err := bus.ReadBytes(testStorePA, n)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// Every bus's bitstream store points at the same process-wide frames, so
// the frames must behave as if each bus had its own copy: a write lands
// on the bus it was made on and nowhere else, and a store installed after
// the write reads exactly what writing the images byte by byte would
// leave, over the same number of frames.
func TestStoreSharedAcrossBuses(t *testing.T) {
	a, m, n := installStore(t)
	b, _, _ := installStore(t)

	// The reference: the same images written into a plain bus.
	ref := physmem.NewBus()
	for _, s := range PaperTaskSet() {
		raw := bitstream.Synthesize(s.ID, s.Variant, s.Needs, s.BitLen).Encode()
		if err := ref.WriteBytes(testStorePA+physmem.Addr(m.Tasks[s.ID].BitstreamOff), raw); err != nil {
			t.Fatal(err)
		}
	}
	want := readStore(t, ref, n)
	if !bytes.Equal(readStore(t, a, n), want) {
		t.Fatal("an installed store differs from the images written byte by byte")
	}

	// Write into a's store: one word of the first FFT bitstream's payload
	// and the header of the first QAM bitstream.
	fft := testStorePA + physmem.Addr(m.Tasks[TaskFFT256].BitstreamOff) + 0x1008
	qam := testStorePA + physmem.Addr(m.Tasks[TaskQAM4].BitstreamOff)
	frames := a.TouchedFrames()
	for _, w := range []physmem.Addr{fft, qam} {
		if err := a.Write32(w, 0xDEAD_BEEF); err != nil {
			t.Fatal(err)
		}
		if v, _ := a.Read32(w); v != 0xDEAD_BEEF {
			t.Fatalf("a's store at %#x reads %#x after the write", w, v)
		}
	}
	if got := a.TouchedFrames(); got != frames {
		t.Errorf("writing into the store changed a's footprint from %d to %d frames", frames, got)
	}
	got := readStore(t, a, n)
	for _, w := range []physmem.Addr{fft, qam} {
		off := int(w - testStorePA)
		copy(got[off:off+4], want[off:off+4])
	}
	if !bytes.Equal(got, want) {
		t.Error("a write into the store changed bytes it did not write")
	}
	if !bytes.Equal(readStore(t, b, n), want) {
		t.Error("a write into one bus's store changed another bus's store")
	}

	// A store installed after the write is a fresh copy of the images.
	c, _, _ := installStore(t)
	if !bytes.Equal(readStore(t, c, n), want) {
		t.Error("a store installed after another bus's write differs from the images")
	}
	if got, want := c.TouchedFrames(), ref.TouchedFrames(); got != want {
		t.Errorf("an installed store touched %d frames, the written images %d", got, want)
	}
}

// TestBootAllocationBounded pins what BootPaperPlatform allocates on a
// fresh kernel: the fabric, the manager and its task table, the service
// PD, whose RAM grows the bus's frame table from 9,216 to 12,288 entries
// (96 KB), and the shared-frame flags, sized like that table (12 KB),
// which the store's first shared frame allocates; but no copy of the
// 1.5 MB of bitstreams, which every bus shares. Measured at 151,752 to
// 152,500 bytes per boot (averaged over 8 kernels on amd64, Go 1.24;
// 171,736 while the flags covered all of DDR). The 176 KB bound leaves
// 27 KB of headroom and sits far below one copy of the store.
func TestBootAllocationBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under -race")
	}
	const bound = 176 << 10
	paperImages() // built once per process, not per boot
	kernels := make([]*nova.Kernel, 8)
	for i := range kernels {
		kernels[i] = nova.NewKernel()
		defer kernels[i].Shutdown()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range kernels {
		BootPaperPlatform(k, 0)
	}
	runtime.ReadMemStats(&after)
	perBoot := (after.TotalAlloc - before.TotalAlloc) / uint64(len(kernels))
	t.Logf("%d bytes allocated per boot", perBoot)
	if perBoot > bound {
		t.Errorf("BootPaperPlatform allocated %d bytes, want at most %d", perBoot, bound)
	}
}
