package physmem

import "testing"

func TestCopyFrame(t *testing.T) {
	b := NewBus()
	src := DDRBase + 0x100_0000
	dst := DDRBase + 0x101_0000
	for i := Addr(0); i < 16; i++ {
		if err := b.Write8(src+i*7, byte(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	b.CopyFrame(dst, src)
	for i := Addr(0); i < 16; i++ {
		v, _ := b.Read8(dst + i*7)
		if v != byte(i)+1 {
			t.Fatalf("dst[%d] = %#x, want %#x", i*7, v, byte(i)+1)
		}
	}
}

func TestSnapshotLoadFrame(t *testing.T) {
	b := NewBus()
	a := DDRBase + 0x102_0000
	if err := b.Write8(a+5, 0x77); err != nil {
		t.Fatal(err)
	}
	snap := b.SnapshotFrame(a + 5) // any address within the frame
	if err := b.Write8(a+5, 0); err != nil {
		t.Fatal(err)
	}
	b.LoadFrame(a, snap)
	if v, _ := b.Read8(a + 5); v != 0x77 {
		t.Fatalf("restored frame read %#x, want 0x77", v)
	}
}

// TestOCMFrameSharing shares the first on-chip memory frame into the
// last; both follow every DDR frame in the frame table and its shared
// flags. The install drops the last frame's bytes, a write through either
// frame privatizes only that frame, and the last DDR frame is never
// touched.
func TestOCMFrameSharing(t *testing.T) {
	b := NewBus()
	lastDDR := DDRBase + (DDRSize - FrameSize)
	first, last := OCMBase, OCMBase+(OCMSize-FrameSize)
	write := func(a Addr, v byte) {
		t.Helper()
		if err := b.Write8(a, v); err != nil {
			t.Fatal(err)
		}
	}
	write(first+3, 0x11)
	write(last+4, 0x99)
	b.InstallFrame(last, b.CaptureFrame(first))
	write(first, 0x22)
	write(last+1, 0x33)
	for _, r := range []struct {
		a    Addr
		want byte
	}{{first, 0x22}, {first + 1, 0}, {first + 3, 0x11}, {last, 0}, {last + 1, 0x33}, {last + 3, 0x11}, {last + 4, 0}} {
		if v, _ := b.Read8(r.a); v != r.want {
			t.Fatalf("OCM byte %#x read %#x, want %#x", uint32(r.a), v, r.want)
		}
	}
	if b.Allocated(lastDDR) || b.TouchedFrames() != 2 {
		t.Fatalf("last DDR frame allocated %v, touched %d; want false, 2", b.Allocated(lastDDR), b.TouchedFrames())
	}
	if b.Allocated(AXIGP0Base) {
		t.Fatal("device address reports a frame")
	}
}

// TestCopyZeroFrameAllocatesNothing: a COW break of a frame no one has
// written moves no bytes and allocates nothing, even onto a frame never
// touched before; the copy's first write gives it one private frame, and a
// sibling copy still reads zero.
func TestCopyZeroFrameAllocatesNothing(t *testing.T) {
	b := NewBus()
	src := DDRBase + 0x100_0000
	b.Materialize(src) // never written
	dst := src
	if allocs := testing.AllocsPerRun(100, func() {
		dst += FrameSize
		b.CopyFrame(dst, src)
	}); allocs != 0 {
		t.Fatalf("CopyFrame from a never-written frame: %v allocations, want 0", allocs)
	}
	// src and 101 copies: AllocsPerRun makes one warm-up call.
	if got := b.TouchedFrames(); got != 102 || !b.Allocated(dst) {
		t.Fatalf("touched = %d, last copy allocated %v; want 102 true", got, b.Allocated(dst))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		b.CopyFrame(dst, src)
		if err := b.Write32(dst+8, 0xC0FFEE); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("first write after a zero-frame copy: %v allocations, want 1", allocs)
	}
	if v, err := b.Read32(dst + 8); err != nil || v != 0xC0FFEE {
		t.Fatalf("written copy read %#x, %v; want 0xc0ffee", v, err)
	}
	for _, a := range []Addr{src + 8, dst - FrameSize + 8} {
		if v, err := b.Read32(a); err != nil || v != 0 {
			t.Fatalf("frame %#x read %#x, %v after a write to a sibling copy; want 0", uint32(a), v, err)
		}
	}
	if got := b.TouchedFrames(); got != 102 {
		t.Fatalf("touched = %d after the write, want 102", got)
	}
}
