package physmem

import "testing"

func TestShareReleaseReclaims(t *testing.T) {
	b := NewBus()
	a := DDRBase + 0x40_0000
	if err := b.Write8(a, 0xAB); err != nil {
		t.Fatal(err)
	}
	before := b.TouchedFrames()
	b.ShareRange(a, 1)
	b.ShareRange(a+8, 1) // same frame
	if got := b.Refs(a); got != 2 {
		t.Fatalf("refs = %d, want 2", got)
	}
	if rem := b.Release(a); rem != 1 {
		t.Fatalf("remaining = %d, want 1", rem)
	}
	if !b.Allocated(a) {
		t.Fatal("frame reclaimed while still referenced")
	}
	if rem := b.Release(a); rem != 0 {
		t.Fatalf("remaining = %d, want 0", rem)
	}
	if b.Allocated(a) {
		t.Fatal("unpinned frame not reclaimed at zero refs")
	}
	if got := b.TouchedFrames(); got != before-1 {
		t.Fatalf("touched = %d, want %d", got, before-1)
	}
	// A reclaimed frame reads as zero once re-touched.
	if v, _ := b.Read8(a); v != 0 {
		t.Fatalf("reclaimed frame read %#x, want 0", v)
	}
}

func TestPinnedFrameSurvivesLastRelease(t *testing.T) {
	b := NewBus()
	a := DDRBase + 0x80_0000
	if err := b.Write8(a, 0x5C); err != nil {
		t.Fatal(err)
	}
	b.Pin(a)
	b.ShareRange(a, 1)
	b.Release(a)
	if !b.Allocated(a) {
		t.Fatal("pinned frame reclaimed at zero refs")
	}
	if v, _ := b.Read8(a); v != 0x5C {
		t.Fatalf("pinned frame lost its contents: %#x", v)
	}
	b.Unpin(a)
	if b.Allocated(a) {
		t.Fatal("frame not reclaimed after unpin at zero refs")
	}
}

func TestUnpinWaitsForClones(t *testing.T) {
	b := NewBus()
	a := DDRBase + 0xC0_0000
	b.Pin(a)
	b.ShareRange(a, 1)
	b.Unpin(a)
	if !b.Allocated(a) {
		t.Fatal("frame with a live clone reference reclaimed on unpin")
	}
	if rem := b.Release(a); rem != 0 {
		t.Fatalf("remaining = %d, want 0", rem)
	}
	if b.Allocated(a) {
		t.Fatal("frame survived its last reference after unpin")
	}
}

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

// TestShareRangeAcrossChunks shares a run of frames on both sides of a
// 1 MB refcount-chunk boundary: every frame in the run gets exactly one
// reference and its neighbours none.
func TestShareRangeAcrossChunks(t *testing.T) {
	b := NewBus()
	boundary := DDRBase + 0x20_0000 // first frame of a chunk
	a := boundary - 2*FrameSize
	b.ShareRange(a, 4)
	// Every frame of the two chunks: one reference inside the run, none
	// outside it.
	for f := boundary - 1<<20; f < boundary+1<<20; f += FrameSize {
		want := 0
		if f >= a && f < a+4*FrameSize {
			want = 1
		}
		if got := b.Refs(f); got != want {
			t.Fatalf("frame %#x: refs = %d, want %d", uint32(f), got, want)
		}
		if b.Allocated(f) != (want == 1) {
			t.Fatalf("frame %#x: allocated %v, want %v", uint32(f), b.Allocated(f), want == 1)
		}
	}
	if got := b.TouchedFrames(); got != 4 {
		t.Fatalf("touched = %d, want 4", got)
	}
	for i := Addr(0); i < 4; i++ {
		if rem := b.Release(a + i*FrameSize); rem != 0 {
			t.Fatalf("frame %d: remaining = %d, want 0", i, rem)
		}
	}
	if got := b.TouchedFrames(); got != 0 {
		t.Fatalf("touched after releasing the run = %d, want 0", got)
	}
}

// TestOCMFrameSharing runs the pin/share/release cycle on the first and
// last on-chip memory frames, which follow every DDR frame in the
// refcount table.
func TestOCMFrameSharing(t *testing.T) {
	b := NewBus()
	lastDDR := DDRBase + (DDRSize - FrameSize)
	for _, a := range []Addr{OCMBase, OCMBase + (OCMSize - FrameSize)} {
		if err := b.Write8(a+3, 0x42); err != nil {
			t.Fatal(err)
		}
		b.Pin(a)
		b.ShareRange(a, 1)
		if b.Refs(a) != 1 || !b.Pinned(a) {
			t.Fatalf("OCM frame %#x: refs %d pinned %v, want 1 true", uint32(a), b.Refs(a), b.Pinned(a))
		}
		if b.Refs(lastDDR) != 0 || b.Pinned(lastDDR) || b.Allocated(lastDDR) {
			t.Fatalf("last DDR frame picked up OCM frame %#x's state", uint32(a))
		}
		b.Release(a)
		b.Unpin(a)
		if b.Allocated(a) {
			t.Fatalf("OCM frame %#x not reclaimed after unpin at zero refs", uint32(a))
		}
	}
	// Non-RAM addresses have no sharing state.
	if b.Refs(AXIGP0Base) != 0 || b.Pinned(AXIGP0Base) || b.Allocated(AXIGP0Base) {
		t.Fatal("device address reports sharing state")
	}
}

// TestReshareAfterReclaim: a reclaimed frame's entry is clear, so a new
// share starts from one reference on a fresh zero frame.
func TestReshareAfterReclaim(t *testing.T) {
	b := NewBus()
	a := DDRBase + 0x50_0000
	if err := b.Write8(a, 0x99); err != nil {
		t.Fatal(err)
	}
	b.ShareRange(a, 1)
	b.Release(a)
	if b.Allocated(a) {
		t.Fatal("frame not reclaimed")
	}
	b.ShareRange(a, 1)
	if got := b.Refs(a); got != 1 {
		t.Fatalf("refs after re-share = %d, want 1", got)
	}
	if b.Pinned(a) {
		t.Fatal("re-shared frame came back pinned")
	}
	if v, _ := b.Read8(a); v != 0 {
		t.Fatalf("re-shared frame read %#x, want 0", v)
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestRefcountMisusePanics(t *testing.T) {
	b := NewBus()
	a := DDRBase + 0x60_0000
	mustPanic(t, "release of a never-shared frame", func() { b.Release(a) })
	b.ShareRange(a, 1)
	b.Release(a)
	mustPanic(t, "over-release", func() { b.Release(a) })
	mustPanic(t, "unpin of an unpinned frame", func() { b.Unpin(a) })
	b.Pin(a)
	b.Unpin(a)
	mustPanic(t, "second unpin", func() { b.Unpin(a) })
	mustPanic(t, "share of a non-RAM range", func() { b.ShareRange(DDRBase+DDRSize-FrameSize, 2) })
}

// TestCopyZeroFrameAllocatesNothing: a COW break of a frame no one has
// written moves no bytes and allocates nothing, even onto a frame never
// touched before; the copy's first write gives it one private frame, and a
// sibling copy still reads zero.
func TestCopyZeroFrameAllocatesNothing(t *testing.T) {
	b := NewBus()
	src := DDRBase + 0x100_0000
	b.Pin(src) // materialized, never written
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
