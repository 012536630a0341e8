package checkpoint

import (
	"testing"

	"repro/internal/physmem"
)

func sampleImage() *Image {
	img := &Image{
		Priority:       1,
		CodeBase:       0x3000_0000,
		CodeSize:       64 << 10,
		VCPU:           VCPUState{DACR: 0x55, QuantumLeft: 1000, TimerPeriod: 660_000},
		TimerRemaining: 330_000,
		LastHcEntry:    123000,
		VGIC: []VGICLine{
			{IRQ: 29, Enabled: true, InService: true},
			{IRQ: 61, Enabled: true},
		},
		VGICPending: []int{29},
		Regions: []Region{
			{VA: 0x3000_0000, PA: physmem.DDRBase + 0x200_0000, Size: 1 << 20, Domain: 2},
			{VA: 0x0001_0000, PA: physmem.DDRBase + 0x210_0000, Size: 3 << 20, Domain: 1},
		},
	}
	img.VCPU.Regs.R[0] = 7
	img.VCPU.Regs.CPSR = 0x10
	return img
}

func TestFrameWalkCoversRegions(t *testing.T) {
	img := sampleImage()
	want := (1<<20 + 3<<20) / physmem.FrameSize
	if got := img.FrameCount(); got != want {
		t.Fatalf("FrameCount = %d, want %d", got, want)
	}
	n := 0
	var lastVA uint32
	img.EachFrame(func(va uint32, pa physmem.Addr) {
		if n > 0 && va <= lastVA && va != 0x0001_0000 {
			t.Fatalf("frame walk not monotone within region: %#x after %#x", va, lastVA)
		}
		lastVA = va
		n++
	})
	if n != want {
		t.Fatalf("EachFrame visited %d frames, want %d", n, want)
	}
}

func TestValidate(t *testing.T) {
	img := sampleImage()
	if err := img.Validate(); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}
	bad := sampleImage()
	bad.Regions[1].PA = bad.Regions[0].PA // overlap
	if err := bad.Validate(); err == nil {
		t.Fatal("overlapping regions accepted")
	}
	bad = sampleImage()
	bad.Regions[0].Size += 12
	if err := bad.Validate(); err == nil {
		t.Fatal("unaligned region size accepted")
	}
	bad = sampleImage()
	bad.Frames = append(bad.Frames, Frame{PA: 0x4_0000, Data: make([]byte, physmem.FrameSize)})
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-region frame accepted")
	}

	// Two 4 KB regions at one VA with distinct PAs: a fork would map the
	// VA twice and share both frames, and teardown could release only one.
	bad = sampleImage()
	bad.Regions = []Region{
		{VA: 0x0001_0000, PA: physmem.DDRBase + 0x200_0000, Size: physmem.FrameSize, Domain: 1},
		{VA: 0x0001_0000, PA: physmem.DDRBase + 0x200_1000, Size: physmem.FrameSize, Domain: 1},
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("regions at the same VA accepted")
	}
	bad = sampleImage()
	bad.Regions[0].VA = bad.Regions[1].VA + 2<<20 // inside region 1's VA range
	if err := bad.Validate(); err == nil {
		t.Fatal("partially VA-overlapping regions accepted")
	}
	bad = sampleImage()
	bad.Regions[0].VA = 0xFFF0_0000 // 1 MB region ending past 2^32
	bad.Regions[0].Size = 2 << 20
	if err := bad.Validate(); err == nil {
		t.Fatal("region wrapping past 2^32 in VA accepted")
	}
	bad = sampleImage()
	bad.Regions[0].PA = 0xFFFF_F000
	bad.Regions[0].Size = 2 * physmem.FrameSize
	if err := bad.Validate(); err == nil {
		t.Fatal("region wrapping past 2^32 in PA accepted")
	}
	bad = sampleImage()
	bad.Frames = append(bad.Frames, Frame{PA: bad.Regions[0].PA + 8, Data: make([]byte, physmem.FrameSize)})
	if err := bad.Validate(); err == nil {
		t.Fatal("unaligned captured frame accepted")
	}

	// Regions that touch end to start, in VA and in PA, are disjoint; so
	// is a region ending exactly at 2^32. Captured frames at the first and
	// last frame of a region are inside it.
	ok := sampleImage()
	ok.Regions = []Region{
		{VA: 0x0001_0000, PA: physmem.DDRBase + 0x201_0000, Size: 1 << 20, Domain: 1},
		{VA: 0x0011_0000, PA: physmem.DDRBase + 0x200_0000, Size: 64 << 10, Domain: 1},
		{VA: 0xFFF0_0000, PA: physmem.DDRBase + 0x300_0000, Size: 1 << 20, Domain: 2},
	}
	for _, pa := range []physmem.Addr{ok.Regions[0].PA, ok.Regions[1].PA + 60<<10} {
		ok.Frames = append(ok.Frames, Frame{PA: pa, Data: make([]byte, physmem.FrameSize)})
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("touching, in-range regions rejected: %v", err)
	}
}
