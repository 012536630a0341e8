package physmem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRAMRoundTrip32(t *testing.T) {
	b := NewBus()
	addrs := []Addr{DDRBase, DDRBase + 4, DDRBase + 0x1000, OCMBase, OCMBase + 0x100}
	for i, a := range addrs {
		want := uint32(0xDEAD0000 + i)
		if err := b.Write32(a, want); err != nil {
			t.Fatalf("Write32(%#x): %v", a, err)
		}
		got, err := b.Read32(a)
		if err != nil {
			t.Fatalf("Read32(%#x): %v", a, err)
		}
		if got != want {
			t.Errorf("Read32(%#x) = %#x, want %#x", a, got, want)
		}
	}
}

func TestRAMZeroInitialized(t *testing.T) {
	b := NewBus()
	v, err := b.Read32(DDRBase + 0x2345_0 & ^Addr(3))
	if err != nil || v != 0 {
		t.Errorf("fresh RAM read = %#x,%v, want 0,nil", v, err)
	}
}

func TestFrameStraddle(t *testing.T) {
	b := NewBus()
	a := DDRBase + FrameSize - 2 // word crosses frame boundary
	if err := b.Write32(a, 0x11223344); err != nil {
		t.Fatalf("straddling write: %v", err)
	}
	got, err := b.Read32(a)
	if err != nil || got != 0x11223344 {
		t.Errorf("straddling read = %#x,%v want 0x11223344,nil", got, err)
	}
}

func TestBusErrorOnHole(t *testing.T) {
	b := NewBus()
	hole := Addr(0xF000_0000) // no RAM, no device
	if _, err := b.Read32(hole); err == nil {
		t.Error("read from hole succeeded, want BusError")
	}
	if err := b.Write32(hole, 1); err == nil {
		t.Error("write to hole succeeded, want BusError")
	}
	be, ok := func() (e *BusError, ok bool) {
		err := b.Write32(hole, 1)
		e, ok = err.(*BusError)
		return
	}()
	if !ok || !be.Write || be.Addr != hole {
		t.Errorf("BusError fields wrong: %+v ok=%v", be, ok)
	}
}

type fakeDev struct {
	name string
	regs map[Addr]uint32
	log  []Addr
}

func (d *fakeDev) Name() string { return d.name }
func (d *fakeDev) ReadReg(off Addr) uint32 {
	d.log = append(d.log, off)
	return d.regs[off]
}
func (d *fakeDev) WriteReg(off Addr, v uint32) { d.regs[off] = v }

func TestDeviceDispatch(t *testing.T) {
	b := NewBus()
	d := &fakeDev{name: "uart", regs: map[Addr]uint32{}}
	b.MapDevice(UARTBase, 0x1000, d)
	if err := b.Write32(UARTBase+0x30, 0x55); err != nil {
		t.Fatalf("device write: %v", err)
	}
	v, err := b.Read32(UARTBase + 0x30)
	if err != nil || v != 0x55 {
		t.Errorf("device read = %#x,%v want 0x55,nil", v, err)
	}
	if len(d.log) != 1 || d.log[0] != 0x30 {
		t.Errorf("device saw offsets %v, want [0x30]", d.log)
	}
}

func TestOverlappingWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overlapping MapDevice did not panic")
		}
	}()
	b := NewBus()
	b.MapDevice(UARTBase, 0x1000, &fakeDev{name: "a", regs: map[Addr]uint32{}})
	b.MapDevice(UARTBase+0x800, 0x1000, &fakeDev{name: "b", regs: map[Addr]uint32{}})
}

func TestBulkBytes(t *testing.T) {
	b := NewBus()
	payload := make([]byte, 3*FrameSize+17)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	base := DDRBase + 0x100
	if err := b.WriteBytes(base, payload); err != nil {
		t.Fatalf("WriteBytes: %v", err)
	}
	got, err := b.ReadBytes(base, len(payload))
	if err != nil {
		t.Fatalf("ReadBytes: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("bulk round-trip mismatch")
	}
}

func TestSparseAllocation(t *testing.T) {
	b := NewBus()
	if b.TouchedFrames() != 0 {
		t.Fatalf("fresh bus has %d frames", b.TouchedFrames())
	}
	_ = b.Write32(DDRBase, 1)
	_ = b.Write32(DDRBase+100<<20, 1)
	if got := b.TouchedFrames(); got != 2 {
		t.Errorf("TouchedFrames = %d, want 2", got)
	}
}

// Property: any word written to any valid DDR address reads back identically.
func TestPropertyWordRoundTrip(t *testing.T) {
	b := NewBus()
	f := func(off uint32, v uint32) bool {
		a := DDRBase + Addr(off%(64<<20))
		if err := b.Write32(a, v); err != nil {
			return false
		}
		got, err := b.Read32(a)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestZeroMatchesWordWrites: Zero over a word-aligned range allocates the
// same frames and leaves the same bytes as the Write32 loop it replaces.
func TestZeroMatchesWordWrites(t *testing.T) {
	cases := []struct {
		a Addr
		n int
	}{
		{DDRBase + 0x10_0000, 16 << 10},      // whole frames
		{DDRBase + 0x10_0400, 1 << 10},       // inside one frame
		{DDRBase + 0x10_0F00, FrameSize},     // straddles two frames
		{OCMBase + (OCMSize - 0x100), 0x100}, // ends at the top of RAM
		{DDRBase + DDRSize - 2*FrameSize, 8}, // small, near DDR's end
	}
	for _, tc := range cases {
		words, zero := NewBus(), NewBus()
		for i := 0; i < tc.n; i += 4 {
			if err := words.Write32(tc.a+Addr(i), 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := zero.Zero(tc.a, tc.n); err != nil {
			t.Fatalf("Zero(%#x, %d): %v", tc.a, tc.n, err)
		}
		if words.TouchedFrames() != zero.TouchedFrames() {
			t.Fatalf("Zero(%#x, %d): touched %d frames, word writes %d",
				tc.a, tc.n, zero.TouchedFrames(), words.TouchedFrames())
		}
		for a := uint64(frameBase(tc.a)); a < uint64(tc.a)+uint64(tc.n); a += FrameSize {
			if words.Allocated(Addr(a)) != zero.Allocated(Addr(a)) {
				t.Fatalf("Zero(%#x, %d): frame %#x allocated %v, word writes %v",
					tc.a, tc.n, a, zero.Allocated(Addr(a)), words.Allocated(Addr(a)))
			}
		}
	}
}

// TestZeroClearsOnlyItsRange: inside a partial frame, the bytes on both
// sides of the range survive.
func TestZeroClearsOnlyItsRange(t *testing.T) {
	b := NewBus()
	a := DDRBase + 0x20_0000
	fill := bytes.Repeat([]byte{0xEE}, FrameSize)
	if err := b.WriteBytes(a, fill); err != nil {
		t.Fatal(err)
	}
	if err := b.Zero(a+0x100, 0x200); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadBytes(a, FrameSize)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		want := byte(0xEE)
		if i >= 0x100 && i < 0x300 {
			want = 0
		}
		if v != want {
			t.Fatalf("byte %#x = %#x, want %#x", i, v, want)
		}
	}
}

// TestZeroOffRAM: a range outside RAM, or running off the end of its RAM
// region, is a bus error and writes nothing.
func TestZeroOffRAM(t *testing.T) {
	b := NewBus()
	for _, tc := range []struct {
		a, want Addr
		n       int
	}{
		{AXIGP0Base, AXIGP0Base, 4},
		{DDRBase + DDRSize - 8, DDRBase + DDRSize, 16},
		{OCMBase + (OCMSize - 4), 0, 8},
	} {
		err := b.Zero(tc.a, tc.n)
		be, ok := err.(*BusError)
		if !ok || be.Addr != tc.want || !be.Write {
			t.Fatalf("Zero(%#x, %d) = %v, want a write BusError at %#x", tc.a, tc.n, err, tc.want)
		}
	}
	if got := b.TouchedFrames(); got != 0 {
		t.Fatalf("failed Zero calls allocated %d frames", got)
	}
	if err := b.Zero(AXIGP0Base, 0); err != nil {
		t.Fatalf("empty Zero = %v, want nil", err)
	}
}
