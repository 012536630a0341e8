package physmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"testing"
)

// refBus is the reference model: every materialized frame owns its 4 KB
// of bytes, there is no shared zero frame, and the bulk operations go a
// byte at a time.
type refBus struct {
	frames map[Addr]*frameBuf // materialized frames by base address
}

func refRAM(a Addr) bool {
	return a >= DDRBase && a-DDRBase < DDRSize || a >= OCMBase
}

// frame materializes a's frame.
func (r *refBus) frame(a Addr) *frameBuf {
	base := a &^ (FrameSize - 1)
	f := r.frames[base]
	if f == nil {
		f = new(frameBuf)
		r.frames[base] = f
	}
	return f
}

func (r *refBus) read8(a Addr) (byte, error) {
	if !refRAM(a) {
		return 0, &BusError{Addr: a}
	}
	return r.frame(a)[a%FrameSize], nil
}

func (r *refBus) write8(a Addr, v byte) error {
	if !refRAM(a) {
		return &BusError{Addr: a, Write: true}
	}
	r.frame(a)[a%FrameSize] = v
	return nil
}

func (r *refBus) read32(a Addr) (uint32, error) {
	if !refRAM(a) {
		return 0, &BusError{Addr: a}
	}
	var v uint32
	for i := Addr(0); i < 4; i++ {
		bb, err := r.read8(a + i)
		if err != nil {
			return 0, err
		}
		v |= uint32(bb) << (8 * i)
	}
	return v, nil
}

func (r *refBus) write32(a Addr, v uint32) error {
	if !refRAM(a) {
		return &BusError{Addr: a, Write: true}
	}
	for i := Addr(0); i < 4; i++ {
		if err := r.write8(a+i, byte(v>>(8*i))); err != nil {
			return err
		}
	}
	return nil
}

func (r *refBus) readBytes(a Addr, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := range out {
		v, err := r.read8(a + Addr(i))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (r *refBus) writeBytes(a Addr, p []byte) error {
	for i, v := range p {
		if err := r.write8(a+Addr(i), v); err != nil {
			return err
		}
	}
	return nil
}

// zero writes nothing unless all n bytes are RAM.
func (r *refBus) zero(a Addr, n int) error {
	for i := 0; i < n; i++ {
		if !refRAM(a + Addr(i)) {
			return &BusError{Addr: a + Addr(i), Write: true}
		}
	}
	for i := 0; i < n; i++ {
		r.frame(a + Addr(i))[(a+Addr(i))%FrameSize] = 0
	}
	return nil
}

// fuzzFrames are the frames the trace addresses: three at the bottom of
// DDR, the last two DDR frames, and two at each edge of OCM. fuzzAnchors
// adds two addresses that are not RAM: the frame below DDR and the first
// address past it.
var (
	fuzzFrames = []Addr{
		DDRBase, DDRBase + FrameSize, DDRBase + 2*FrameSize,
		DDRBase + DDRSize - 2*FrameSize, DDRBase + DDRSize - FrameSize,
		OCMBase, OCMBase + FrameSize,
		OCMBase + (OCMSize - 2*FrameSize), OCMBase + (OCMSize - FrameSize),
	}
	fuzzAnchors = append(slices.Clone(fuzzFrames), DDRBase-FrameSize, DDRBase+DDRSize)
)

// payload returns n trace-derived bytes; v == 0 gives all zeros.
func payload(n int, v uint32) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(v>>8) + byte(i)*byte(v)
	}
	return p
}

func sameErr(a, b error) bool {
	ea, _ := a.(*BusError)
	eb, _ := b.(*BusError)
	return (a == nil) == (b == nil) && (ea == nil) == (eb == nil) && (ea == nil || *ea == *eb)
}

// capturedFrame is a buffer the trace captured for sharing, with the
// bytes it held then: no op may change them.
type capturedFrame struct {
	s    SharedFrame
	data frameBuf
}

// FuzzBusMatchesReference runs an op trace through a Bus and through the
// reference model, and requires the same results and errors, the same
// bytes in every materialized frame, the same TouchedFrames and Allocated
// answers, an all-zero zeroFrame and unchanged captured buffers after
// every op. Each op is eight trace bytes: kind (mod 13), target, a 12-bit
// offset in the target's frame (so words straddle frames and ranges leave
// RAM), and a 32-bit value that also gives lengths. The share op (kind
// 11) captures the target frame and installs it in the next one to three
// trace frames, and the install op (kind 12) builds a frame from trace
// bytes (NewSharedFrame, as the bitstream store does) and installs it in
// the target and the next zero to two frames; the reference copies the
// bytes, so every later write, Zero or CopyFrame through one sharer must
// leave the others' bytes alone. Only the first 256 ops run.
func FuzzBusMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, trace []byte) {
		trace = trace[:min(len(trace), 8*256)]
		b, r := NewBus(), &refBus{frames: map[Addr]*frameBuf{}}
		var captured []capturedFrame
		for i := 0; i+8 <= len(trace); i += 8 {
			kind, sel := trace[i]%13, int(trace[i+1])
			off := Addr(binary.LittleEndian.Uint16(trace[i+2:]) & (FrameSize - 1))
			v := binary.LittleEndian.Uint32(trace[i+4:])
			a := fuzzAnchors[sel%len(fuzzAnchors)] + off // any address, RAM or not
			fr := fuzzFrames[sel%len(fuzzFrames)]        // a RAM frame
			n := int(v & 0x1FFF)                         // up to two frames
			var op string
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("op %d %s: "+format, append([]any{i / 8, op}, args...)...)
			}
			switch kind {
			case 0:
				op = fmt.Sprintf("Read32(%#x)", a)
				got, err := b.Read32(a)
				want, werr := r.read32(a)
				if got != want || !sameErr(err, werr) {
					fail("= %#x, %v; reference %#x, %v", got, err, want, werr)
				}
			case 1:
				op = fmt.Sprintf("Write32(%#x, %#x)", a, v)
				if err, werr := b.Write32(a, v), r.write32(a, v); !sameErr(err, werr) {
					fail("= %v; reference %v", err, werr)
				}
			case 2:
				op = fmt.Sprintf("Read8(%#x)", a)
				got, err := b.Read8(a)
				want, werr := r.read8(a)
				if got != want || !sameErr(err, werr) {
					fail("= %#x, %v; reference %#x, %v", got, err, want, werr)
				}
			case 3:
				op = fmt.Sprintf("Write8(%#x, %#x)", a, byte(v))
				if err, werr := b.Write8(a, byte(v)), r.write8(a, byte(v)); !sameErr(err, werr) {
					fail("= %v; reference %v", err, werr)
				}
			case 4:
				op = fmt.Sprintf("ReadBytes(%#x, %d)", a, n)
				got, err := b.ReadBytes(a, n)
				want, werr := r.readBytes(a, n)
				if !bytes.Equal(got, want) || (got == nil) != (want == nil) || !sameErr(err, werr) {
					fail("= %d bytes, %v; reference %d bytes, %v", len(got), err, len(want), werr)
				}
			case 5:
				op = fmt.Sprintf("WriteBytes(%#x, %d bytes from %#x)", a, n, v)
				p := payload(n, v)
				if err, werr := b.WriteBytes(a, p), r.writeBytes(a, p); !sameErr(err, werr) {
					fail("= %v; reference %v", err, werr)
				}
			case 6:
				op = fmt.Sprintf("Zero(%#x, %d)", a, n)
				if err, werr := b.Zero(a, n), r.zero(a, n); !sameErr(err, werr) {
					fail("= %v; reference %v", err, werr)
				}
			case 7:
				src := fuzzFrames[int(trace[i+2])%len(fuzzFrames)]
				op = fmt.Sprintf("CopyFrame(%#x, %#x)", fr, src)
				b.CopyFrame(fr, src)
				*r.frame(fr) = *r.frame(src)
			case 8:
				op = fmt.Sprintf("SnapshotFrame(%#x)", fr+off)
				if got := b.SnapshotFrame(fr + off); !bytes.Equal(got, r.frame(fr)[:]) {
					fail("differs from the reference frame")
				}
			case 9:
				p := payload(n%(FrameSize+1), v)
				op = fmt.Sprintf("LoadFrame(%#x, %d bytes from %#x)", fr+off, len(p), v)
				b.LoadFrame(fr+off, p)
				copy(r.frame(fr)[:], p)
			case 10:
				op = fmt.Sprintf("Materialize(%#x)", fr+off)
				b.Materialize(fr + off)
				r.frame(fr)
			case 11:
				k := 1 + int(v%3)
				op = fmt.Sprintf("share %#x into %d frames", fr+off, k)
				s := b.CaptureFrame(fr + off)
				captured = append(captured, capturedFrame{s, *s.buf})
				src := r.frame(fr)
				for j := 1; j <= k; j++ {
					dst := fuzzFrames[(sel+j)%len(fuzzFrames)]
					b.InstallFrame(dst, s)
					*r.frame(dst) = *src
				}
			default:
				p := payload(n%(FrameSize+1), v)
				k := 1 + int(v%3)
				op = fmt.Sprintf("install %d bytes from %#x into %d frames from %#x", len(p), v, k, fr)
				s := NewSharedFrame(p)
				var data frameBuf
				copy(data[:], p)
				clear(p) // the frame holds a copy
				captured = append(captured, capturedFrame{s, data})
				for j := 0; j < k; j++ {
					dst := fuzzFrames[(sel+j)%len(fuzzFrames)]
					b.InstallFrame(dst, s)
					*r.frame(dst) = data
				}
			}

			if got, want := b.TouchedFrames(), len(r.frames); got != want {
				fail("TouchedFrames = %d, reference %d", got, want)
			}
			for _, base := range slices.Sorted(maps.Keys(r.frames)) {
				rf := r.frames[base]
				bf := b.frames[frameNum(base)]
				if bf == nil || *bf != *rf {
					fail("frame %#x: materialized %v, bytes differ from the reference", base, bf != nil)
				}
			}
			for _, fa := range fuzzFrames {
				if rf := r.frames[fa]; b.Allocated(fa) != (rf != nil) {
					fail("frame %#x: Allocated %v; reference %v", fa, b.Allocated(fa), rf != nil)
				}
			}
			if zeroFrame != (frameBuf{}) {
				fail("zeroFrame was written")
			}
			for _, c := range captured {
				if *c.s.buf != c.data {
					fail("a captured buffer was written")
				}
			}
		}
	})
}
