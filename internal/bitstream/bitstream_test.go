package bitstream

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	b := Synthesize(3, 1, Resources{LUTs: 4000, BRAM: 8, DSP: 12}, 10_000)
	raw := b.Encode()
	got, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.TaskID != 3 || got.Variant != 1 {
		t.Errorf("ids = %d/%d, want 3/1", got.TaskID, got.Variant)
	}
	if got.Needs != b.Needs {
		t.Errorf("resources = %+v, want %+v", got.Needs, b.Needs)
	}
	if !bytes.Equal(got.Payload, b.Payload) {
		t.Error("payload mismatch")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	raw := Synthesize(1, 0, Resources{}, 64).Encode()
	raw[0] ^= 0xFF
	if _, err := Decode(raw); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestDecodeRejectsCorruptPayload(t *testing.T) {
	raw := Synthesize(1, 0, Resources{}, 64).Encode()
	raw[HeaderSize+10] ^= 0x01
	if _, err := Decode(raw); err == nil {
		t.Error("corrupt payload passed CRC")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	raw := Synthesize(1, 0, Resources{}, 64).Encode()
	if _, err := Decode(raw[:HeaderSize+10]); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := Decode(raw[:10]); err == nil {
		t.Error("truncated header accepted")
	}
}

// TestCheckerMatchesDecode feeds encodings, good and bad, to a Checker in
// pieces of several sizes: Check must give Decode's verdict and header,
// and no payload.
func TestCheckerMatchesDecode(t *testing.T) {
	good := Synthesize(3, 1, Resources{LUTs: 4000, BRAM: 8, DSP: 12}, 10_000).Encode()
	flip := func(i int) []byte {
		raw := bytes.Clone(good)
		raw[i] ^= 0x01
		return raw
	}
	for _, in := range []struct {
		name string
		raw  []byte
	}{
		{"good", good},
		{"bytes past the payload", append(bytes.Clone(good), 1, 2, 3)},
		{"empty payload", Synthesize(1, 0, Resources{}, 0).Encode()},
		{"empty", nil},
		{"short header", good[:HeaderSize-1]},
		{"truncated payload", good[:len(good)-1]},
		{"bad magic", flip(0)},
		{"bad CRC", flip(24)},
		{"payload's last byte", flip(len(good) - 1)},
	} {
		want, werr := Decode(in.raw)
		for _, piece := range []int{1, 3, HeaderSize, HeaderSize + 1, 4096} {
			var c Checker
			for p := in.raw; len(p) > 0; p = p[min(piece, len(p)):] {
				c.Write(p[:min(piece, len(p))])
			}
			got, err := c.Check()
			if (err == nil) != (werr == nil) {
				t.Errorf("%s in %d-byte pieces: Check error %v, Decode error %v", in.name, piece, err, werr)
				continue
			}
			if err != nil {
				continue
			}
			if got.TaskID != want.TaskID || got.Variant != want.Variant || got.Needs != want.Needs || got.Payload != nil {
				t.Errorf("%s in %d-byte pieces: Check gave %+v, Decode %+v", in.name, piece, got, want)
			}
		}
	}
}

func TestFits(t *testing.T) {
	prr := Resources{LUTs: 5000, BRAM: 10, DSP: 20}
	if !(Resources{LUTs: 5000, BRAM: 10, DSP: 20}).Fits(prr) {
		t.Error("exact fit rejected")
	}
	if (Resources{LUTs: 5001}).Fits(prr) {
		t.Error("oversized LUTs accepted")
	}
	if (Resources{BRAM: 11}).Fits(prr) {
		t.Error("oversized BRAM accepted")
	}
	if (Resources{DSP: 21}).Fits(prr) {
		t.Error("oversized DSP accepted")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := Synthesize(7, 2, Resources{}, 1000)
	b := Synthesize(7, 2, Resources{}, 1000)
	if !bytes.Equal(a.Payload, b.Payload) {
		t.Error("same ids produced different payloads")
	}
	c := Synthesize(7, 3, Resources{}, 1000)
	if bytes.Equal(a.Payload, c.Payload) {
		t.Error("different variants produced identical payloads")
	}
}

// Boundary-size round trips: empty payload, single byte, and the maximum
// representable resource footprint must all survive Encode/Decode, while
// every truncation of the header must be rejected.
func TestEncodeDecodeBoundaries(t *testing.T) {
	maxRes := Resources{LUTs: ^uint32(0), BRAM: ^uint32(0), DSP: ^uint32(0)}
	cases := []struct {
		name    string
		taskID  uint16
		variant uint16
		needs   Resources
		payload int
	}{
		{"empty-payload", 1, 0, Resources{}, 0},
		{"one-byte", 2, 1, Resources{LUTs: 1}, 1},
		{"max-resources", 3, 2, maxRes, 64},
		{"max-ids", 0xFFFF, 0xFFFF, Resources{LUTs: 10}, 16},
		{"page-aligned", 4, 0, Resources{BRAM: 36}, 4096 - HeaderSize},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := Synthesize(tc.taskID, tc.variant, tc.needs, tc.payload)
			raw := b.Encode()
			if len(raw) != b.TotalLen() || len(raw) != HeaderSize+tc.payload {
				t.Fatalf("encoded length %d, want %d", len(raw), HeaderSize+tc.payload)
			}
			got, err := Decode(raw)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if got.TaskID != tc.taskID || got.Variant != tc.variant {
				t.Errorf("ids = %d/%d, want %d/%d", got.TaskID, got.Variant, tc.taskID, tc.variant)
			}
			if got.Needs != tc.needs {
				t.Errorf("resources = %+v, want %+v", got.Needs, tc.needs)
			}
			if !bytes.Equal(got.Payload, b.Payload) {
				t.Error("payload mismatch")
			}
		})
	}
}

func TestDecodeRejectsEveryTruncatedHeader(t *testing.T) {
	raw := Synthesize(1, 0, Resources{}, 0).Encode()
	for n := 0; n < HeaderSize; n++ {
		if _, err := Decode(raw[:n]); err == nil {
			t.Errorf("header truncated to %d bytes accepted", n)
		}
	}
	// Exactly the header with an empty payload is valid.
	if _, err := Decode(raw[:HeaderSize]); err != nil {
		t.Errorf("full header with empty payload rejected: %v", err)
	}
}

// Property: Decode(Encode(x)) == x for arbitrary ids/sizes.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(id, variant uint16, luts, bram, dsp uint32, size uint16) bool {
		b := Synthesize(id, variant, Resources{luts, bram, dsp}, int(size))
		got, err := Decode(b.Encode())
		return err == nil && got.TaskID == id && got.Variant == variant &&
			got.Needs == b.Needs && bytes.Equal(got.Payload, b.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
