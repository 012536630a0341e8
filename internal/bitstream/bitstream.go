// Package bitstream defines the synthetic partial-bitstream (.bit) format
// used by the PCAP model and the Hardware Task Manager.
//
// The paper stores hardware-task configuration data "in memory as
// bitstream files (.bit)" (§IV-B) whose size determines the PCAP
// reconfiguration delay (§V-B, referencing the authors' earlier EWiLi'14
// paper for the size↔delay relation). Real Xilinx bitstreams are opaque
// and device-specific; this synthetic container preserves exactly the
// properties the system depends on: an identifying header, the FPGA
// resource footprint (which decides PRR compatibility), and a payload
// whose length drives reconfiguration latency.
package bitstream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Magic identifies a synthetic partial bitstream.
const Magic = 0xB175_CAFE

// HeaderSize is the encoded header length in bytes.
const HeaderSize = 28

// Resources is the FPGA footprint a task needs — the quantity that decides
// which PRRs can host it (paper §V-B: "only PRR1 and PRR2 are large enough
// to contain the FFT tasks").
type Resources struct {
	LUTs uint32
	BRAM uint32 // 36Kb block count
	DSP  uint32
}

// Fits reports whether a region with capacity c can host r.
func (r Resources) Fits(c Resources) bool {
	return r.LUTs <= c.LUTs && r.BRAM <= c.BRAM && r.DSP <= c.DSP
}

// Bitstream is a decoded synthetic .bit file.
type Bitstream struct {
	TaskID  uint16
	Variant uint16 // e.g. FFT point size index or QAM order index
	Needs   Resources
	Payload []byte // configuration frames; len drives PCAP latency
}

// Encode serializes the bitstream: header (magic, ids, resources, length,
// CRC of payload) followed by the payload.
func (b *Bitstream) Encode() []byte {
	out := make([]byte, HeaderSize+len(b.Payload))
	binary.LittleEndian.PutUint32(out[0:], Magic)
	binary.LittleEndian.PutUint16(out[4:], b.TaskID)
	binary.LittleEndian.PutUint16(out[6:], b.Variant)
	binary.LittleEndian.PutUint32(out[8:], b.Needs.LUTs)
	binary.LittleEndian.PutUint32(out[12:], b.Needs.BRAM)
	binary.LittleEndian.PutUint32(out[16:], b.Needs.DSP)
	binary.LittleEndian.PutUint32(out[20:], uint32(len(b.Payload)))
	binary.LittleEndian.PutUint32(out[24:], crc32.ChecksumIEEE(b.Payload))
	copy(out[HeaderSize:], b.Payload)
	return out
}

// Decode parses and validates an encoded bitstream held whole in raw:
// a Checker fed raw in one piece, with the payload kept.
func Decode(raw []byte) (*Bitstream, error) {
	var c Checker
	c.Write(raw)
	b, err := c.Check()
	if err != nil {
		return nil, err
	}
	b.Payload = raw[HeaderSize : HeaderSize+binary.LittleEndian.Uint32(raw[20:])]
	return b, nil
}

// Checker validates an encoded bitstream that arrives in pieces, in
// order, without keeping it: a DMA master reading it a frame at a time
// (the PCAP) feeds each piece to Write and calls Check at the end. It
// holds the header and a running CRC of the payload, never the payload
// itself, so however raw is cut into pieces, Check gives what Decode(raw)
// gives, with a nil payload. The zero value is ready to use.
type Checker struct {
	hdr [HeaderSize]byte
	n   int    // bytes written so far
	crc uint32 // CRC of the payload bytes written so far
}

// Write feeds the next piece of the encoded bitstream.
func (c *Checker) Write(p []byte) {
	if c.n < HeaderSize {
		k := copy(c.hdr[c.n:], p)
		c.n += k
		p = p[k:]
	}
	if len(p) == 0 {
		return
	}
	// The header is whole: the payload runs to end, and what follows it
	// is only counted.
	end := HeaderSize + uint64(binary.LittleEndian.Uint32(c.hdr[20:]))
	if uint64(c.n) < end {
		c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:min(uint64(len(p)), end-uint64(c.n))])
	}
	c.n += len(p)
}

// Check decodes and validates what was written: the header's length and
// magic, room for the payload, and the payload's CRC. It returns the
// bitstream with a nil payload.
func (c *Checker) Check() (*Bitstream, error) {
	if c.n < HeaderSize {
		return nil, fmt.Errorf("bitstream: %d bytes is shorter than the %d-byte header", c.n, HeaderSize)
	}
	h := c.hdr[:]
	if m := binary.LittleEndian.Uint32(h[0:]); m != Magic {
		return nil, fmt.Errorf("bitstream: bad magic %#x", m)
	}
	if n := binary.LittleEndian.Uint32(h[20:]); uint32(c.n-HeaderSize) < n {
		return nil, fmt.Errorf("bitstream: truncated payload (%d of %d bytes)", c.n-HeaderSize, n)
	}
	if want := binary.LittleEndian.Uint32(h[24:]); c.crc != want {
		return nil, fmt.Errorf("bitstream: payload CRC mismatch (%#x != %#x)", c.crc, want)
	}
	return &Bitstream{
		TaskID:  binary.LittleEndian.Uint16(h[4:]),
		Variant: binary.LittleEndian.Uint16(h[6:]),
		Needs: Resources{
			LUTs: binary.LittleEndian.Uint32(h[8:]),
			BRAM: binary.LittleEndian.Uint32(h[12:]),
			DSP:  binary.LittleEndian.Uint32(h[16:]),
		},
	}, nil
}

// TotalLen is the encoded length in bytes.
func (b *Bitstream) TotalLen() int { return HeaderSize + len(b.Payload) }

// Synthesize builds a deterministic payload of n bytes for task/variant —
// a stand-in for configuration frames. The content is reproducible so
// tests can verify PCAP transfers bit-for-bit.
func Synthesize(taskID, variant uint16, needs Resources, n int) *Bitstream {
	p := make([]byte, n)
	seed := uint32(taskID)<<16 | uint32(variant)
	x := seed*2654435761 + 1
	for i := range p {
		x = x*1664525 + 1013904223
		p[i] = byte(x >> 24)
	}
	return &Bitstream{TaskID: taskID, Variant: variant, Needs: needs, Payload: p}
}
