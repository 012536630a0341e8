package apps

import (
	"encoding/binary"
	"fmt"

	"repro/internal/simclock"
)

// The IP cores run in the FPGA fabric at fabricMHz; latencies are
// converted to CPU cycles (660 MHz) for the shared clock.
const fabricMHz = 100

func fabricCycles(ops int) simclock.Cycles {
	return simclock.Cycles(ops * (660 / fabricMHz))
}

// FFTCore is the behavioural model of the FFT accelerator family
// (FFT-256 … FFT-8192). Input: interleaved int16 I/Q pairs; the PARAM
// register selects the transform size. Output: interleaved int16 I/Q.
type FFTCore struct{}

// Latency implements pl.Accel: pipeline fill + one butterfly per fabric
// cycle, plus DMA streaming of input and output.
func (FFTCore) Latency(n int, param uint32) simclock.Cycles {
	points := int(param)
	if points == 0 {
		points = n / 4
	}
	return fabricCycles(200+FFTButterflies(points)) + simclock.Cycles(n/2)
}

// Process implements pl.Accel.
func (FFTCore) Process(input []byte, param uint32) ([]byte, error) {
	points := int(param)
	if points == 0 {
		points = len(input) / 4
	}
	if points == 0 || points&(points-1) != 0 {
		return nil, fmt.Errorf("apps: FFT core: %d points not a power of two", points)
	}
	if len(input) < points*4 {
		return nil, fmt.Errorf("apps: FFT core: input %d bytes < %d points * 4", len(input), points)
	}
	x := make([]complex128, points)
	for i := range x {
		re := int16(binary.LittleEndian.Uint16(input[i*4:]))
		im := int16(binary.LittleEndian.Uint16(input[i*4+2:]))
		x[i] = complex(float64(re), float64(im))
	}
	if err := FFT(x); err != nil {
		return nil, err
	}
	out := make([]byte, points*4)
	scale := 1.0 / float64(points) // block-floating output to stay in int16
	for i, v := range x {
		binary.LittleEndian.PutUint16(out[i*4:], uint16(int16(real(v)*scale)))
		binary.LittleEndian.PutUint16(out[i*4+2:], uint16(int16(imag(v)*scale)))
	}
	return out, nil
}

// QAMCore is the behavioural model of the QAM mapper accelerators
// (QAM-4/16/64). Input: packed bits; PARAM selects the order; output:
// interleaved int16 I/Q symbols.
type QAMCore struct{}

// Latency implements pl.Accel: one symbol per fabric cycle + DMA.
func (QAMCore) Latency(n int, param uint32) simclock.Cycles {
	m := int(param)
	if m == 0 {
		m = 16
	}
	bitsPerSym := 2
	for v := m; v > 4; v >>= 2 {
		bitsPerSym += 2
	}
	symbols := n * 8 / bitsPerSym
	return fabricCycles(50+symbols) + simclock.Cycles(n)
}

// Process implements pl.Accel.
func (QAMCore) Process(input []byte, param uint32) ([]byte, error) {
	m := int(param)
	if m == 0 {
		m = 16
	}
	syms, _, err := QAMMap(input, m)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(syms)*4)
	for i, s := range syms {
		binary.LittleEndian.PutUint16(out[i*4:], uint16(s.I))
		binary.LittleEndian.PutUint16(out[i*4+2:], uint16(s.Q))
	}
	return out, nil
}
