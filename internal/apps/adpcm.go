// Package apps provides the signal-processing payloads of the paper's
// evaluation (§V-B): the software workloads the guest RTOSes execute (GSM
// speech encoding, ADPCM compression) and the behavioural models of the
// hardware IP cores hosted in the FPGA's reconfigurable regions (FFT and
// QAM modules).
//
// All algorithms are real implementations — codecs round-trip, the FFT
// satisfies Parseval — so the working-set traffic the workloads charge to
// the cache model corresponds to computation with a real, verifiable
// result. The codec workloads' input is cyclic: once a cycle starts and
// ends in the same codec state, they replay that cycle's recorded output
// and states exactly instead of encoding the same bytes again.
package apps

// IMA ADPCM (DVI4) codec: 16-bit PCM <-> 4-bit codes. This is the ADPCM
// variant used in telephony workloads like the paper's "Adaptive
// differential pulse-code modulation (ADPCM) compression" guest task.

var imaStepTable = [89]int32{
	7, 8, 9, 10, 11, 12, 13, 14, 16, 17,
	19, 21, 23, 25, 28, 31, 34, 37, 41, 45,
	50, 55, 60, 66, 73, 80, 88, 97, 107, 118,
	130, 143, 157, 173, 190, 209, 230, 253, 279, 307,
	337, 371, 408, 449, 494, 544, 598, 658, 724, 796,
	876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
	2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358,
	5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899,
	15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
}

var imaIndexTable = [16]int32{
	-1, -1, -1, -1, 2, 4, 6, 8,
	-1, -1, -1, -1, 2, 4, 6, 8,
}

// ADPCMState carries the codec predictor across frames.
type ADPCMState struct {
	Predicted int32
	Index     int32
}

func clampIndex(i int32) int32 {
	if i < 0 {
		return 0
	}
	if i > 88 {
		return 88
	}
	return i
}

func clamp16(v int32) int32 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return v
}

// EncodeADPCM compresses PCM samples to 4-bit codes (two per byte). The
// state advances so consecutive frames are continuous.
func EncodeADPCM(st *ADPCMState, pcm []int16) []byte {
	return AppendADPCM(st, pcm, make([]byte, 0, (len(pcm)+1)/2))
}

// AppendADPCM is the allocation-free form of EncodeADPCM: it appends the
// packed codes to dst and returns the extended slice, so a steady-state
// workload can reuse one scratch buffer across frames.
func AppendADPCM(st *ADPCMState, pcm []int16, dst []byte) []byte {
	base := len(dst)
	dst = append(dst, make([]byte, (len(pcm)+1)/2)...)
	out := dst[base:]
	for i, s := range pcm {
		code := encodeSample(st, int32(s))
		if i%2 == 0 {
			out[i/2] = code
		} else {
			out[i/2] |= code << 4
		}
	}
	return dst
}

func encodeSample(st *ADPCMState, sample int32) byte {
	step := imaStepTable[st.Index]
	diff := sample - st.Predicted
	var code int32
	if diff < 0 {
		code = 8
		diff = -diff
	}
	// Quantize and reconstruct in one pass: d accumulates exactly
	// dequantize(code, step), term by term, as the code bits are decided.
	d := step >> 3
	if diff >= step {
		code |= 4
		diff -= step
		d += step
	}
	if diff >= step>>1 {
		code |= 2
		diff -= step >> 1
		d += step >> 1
	}
	if diff >= step>>2 {
		code |= 1
		d += step >> 2
	}
	if code&8 != 0 {
		d = -d
	}
	st.Predicted = clamp16(st.Predicted + d)
	st.Index = clampIndex(st.Index + imaIndexTable[code])
	return byte(code)
}

func dequantize(code, step int32) int32 {
	d := step >> 3
	if code&4 != 0 {
		d += step
	}
	if code&2 != 0 {
		d += step >> 1
	}
	if code&1 != 0 {
		d += step >> 2
	}
	if code&8 != 0 {
		return -d
	}
	return d
}

// DecodeADPCM expands 4-bit codes back to PCM. n is the sample count
// (the final nibble of the last byte is ignored when n is odd).
func DecodeADPCM(st *ADPCMState, codes []byte, n int) []int16 {
	out := make([]int16, 0, n)
	for i := 0; i < n; i++ {
		var code int32
		if i%2 == 0 {
			code = int32(codes[i/2] & 0xF)
		} else {
			code = int32(codes[i/2] >> 4)
		}
		step := imaStepTable[st.Index]
		st.Predicted = clamp16(st.Predicted + dequantize(code, step))
		st.Index = clampIndex(st.Index + imaIndexTable[code])
		out = append(out, int16(st.Predicted))
	}
	return out
}
