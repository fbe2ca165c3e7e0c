package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// scaleShiftReference is eval BatchNorm2d's per-plane loop as nn wrote it
// before the map moved into ScaleShiftInto, kept verbatim as the
// reference both paths must reproduce bit for bit.
func scaleShiftReference(od, xd []float32, scale, shift float32) {
	for i := range xd {
		od[i] = xd[i]*scale + shift
	}
}

// reluReference is nn.ReLU's branching forward loop from before the
// rectifier went branch-free: cap > 0 clips (ReLU6 with cap 6), anything
// else leaves the top open.
func reluReference(o, in []float32, cap float32) {
	for i, v := range in {
		if v < 0 {
			v = 0
		} else if cap > 0 && v > cap {
			v = cap
		}
		o[i] = v
	}
}

// reluHi is the upper bound nn.ReLU hands ReLUInto for a Cap.
func reluHi(cap float32) float32 {
	if cap > 0 {
		return cap
	}
	return float32(math.Inf(1))
}

// elemSpecials are quantSpecials plus the values a clipped rectifier can
// get wrong: ±6 and the floats either side of 6.
var elemSpecials = append([]uint32{
	0x40c00000, 0xc0c00000, // ±6
	0x40c00001, 0x40bfffff, // just above and below 6
	0xc0c00001, 0xc0bfffff,
}, quantSpecials...)

// elemInputs returns the specials followed by n random bit patterns.
func elemInputs(rng *rand.Rand, n int) []float32 {
	vals := make([]float32, 0, len(elemSpecials)+n)
	for _, b := range elemSpecials {
		vals = append(vals, math.Float32frombits(b))
	}
	for i := 0; i < n; i++ {
		vals = append(vals, math.Float32frombits(rng.Uint32()))
	}
	return vals
}

// elemScales are the scale and shift values of the BatchNorm map: unit,
// ordinary, signed zeros, infinities, a denormal, ±MaxFloat32 and NaNs
// with distinct payloads (so when a NaN input meets a NaN scale the test
// sees which one propagates).
var elemScales = []float32{
	1, 0.37, -2.5, 0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x00000003), math.MaxFloat32, -math.MaxFloat32,
	math.Float32frombits(0x7fc01234), math.Float32frombits(0xff812345),
}

// elemCaps are the rectifier caps: 0 (uncapped), the ReLU6 bound, one, a
// denormal and MaxFloat32.
var elemCaps = []float32{0, 6, 1, math.Float32frombits(0x00000001), math.MaxFloat32}

func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// TestScaleShiftMatchesScalar pins ScaleShiftInto (AVX2 tier and forced
// scalar) to the BatchNorm loop it replaced, by Float32bits, on every
// special and 10⁵ random inputs for every scale/shift pair above, then on
// every length so each kernel tail runs at several alignments, and in
// place. Which NaN survives when two meet is the first source operand's,
// and Go leaves the operand order to the compiler: the NaN-scale rows pin
// the order ScaleShiftInto's compiled tail and the old loop share (input
// first), which is the order the kernel uses.
func TestScaleShiftMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	vals := elemInputs(rng, 100000)
	want := make([]float32, len(vals))
	got := make([]float32, len(vals))
	for _, scale := range elemScales {
		for _, shift := range elemScales {
			scaleShiftReference(want, vals, scale, shift)
			withKernelPaths(t, func(path string) {
				ScaleShiftInto(got, vals, scale, shift)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("%s: scale %g shift %g: %#08x → %#08x, reference %#08x", path, scale, shift, math.Float32bits(vals[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			})
		}
	}

	for _, n := range quantLengths() {
		for _, off := range []int{0, 1, 3} {
			src := vals[off : off+n]
			want := make([]float32, n)
			scaleShiftReference(want, src, 0.37, -1.25)
			withKernelPaths(t, func(path string) {
				got := make([]float32, n)
				ScaleShiftInto(got, src, 0.37, -1.25)
				inPlace := append([]float32(nil), src...)
				ScaleShiftInto(inPlace, inPlace, 0.37, -1.25)
				for i := range want {
					if !sameBits(got[i], want[i]) || !sameBits(inPlace[i], want[i]) {
						t.Fatalf("%s: length %d offset %d: element %d = %#08x (in place %#08x), reference %#08x", path, n, off, i, math.Float32bits(got[i]), math.Float32bits(inPlace[i]), math.Float32bits(want[i]))
					}
				}
			})
		}
	}
}

// TestClampMatchesBranchingLoop pins ReLUInto (AVX2 tier and forced
// scalar) and the scalar rule to nn's branching ReLU/ReLU6 loop, by
// Float32bits, on the same inputs and lengths: −0 stays −0, NaNs of
// either sign keep their payload, only v < 0 becomes +0 and only v > cap
// becomes cap.
func TestClampMatchesBranchingLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	vals := elemInputs(rng, 100000)
	want := make([]float32, len(vals))
	got := make([]float32, len(vals))
	for _, cap := range elemCaps {
		hi := reluHi(cap)
		reluReference(want, vals, cap)
		for i, v := range vals {
			if r := clamp(v, hi); !sameBits(r, want[i]) {
				t.Fatalf("clamp(%#08x, %g) = %#08x, reference %#08x", math.Float32bits(v), hi, math.Float32bits(r), math.Float32bits(want[i]))
			}
		}
		withKernelPaths(t, func(path string) {
			ReLUInto(got, vals, hi)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s: cap %g: %#08x → %#08x, reference %#08x", path, cap, math.Float32bits(vals[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		})
	}

	for _, n := range quantLengths() {
		for _, off := range []int{0, 1, 3} {
			src := vals[off : off+n]
			for _, cap := range []float32{0, 6} {
				want := make([]float32, n)
				reluReference(want, src, cap)
				withKernelPaths(t, func(path string) {
					got := make([]float32, n)
					ReLUInto(got, src, reluHi(cap))
					inPlace := append([]float32(nil), src...)
					ReLUInto(inPlace, inPlace, reluHi(cap))
					for i := range want {
						if !sameBits(got[i], want[i]) || !sameBits(inPlace[i], want[i]) {
							t.Fatalf("%s: cap %g length %d offset %d: element %d = %#08x (in place %#08x), reference %#08x", path, cap, n, off, i, math.Float32bits(got[i]), math.Float32bits(inPlace[i]), math.Float32bits(want[i]))
						}
					}
				})
			}
		}
	}
}

// FuzzClamp: on arbitrary bytes read as float32 inputs and any cap bit
// pattern, the dispatching ReLUInto equals the branching reference for
// the bound nn derives from that cap, and equals the scalar rule element
// by element for the raw bit pattern as the bound (negative, zero and
// NaN bounds included).
func FuzzClamp(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x80, 0, 0, 0xc0, 0xff, 1, 0, 0xc0, 0x40}, math.Float32bits(6))
	f.Add(make([]byte, 4*37), uint32(0))
	f.Add([]byte{0x45, 0x23, 0xc1, 0x7f, 0, 0, 0x80, 0xbf}, uint32(0xbf800000))
	f.Fuzz(func(t *testing.T, data []byte, capBits uint32) {
		n := len(data) / 4
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		cap := math.Float32frombits(capBits)

		want, got := make([]float32, n), make([]float32, n)
		reluReference(want, vals, cap)
		ReLUInto(got, vals, reluHi(cap))
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("cap %#08x: %#08x → %#08x, reference %#08x", capBits, math.Float32bits(vals[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}

		ReLUInto(got, vals, cap)
		for i, v := range vals {
			if w := clamp(v, cap); !sameBits(got[i], w) {
				t.Fatalf("hi %#08x: %#08x → %#08x, scalar rule %#08x", capBits, math.Float32bits(v), math.Float32bits(got[i]), math.Float32bits(w))
			}
		}
	})
}
