package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gofi/internal/tensor"
)

func TestCalibrateAbsMax(t *testing.T) {
	x := tensor.FromSlice([]float32{-3, 1, 2}, 3)
	s, err := CalibrateAbsMax(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(s)-3.0/127) > 1e-7 {
		t.Fatalf("scale = %g, want %g", float32(s), 3.0/127)
	}
	// Extremes map to ±127.
	if q := s.Quantize(-3); q != -127 {
		t.Fatalf("Quantize(-3) = %d, want -127", q)
	}
	if q := s.Quantize(3); q != 127 {
		t.Fatalf("Quantize(3) = %d, want 127", q)
	}
}

func TestCalibrateZeroTensor(t *testing.T) {
	s, err := CalibrateAbsMax(tensor.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Fatalf("zero-tensor scale = %g, want 1", float32(s))
	}
	if s.Quantize(0) != 0 {
		t.Fatal("Quantize(0) != 0")
	}
}

func TestCalibrateNonFiniteErrors(t *testing.T) {
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1))} {
		x := tensor.FromSlice([]float32{1, bad, 2}, 3)
		if _, err := CalibrateAbsMax(x); err == nil {
			t.Fatalf("CalibrateAbsMax with %g: expected error", bad)
		}
		if _, err := CalibrateAffine(x, true); err == nil {
			t.Fatalf("CalibrateAffine with %g: expected error", bad)
		}
	}
}

func TestQuantizeKnownValues(t *testing.T) {
	s := Scale(0.5)
	tests := []struct {
		v float32
		q int8
	}{
		{0, 0},
		{0.5, 1},
		{-0.5, -1},
		{0.24, 0},
		{0.26, 1}, // rounds to nearest
		{1000, 127},
		{-1000, -127}, // saturation
	}
	for _, tc := range tests {
		if got := s.Quantize(tc.v); got != tc.q {
			t.Fatalf("Quantize(%g) = %d, want %d", tc.v, got, tc.q)
		}
	}
}

// A non-positive scale no longer panics mid-campaign: Quantize is total
// (everything maps to code 0) and the failure surface moved to the
// calibration APIs, which reject degenerate ranges with an error.
func TestQuantizeNonPositiveScaleTotal(t *testing.T) {
	for _, s := range []Scale{0, -1} {
		if got := s.Quantize(3); got != 0 {
			t.Fatalf("Scale(%g).Quantize(3) = %d, want 0", float32(s), got)
		}
		if err := s.Validate(); err == nil {
			t.Fatalf("Scale(%g).Validate() = nil, want error", float32(s))
		}
	}
	if err := Scale(float32(math.NaN())).Validate(); err == nil {
		t.Fatal("Validate(NaN) = nil, want error")
	}
	if err := Scale(0.5).Validate(); err != nil {
		t.Fatalf("Validate(0.5) = %v, want nil", err)
	}
}

func TestCalibratePerChannel(t *testing.T) {
	// Two channels: absmax 4 and 0 (zero channel calibrates to 1).
	w := tensor.FromSlice([]float32{1, -4, 2, 0, 0, 0}, 2, 3)
	scales, err := CalibratePerChannel(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(scales) != 2 {
		t.Fatalf("got %d scales, want 2", len(scales))
	}
	if math.Abs(float64(scales[0])-4.0/127) > 1e-7 {
		t.Fatalf("channel 0 scale = %g, want %g", float32(scales[0]), 4.0/127)
	}
	if scales[1] != 1 {
		t.Fatalf("zero channel scale = %g, want 1", float32(scales[1]))
	}

	bad := tensor.FromSlice([]float32{1, 2, float32(math.NaN()), 3}, 2, 2)
	if _, err := CalibratePerChannel(bad); err == nil {
		t.Fatal("expected error for NaN channel")
	}
	if _, err := CalibratePerChannel(tensor.FromSlice([]float32{1}, 1)); err != nil {
		t.Fatalf("rank-1 single channel: %v", err)
	}
}

func TestCalibratePerChannelBadShape(t *testing.T) {
	if _, err := CalibratePerChannel(tensor.New(0, 3)); err == nil {
		t.Fatal("expected error for zero leading dimension")
	}
}

func TestAffineQuantizeDegenerateAndSaturation(t *testing.T) {
	// Degenerate scale: everything maps to the zero-point (total, no panic).
	bad := Affine{S: 0, ZP: -127}
	if got := bad.Quantize(3); got != -127 {
		t.Fatalf("degenerate affine Quantize = %d, want ZP", got)
	}
	a := Affine{S: 0.5, ZP: -127}
	if got := a.Quantize(1e6); got != 127 {
		t.Fatalf("affine saturation high = %d, want 127", got)
	}
	if got := a.Quantize(-1e6); got != -127 {
		t.Fatalf("affine saturation low = %d, want -127", got)
	}
	// Negative values round half away from zero before the ZP shift,
	// then clamp to the symmetric floor.
	if got := a.Quantize(-0.3); got != -127 {
		t.Fatalf("affine negative = %d, want -127 (clamped)", got)
	}
}

func TestCalibrateAffineNonFiniteSymmetricBranch(t *testing.T) {
	x := tensor.FromSlice([]float32{-1, float32(math.NaN())}, 2)
	if _, err := CalibrateAffine(x, true); err == nil {
		t.Fatal("expected error: symmetric fallback sees NaN")
	}
}

func TestCalibrateAffineZeroPoint(t *testing.T) {
	// Non-negative tensor with useZP: full code range spent on [0, max].
	x := tensor.FromSlice([]float32{0, 1, 2, 4}, 4)
	a, err := CalibrateAffine(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.ZP != -127 {
		t.Fatalf("ZP = %d, want -127", a.ZP)
	}
	if q := a.Quantize(0); q != -127 {
		t.Fatalf("Quantize(0) = %d, want -127 (the zero-point)", q)
	}
	if q := a.Quantize(4); q != 127 {
		t.Fatalf("Quantize(max) = %d, want 127", q)
	}
	if got := a.Dequantize(a.ZP); got != 0 {
		t.Fatalf("Dequantize(ZP) = %g, want 0", got)
	}

	// Signed tensor falls back to symmetric regardless of useZP.
	signed := tensor.FromSlice([]float32{-2, 3}, 2)
	a2, err := CalibrateAffine(signed, true)
	if err != nil {
		t.Fatal(err)
	}
	if a2.ZP != 0 {
		t.Fatalf("signed ZP = %d, want 0", a2.ZP)
	}
	// useZP off: symmetric even for non-negative input.
	a3, err := CalibrateAffine(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if a3.ZP != 0 {
		t.Fatalf("useZP=false ZP = %d, want 0", a3.ZP)
	}
	// All-zero non-negative tensor stays well-defined.
	a4, err := CalibrateAffine(tensor.New(3), true)
	if err != nil {
		t.Fatal(err)
	}
	if a4.S != 1 || a4.ZP != 0 {
		t.Fatalf("zero-tensor affine = %+v, want {1 0}", a4)
	}
}

// Property: affine round-trip error is bounded by half a step for
// in-range values, and round-trip is idempotent.
func TestAffineRoundTrip_Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		max := rng.Float32()*4 + 0.01
		n := 64
		x := tensor.RandUniform(rng, 0, max, n)
		a, err := CalibrateAffine(x, true)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			v := x.AtFlat(i)
			r := a.RoundTrip(v)
			if math.Abs(float64(r-v)) > float64(a.S)/2+1e-6 {
				return false
			}
			if a.RoundTrip(r) != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlipBitSign(t *testing.T) {
	s := Scale(1)
	// value 3 = code 3 = 0b00000011; flipping sign bit (7) gives
	// 0b10000011 = -125 in two's complement.
	if got := s.FlipBit(3, 7); got != -125 {
		t.Fatalf("sign flip = %g, want -125", got)
	}
	// Flipping bit 0 of code 3 gives 2.
	if got := s.FlipBit(3, 0); got != 2 {
		t.Fatalf("bit0 flip = %g, want 2", got)
	}
	// Flipping bit 6 (the largest magnitude bit) of 0 gives 64.
	if got := s.FlipBit(0, 6); got != 64 {
		t.Fatalf("bit6 flip of 0 = %g, want 64", got)
	}
}

func TestFlipBitOutOfRangePanics(t *testing.T) {
	for _, bit := range []int{-1, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for bit %d", bit)
				}
			}()
			Scale(1).FlipBit(1, bit)
		}()
	}
}

func TestStuckAtKnownValues(t *testing.T) {
	s := Scale(1)
	// code 3 = 0b00000011: stuck-at-1 on bit 2 gives 7; stuck-at-0 on
	// bit 0 gives 2; stuck-at-1 on the sign bit gives -125.
	if got := s.StuckAt(3, 2, true); got != 7 {
		t.Fatalf("stuck-at-1 bit2 = %g, want 7", got)
	}
	if got := s.StuckAt(3, 0, false); got != 2 {
		t.Fatalf("stuck-at-0 bit0 = %g, want 2", got)
	}
	if got := s.StuckAt(3, 7, true); got != -125 {
		t.Fatalf("stuck-at-1 sign = %g, want -125", got)
	}
	// Already-stuck bit is a no-op.
	if got := s.StuckAt(3, 0, true); got != 3 {
		t.Fatalf("stuck-at-1 of set bit = %g, want 3", got)
	}
	// Forcing code 0 (0b0) sign bit on would give -128; saturates to -127.
	if got := s.StuckAt(0, 7, true); got != -127 {
		t.Fatalf("stuck sign of 0 = %g, want -127", got)
	}
}

func TestStuckAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Scale(1).StuckAt(1, 8, true)
}

// Property: StuckAt is idempotent and its output is on the grid.
func TestStuckAtIdempotent_Property(t *testing.T) {
	f := func(seed int64, bitSeed uint8, one bool) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := Scale(rng.Float32() + 0.001)
		bit := int(bitSeed) % 8
		v := (rng.Float32()*2 - 1) * 300
		out := scale.StuckAt(v, bit, one)
		if scale.RoundTrip(out) != out {
			return false
		}
		return scale.StuckAt(out, bit, one) == out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeTensorBoundsError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandUniform(rng, -5, 5, 1000)
	s, err := CalibrateAbsMax(x)
	if err != nil {
		t.Fatal(err)
	}
	orig := x.Clone()
	QuantizeTensor(x, s)
	maxErr := float64(s.MaxError())
	for i := 0; i < x.Len(); i++ {
		d := math.Abs(float64(x.AtFlat(i) - orig.AtFlat(i)))
		if d > maxErr+1e-6 {
			t.Fatalf("element %d: quantization error %g exceeds bound %g", i, d, maxErr)
		}
	}
}

// Property: quantize→dequantize error is bounded by half a step for any
// in-range value.
func TestRoundTripErrorBound_Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := Scale(rng.Float32()*2 + 0.001)
		v := (rng.Float32()*2 - 1) * float32(scale) * 127
		r := scale.RoundTrip(v)
		return math.Abs(float64(r-v)) <= float64(scale.MaxError())+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: round-trip is idempotent — quantizing an already-quantized
// value changes nothing.
func TestRoundTripIdempotent_Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := Scale(rng.Float32() + 0.001)
		v := (rng.Float32()*2 - 1) * 300
		once := scale.RoundTrip(v)
		return scale.RoundTrip(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: FlipBit twice with the same bit restores the quantized value,
// except when the first flip lands on the unrepresentable -128 code (which
// saturates to -127 by design).
func TestFlipBitInvolutionOnCodes_Property(t *testing.T) {
	f := func(seed int64, bitSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := Scale(rng.Float32() + 0.001)
		bit := int(bitSeed) % 8
		v := scale.RoundTrip((rng.Float32()*2 - 1) * float32(scale) * 127)
		if int8(uint8(scale.Quantize(v))^(1<<uint(bit))) == -128 {
			// Saturated corner: flip produces -127 instead.
			return scale.FlipBit(v, bit) == scale.Dequantize(-127)
		}
		flipped := scale.FlipBit(v, bit)
		return scale.FlipBit(flipped, bit) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: FlipBit output is always on the quantization grid.
func TestFlipBitOnGrid_Property(t *testing.T) {
	f := func(seed int64, bitSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := Scale(rng.Float32() + 0.001)
		v := (rng.Float32()*2 - 1) * 500
		out := scale.FlipBit(v, int(bitSeed)%8)
		return scale.RoundTrip(out) == out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// affineQuantizeReference is Affine.Quantize as it was written before the
// rounding rule moved into internal/tensor, kept verbatim as a reference.
func affineQuantizeReference(a Affine, v float32) int8 {
	if a.S <= 0 {
		return a.ZP
	}
	q := v / float32(a.S)
	var r int32
	if q >= 0 {
		r = int32(q + 0.5)
	} else {
		r = int32(q - 0.5)
	}
	r += int32(a.ZP)
	if r > 127 {
		r = 127
	}
	if r < -127 {
		r = -127
	}
	return int8(r)
}

// TestTensorQuantizeI8MatchesAffine pins every quantizer of this package
// — Affine.Quantize, Scale.Quantize and RoundTrip, QuantizeTensor — and
// the tensor backend's QuantizeI8Into to the branching reference loop,
// bit for bit, including NaN, ±Inf, ties, saturating values and
// degenerate scales.
func TestTensorQuantizeI8MatchesAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	specials := []float32{0, float32(math.Copysign(0, -1)), 1, -1, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e30, -1e30, 3e9, -3e9, 0.5, -0.5, 1.5, -1.5}
	for iter := 0; iter < 50; iter++ {
		af := Affine{S: Scale(rng.Float64()*2 - 0.5), ZP: int8(rng.Intn(255) - 127)}
		if iter == 0 {
			af = Affine{S: 0, ZP: -7} // degenerate scale
		}
		sym := Affine{S: af.S}
		vals := append([]float32{}, specials...)
		for i := 0; i < 100; i++ {
			vals = append(vals, float32(rng.NormFloat64()))
		}
		got := make([]int8, len(vals))
		tensor.QuantizeI8Into(got, vals, float32(af.S), af.ZP)
		snapped := tensor.FromSlice(append([]float32{}, vals...), len(vals))
		QuantizeTensor(snapped, af.S)
		for i, v := range vals {
			want := affineQuantizeReference(af, v)
			if got[i] != want || af.Quantize(v) != want {
				t.Fatalf("iter %d scale=%g zp=%d v=%g: tensor=%d Affine=%d reference=%d", iter, af.S, af.ZP, v, got[i], af.Quantize(v), want)
			}
			code := affineQuantizeReference(sym, v)
			back := math.Float32bits(float32(code) * float32(af.S))
			if af.S.Quantize(v) != code || math.Float32bits(af.S.RoundTrip(v)) != back || math.Float32bits(snapped.Data()[i]) != back {
				t.Fatalf("iter %d scale=%g v=%g: Scale.Quantize=%d RoundTrip=%g QuantizeTensor=%g, reference code %d", iter, af.S, v, af.S.Quantize(v), af.S.RoundTrip(v), snapped.Data()[i], code)
			}
		}
	}
}
