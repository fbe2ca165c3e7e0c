// Package quant implements the symmetric INT8 quantization used by the
// paper's Figure 4 study and by the int8 inference backend: tensors are
// mapped to signed 8-bit integers with scales calibrated from observed
// dynamic range (per-layer for activations, per-output-channel for
// weights), and the bit-level error models (single-bit flip, stuck-at)
// operate on the two's-complement INT8 codes before dequantizing back to
// float32.
//
// Calibration is where degenerate ranges fail: every calibration API
// returns an error for non-finite statistics, so a broken layer is
// rejected at model-quantize time instead of corrupting a campaign
// mid-run. Quantize itself is total — with a validated scale it never
// panics.
package quant

import (
	"fmt"
	"math"

	"gofi/internal/tensor"
)

// Scale is a symmetric INT8 quantization scale: real = q * Scale with q in
// [-127, 127] (the -128 code is unused so the range is symmetric, the
// common convention for accelerator inference).
type Scale float32

// Validate reports whether s is a usable quantization scale: finite and
// strictly positive. All calibration APIs in this package only produce
// scales that pass Validate.
func (s Scale) Validate() error {
	f := float64(s)
	if math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 {
		return fmt.Errorf("quant: invalid scale %g (must be finite and > 0)", f)
	}
	return nil
}

// CalibrateAbsMax returns the scale that maps the tensor's maximum
// absolute value to code 127. A zero tensor calibrates to scale 1 so
// quantization stays well-defined. A tensor with non-finite values (so
// the dynamic range itself is undefined) returns an error — this is the
// calibration-time failure that replaces the old mid-campaign Quantize
// panic.
func CalibrateAbsMax(t *tensor.Tensor) (Scale, error) {
	m := absMaxNaN(t.Data())
	if m == 0 {
		return 1, nil
	}
	s := Scale(m / 127)
	if err := s.Validate(); err != nil {
		return 0, fmt.Errorf("quant: absmax calibration: %w", err)
	}
	return s, nil
}

// absMaxNaN is an absmax fold that propagates NaN (unlike
// tensor.AbsMax, whose comparison-based max silently skips NaN), so
// calibration sees a poisoned range and can reject it.
func absMaxNaN(data []float32) float32 {
	var m float32
	for _, v := range data {
		if v < 0 {
			v = -v
		}
		if v > m || v != v {
			m = v
		}
	}
	return m
}

// CalibratePerChannel calibrates one symmetric scale per output channel
// of a weight tensor whose leading dimension indexes output channels
// ([Cout, ...]). An all-zero channel calibrates to scale 1; a channel
// with non-finite weights is an error naming the channel.
func CalibratePerChannel(w *tensor.Tensor) ([]Scale, error) {
	if w.Rank() < 1 {
		return nil, fmt.Errorf("quant: per-channel calibration needs rank >= 1, got rank %d", w.Rank())
	}
	cout := w.Shape()[0]
	if cout == 0 || w.Len()%cout != 0 {
		return nil, fmt.Errorf("quant: per-channel calibration: bad leading dimension %d for %d elements", cout, w.Len())
	}
	per := w.Len() / cout
	data := w.Data()
	scales := make([]Scale, cout)
	for oc := 0; oc < cout; oc++ {
		var m float32
		for _, v := range data[oc*per : (oc+1)*per] {
			if v < 0 {
				v = -v
			}
			if v > m || v != v { // NaN propagates via v != v
				m = v
			}
		}
		if m == 0 {
			scales[oc] = 1
			continue
		}
		scales[oc] = Scale(m / 127)
		if err := scales[oc].Validate(); err != nil {
			return nil, fmt.Errorf("quant: channel %d: %w", oc, err)
		}
	}
	return scales, nil
}

// Affine is an asymmetric INT8 quantization: real = Scale * (q - ZP) with
// q in [-127, 127]. ZP is the code representing real 0.0; a zero ZP makes
// Affine exactly the symmetric scheme. The asymmetric form doubles the
// effective resolution for non-negative (post-ReLU) activations.
type Affine struct {
	S  Scale
	ZP int8
}

// CalibrateAffine calibrates an activation quantizer from observed
// values. When useZP is set and the tensor is non-negative, the full
// [-127, 127] code range is spent on [0, max] (ZP = -127); otherwise the
// symmetric absmax scheme is used with ZP = 0. Non-finite statistics are
// a calibration error.
func CalibrateAffine(t *tensor.Tensor, useZP bool) (Affine, error) {
	if useZP && t.Len() > 0 && t.Min() >= 0 {
		// Min is comparison-based and NaN-blind; absMaxNaN re-scans with
		// NaN propagation (equal to Max here since the tensor is
		// non-negative) so a poisoned range still errors.
		m := absMaxNaN(t.Data())
		if m == 0 {
			return Affine{S: 1, ZP: 0}, nil
		}
		s := Scale(m / 254)
		if err := s.Validate(); err != nil {
			return Affine{}, fmt.Errorf("quant: affine calibration: %w", err)
		}
		return Affine{S: s, ZP: -127}, nil
	}
	s, err := CalibrateAbsMax(t)
	if err != nil {
		return Affine{}, err
	}
	return Affine{S: s, ZP: 0}, nil
}

// Quantize maps a real value to its affine INT8 code with round-to-nearest
// (half away from zero) and saturation to [-127, 127]; a non-positive
// scale maps every value to ZP. The rule is the int8 backend's own,
// tensor.QuantizeI8, so a stored code here is the code the kernels compute.
func (a Affine) Quantize(v float32) int8 {
	return tensor.QuantizeI8(v, float32(a.S), a.ZP)
}

// Dequantize maps an affine INT8 code back to a real value.
func (a Affine) Dequantize(q int8) float32 {
	return float32(a.S) * float32(int32(q)-int32(a.ZP))
}

// RoundTrip quantizes and dequantizes v under the affine scheme.
func (a Affine) RoundTrip(v float32) float32 { return a.Dequantize(a.Quantize(v)) }

// Quantize maps a real value to its INT8 code with round-to-nearest (half
// away from zero) and saturation, tensor.QuantizeI8's rule at zero-point
// 0. It is total: a non-positive scale (which the calibration APIs never
// produce — they return errors instead) maps every value to code 0
// rather than panicking mid-campaign.
func (s Scale) Quantize(v float32) int8 { return tensor.QuantizeI8(v, float32(s), 0) }

// Dequantize maps an INT8 code back to a real value.
func (s Scale) Dequantize(q int8) float32 { return float32(q) * float32(s) }

// RoundTrip quantizes and dequantizes v, emulating INT8 storage of an
// activation.
func (s Scale) RoundTrip(v float32) float32 { return tensor.SnapI8(v, float32(s)) }

// FlipBit emulates a single-bit hardware fault in an INT8 activation:
// v is quantized, bit [0,7] of the two's-complement code is flipped, and
// the corrupted code is dequantized. Bit 7 is the sign bit. A flip that
// produces the -128 code saturates to -127, keeping results on the
// symmetric quantization grid.
func (s Scale) FlipBit(v float32, bit int) float32 {
	if bit < 0 || bit > 7 {
		panic(fmt.Sprintf("quant: INT8 bit %d out of range [0,7]", bit))
	}
	q := s.Quantize(v)
	q = int8(uint8(q) ^ (1 << uint(bit)))
	if q == -128 {
		q = -127
	}
	return s.Dequantize(q)
}

// StuckAt emulates a stuck-at fault in an INT8 storage cell: v is
// quantized, bit [0,7] of the code is forced to 1 (one=true) or 0, and
// the result is dequantized. Like FlipBit, a forced -128 saturates to
// -127 so results stay on the symmetric grid.
func (s Scale) StuckAt(v float32, bit int, one bool) float32 {
	if bit < 0 || bit > 7 {
		panic(fmt.Sprintf("quant: INT8 bit %d out of range [0,7]", bit))
	}
	q := s.Quantize(v)
	if one {
		q = int8(uint8(q) | (1 << uint(bit)))
	} else {
		q = int8(uint8(q) &^ (1 << uint(bit)))
	}
	if q == -128 {
		q = -127
	}
	return s.Dequantize(q)
}

// QuantizeTensor round-trips every element of t in place, emulating a
// layer whose activations are stored in INT8.
func QuantizeTensor(t *tensor.Tensor, s Scale) {
	d := t.Data()
	for i, v := range d {
		d[i] = s.RoundTrip(v)
	}
}

// MaxError returns the worst-case absolute quantization error for scale s
// within the representable range: half a quantization step.
func (s Scale) MaxError() float32 { return float32(s) / 2 }
