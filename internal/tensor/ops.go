package tensor

import (
	"fmt"
	"math"
)

// checkSame panics unless a and b have identical shapes.
func checkSame(op string, a, b *Tensor) {
	if !sameShape(a.shape, b.shape) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// Add returns a + b element-wise.
func Add(a, b *Tensor) *Tensor {
	out := New(a.shape...)
	AddInto(out, a, b)
	return out
}

// AddInto writes a + b element-wise into dst, which may be either operand.
func AddInto(dst, a, b *Tensor) {
	checkSame("Add", a, b)
	checkSame("AddInto", dst, a)
	for i := range dst.data {
		dst.data[i] = a.data[i] + b.data[i]
	}
}

// AddInPlace accumulates b into a and returns a.
func AddInPlace(a, b *Tensor) *Tensor {
	checkSame("AddInPlace", a, b)
	for i := range a.data {
		a.data[i] += b.data[i]
	}
	return a
}

// Sub returns a - b element-wise.
func Sub(a, b *Tensor) *Tensor {
	checkSame("Sub", a, b)
	out := New(a.shape...)
	for i := range out.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// Mul returns the element-wise (Hadamard) product.
func Mul(a, b *Tensor) *Tensor {
	checkSame("Mul", a, b)
	out := New(a.shape...)
	for i := range out.data {
		out.data[i] = a.data[i] * b.data[i]
	}
	return out
}

// Scale returns a*s element-wise.
func Scale(a *Tensor, s float32) *Tensor {
	out := New(a.shape...)
	for i := range out.data {
		out.data[i] = a.data[i] * s
	}
	return out
}

// ScaleInPlace multiplies every element of a by s and returns a.
func ScaleInPlace(a *Tensor, s float32) *Tensor {
	for i := range a.data {
		a.data[i] *= s
	}
	return a
}

// AddScaledInPlace computes a += s*b and returns a (axpy).
func AddScaledInPlace(a *Tensor, s float32, b *Tensor) *Tensor {
	checkSame("AddScaledInPlace", a, b)
	for i := range a.data {
		a.data[i] += s * b.data[i]
	}
	return a
}

// Apply returns f applied to every element.
func Apply(a *Tensor, f func(float32) float32) *Tensor {
	out := New(a.shape...)
	for i := range out.data {
		out.data[i] = f(a.data[i])
	}
	return out
}

// ApplyInPlace applies f to every element of a and returns a.
func ApplyInPlace(a *Tensor, f func(float32) float32) *Tensor {
	for i := range a.data {
		a.data[i] = f(a.data[i])
	}
	return a
}

// Sum returns the sum of all elements (accumulated in float64 for
// stability).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Mean returns the mean of all elements, or 0 for an empty tensor.
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Tensor) Max() float32 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. It panics on an empty tensor.
func (t *Tensor) Min() float32 {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// AbsMax returns the maximum absolute element value, or 0 for an empty
// tensor. Used for INT8 range calibration.
func (t *Tensor) AbsMax() float32 {
	var m float32
	for _, v := range t.data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the flat index of the maximum element. Ties resolve to
// the lowest index. It panics on an empty tensor.
func (t *Tensor) ArgMax() int {
	if len(t.data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.data[0], 0
	for i, v := range t.data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// ArgMaxRows treats t as a [rows, cols] matrix and returns the argmax of
// each row — the Top-1 class per batch element for a logits tensor.
func ArgMaxRows(t *Tensor) []int {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRows requires rank 2, got shape %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		best, bi := row[0], 0
		for i, v := range row[1:] {
			if v > best {
				best, bi = v, i+1
			}
		}
		out[r] = bi
	}
	return out
}

// TopK treats t as a [rows, cols] matrix and returns, for each row, the
// indices of the k largest elements in descending order of value.
func TopK(t *Tensor, k int) [][]int {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: TopK requires rank 2, got shape %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	if k > cols {
		k = cols
	}
	out := make([][]int, rows)
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		idx := make([]int, cols)
		for i := range idx {
			idx[i] = i
		}
		// Partial selection sort: k is small (typically 5).
		for i := 0; i < k; i++ {
			bi := i
			for j := i + 1; j < cols; j++ {
				if row[idx[j]] > row[idx[bi]] {
					bi = j
				}
			}
			idx[i], idx[bi] = idx[bi], idx[i]
		}
		out[r] = idx[:k]
	}
	return out
}

// SoftmaxRows treats t as [rows, cols] and returns row-wise softmax
// probabilities, computed with the max-subtraction trick for stability.
func SoftmaxRows(t *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: SoftmaxRows requires rank 2, got shape %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := New(rows, cols)
	for r := 0; r < rows; r++ {
		in := t.data[r*cols : (r+1)*cols]
		o := out.data[r*cols : (r+1)*cols]
		m := in[0]
		for _, v := range in[1:] {
			if v > m {
				m = v
			}
		}
		var sum float64
		for i, v := range in {
			e := math.Exp(float64(v - m))
			o[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range o {
			o[i] *= inv
		}
	}
	return out
}

// L2Distance returns the Euclidean distance between two same-shaped
// tensors.
func L2Distance(a, b *Tensor) float64 {
	checkSame("L2Distance", a, b)
	var s float64
	for i := range a.data {
		d := float64(a.data[i] - b.data[i])
		s += d * d
	}
	return math.Sqrt(s)
}

// CosineSimilarity returns the cosine of the angle between two same-shaped
// tensors viewed as flat vectors, or 0 if either has zero norm.
func CosineSimilarity(a, b *Tensor) float64 {
	checkSame("CosineSimilarity", a, b)
	var dot, na, nb float64
	for i := range a.data {
		x, y := float64(a.data[i]), float64(b.data[i])
		dot += x * y
		na += x * x
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// CountNonFinite returns the number of NaN or Inf elements, a cheap
// corruption detector used by injection campaigns.
func (t *Tensor) CountNonFinite() int {
	n := 0
	for _, v := range t.data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			n++
		}
	}
	return n
}
