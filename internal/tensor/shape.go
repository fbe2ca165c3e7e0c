package tensor

import "fmt"

// ConcatChannels concatenates [N,C_i,H,W] tensors along the channel
// dimension, the operation underlying dense blocks, inception modules and
// fire modules. All inputs must agree on N, H and W.
func ConcatChannels(ts ...*Tensor) *Tensor {
	n, ctot, h, w := concatChannelsShape(ts)
	out := New(n, ctot, h, w)
	ConcatChannelsInto(out, ts...)
	return out
}

// concatChannelsShape returns the shape [N, ΣC_i, H, W] ConcatChannels
// produces for ts, panicking when the inputs disagree on N, H or W.
func concatChannelsShape(ts []*Tensor) (n, ctot, h, w int) {
	if len(ts) == 0 {
		panic("tensor: ConcatChannels of no tensors")
	}
	n, h, w = ts[0].shape[0], ts[0].shape[2], ts[0].shape[3]
	for _, t := range ts {
		if t.Rank() != 4 || t.shape[0] != n || t.shape[2] != h || t.shape[3] != w {
			panic(fmt.Sprintf("tensor: ConcatChannels incompatible shape %v (want [%d,*,%d,%d])", t.shape, n, h, w))
		}
		ctot += t.shape[1]
	}
	return n, ctot, h, w
}

// ConcatChannelsInto is ConcatChannels writing into a caller-provided dst
// of shape [N, ΣC_i, H, W]; every element of dst is overwritten, so
// layers can reuse one output buffer across forwards.
func ConcatChannelsInto(out *Tensor, ts ...*Tensor) {
	n, ctot, h, w := concatChannelsShape(ts)
	if !sameShape(out.shape, []int{n, ctot, h, w}) {
		panic(fmt.Sprintf("tensor: ConcatChannelsInto dst shape %v != expected %v", out.shape, []int{n, ctot, h, w}))
	}
	plane := h * w
	for s := 0; s < n; s++ {
		off := s * ctot * plane
		for _, t := range ts {
			c := t.shape[1]
			copy(out.data[off:off+c*plane], t.data[s*c*plane:(s+1)*c*plane])
			off += c * plane
		}
	}
}

// SplitChannels splits a [N,C,H,W] tensor into chunks of the given channel
// counts (the inverse of ConcatChannels). The counts must sum to C.
func SplitChannels(t *Tensor, counts ...int) []*Tensor {
	if t.Rank() != 4 {
		panic(fmt.Sprintf("tensor: SplitChannels input must be [N,C,H,W], got %v", t.shape))
	}
	n, c, h, w := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
	sum := 0
	for _, k := range counts {
		if k <= 0 {
			panic(fmt.Sprintf("tensor: SplitChannels non-positive count %d", k))
		}
		sum += k
	}
	if sum != c {
		panic(fmt.Sprintf("tensor: SplitChannels counts %v do not sum to C=%d", counts, c))
	}
	out := make([]*Tensor, len(counts))
	plane := h * w
	for i, k := range counts {
		out[i] = New(n, k, h, w)
	}
	for s := 0; s < n; s++ {
		off := s * c * plane
		for i, k := range counts {
			copy(out[i].data[s*k*plane:(s+1)*k*plane], t.data[off:off+k*plane])
			off += k * plane
		}
	}
	return out
}

// ShuffleChannels permutes channels for ShuffleNet's channel-shuffle
// operation: with g groups, channel index c maps to output position
// (c % g) * (C/g) + c/g. Returns a new tensor.
func ShuffleChannels(t *Tensor, groups int) *Tensor {
	if t.Rank() != 4 {
		panic(fmt.Sprintf("tensor: ShuffleChannels input must be [N,C,H,W], got %v", t.shape))
	}
	n, c, h, w := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
	if groups <= 0 || c%groups != 0 {
		panic(fmt.Sprintf("tensor: ShuffleChannels C=%d not divisible by groups=%d", c, groups))
	}
	out := New(t.shape...)
	plane := h * w
	cg := c / groups
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			dst := (ch%groups)*cg + ch/groups
			copy(out.data[(s*c+dst)*plane:(s*c+dst+1)*plane], t.data[(s*c+ch)*plane:(s*c+ch+1)*plane])
		}
	}
	return out
}

// UnshuffleChannels inverts ShuffleChannels with the same group count.
func UnshuffleChannels(t *Tensor, groups int) *Tensor {
	if t.Rank() != 4 {
		panic(fmt.Sprintf("tensor: UnshuffleChannels input must be [N,C,H,W], got %v", t.shape))
	}
	c := t.shape[1]
	if groups <= 0 || c%groups != 0 {
		panic(fmt.Sprintf("tensor: UnshuffleChannels C=%d not divisible by groups=%d", c, groups))
	}
	// Shuffling with C/groups groups inverts a shuffle with `groups`.
	return ShuffleChannels(t, c/groups)
}
