package tensor

// FLOP counts of the compute kernels (multiply and add counted
// separately, so a MAC is two FLOPs): the work the kernel throughput
// probes divide by measured time.

// GEMMFLOPs estimates a dense [m,k]x[k,n] matrix multiply: 2 FLOPs per
// multiply-accumulate.
func GEMMFLOPs(m, n, k int) float64 {
	return 2 * float64(m) * float64(n) * float64(k)
}

// ConvFLOPs estimates Conv2d over an input of shape [N,C,H,W] with a
// weight of shape [Cout, C/groups, KH, KW]: every output element reduces
// C/groups*KH*KW multiply-accumulates.
func ConvFLOPs(inShape, wShape []int, spec ConvSpec) float64 {
	out := ConvOutShape(inShape, wShape, spec)
	outElems := float64(out[0]) * float64(out[1]) * float64(out[2]) * float64(out[3])
	return 2 * outElems * float64(wShape[1]) * float64(wShape[2]) * float64(wShape[3])
}
