//go:build amd64 && !noasm

package tensor

// The assembly tier (the *_amd64.s files): every AVX2 kernel symbol and
// the gate that selects them. The Go dispatchers next to each scalar twin
// (kern4x16Ind, kern1x16Ind, kernI8Ind, scaleShiftVec, clampVec,
// quantizeI8Vec, requantI8Vec) call these only while gemmAVX2 holds, and
// each kernel computes its twin's bits: the same operations in the same
// order, never FMA. Vector kernels over elements take n a multiple of
// their width (8 float32 lanes, 16 int8 codes).

func cpuidAVX2() bool

// gemmAVX2 selects the assembly kernels; KernelBackend reports it.
var gemmAVX2 = cpuidAVX2()

// The GEMM micro-kernels, one family per backend: B row p of the tile is
// read at base+offs[p] — a packed panel's rows through panelOffs, or the
// direct conv lowering's tap offsets into its bordered image plane.
// gemmKern4x16IndAVX and gemmKern1x16IndAVX accumulate float32 tiles of
// 4 and 1 rows, reading A in place: element (r, p) at ap[r·ars + p·aps];
// gemmKernI8IndAVX accumulates a 4×16 int32 tile kp k-pairs deep with
// VPMADDWD from pair-interleaved A panels.

//go:noescape
func gemmKern4x16IndAVX(c *float32, ldc int, ap *float32, ars, aps int, base *float32, offs *int32, kb int, first bool)

//go:noescape
func gemmKern1x16IndAVX(c *float32, ap *float32, aps int, base *float32, offs *int32, kb int, first bool)

//go:noescape
func gemmKernI8IndAVX(c *int32, ldc int, ap *int16, base *int8, offs *int32, kp int, first bool)

//go:noescape
func scaleShiftAVX(dst, src *float32, n int, scale, shift float32)

//go:noescape
func clampAVX(dst, src *float32, n int, hi float32)

//go:noescape
func quantizeI8AVX(dst *int8, src *float32, n int, scale float32, zp int32)

//go:noescape
func requantI8AVX(dst *float32, acc *int32, n int, corr int32, scale, bias, outScale float32)
