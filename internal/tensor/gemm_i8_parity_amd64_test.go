//go:build amd64 && !noasm

package tensor

import (
	"math/rand"
	"testing"
)

// TestKernI8AVXMatchesScalar pins the asm/noasm contract directly at the
// micro-kernel boundary: the AVX2 VPMADDWD kernel and the scalar
// reference must produce identical int32 tiles on randomized
// pair-interleaved panels, for both first=true (overwrite) and
// first=false (accumulate onto prior partials).
func TestKernI8AVXMatchesScalar(t *testing.T) {
	if !gemmAVX2 {
		t.Skip("no AVX2 on this CPU; scalar path is the only kernel")
	}
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 100; iter++ {
		kp := rng.Intn(200) + 1
		ap := make([]int16, kp*2*gemmMR)
		bp := make([]int8, kp*2*gemmNR)
		for i := range ap {
			ap[i] = int16(rng.Intn(255) - 127)
		}
		for i := range bp {
			bp[i] = int8(rng.Intn(255) - 127)
		}
		ldc := gemmNR + rng.Intn(8)
		first := rng.Intn(2) == 0
		cAsm := make([]int32, gemmMR*ldc)
		cRef := make([]int32, gemmMR*ldc)
		if !first {
			for i := range cAsm {
				v := rng.Int31n(1000) - 500
				cAsm[i] = v
				cRef[i] = v
			}
		}
		gemmKernI8AVX(&cAsm[0], ldc, &ap[0], &bp[0], kp, first)
		kernI8x16scalar(cRef, ldc, ap, bp, kp, first)
		for i := range cRef {
			if cAsm[i] != cRef[i] {
				t.Fatalf("iter %d kp=%d ldc=%d first=%v: element %d asm=%d scalar=%d", iter, kp, ldc, first, i, cAsm[i], cRef[i])
			}
		}
	}
}

// TestGemmI8ForcedScalarMatchesDefault runs the full blocked path with
// the AVX2 gate flipped off and requires bit-identical output — the
// whole-pipeline version of the kernel parity check above.
func TestGemmI8ForcedScalarMatchesDefault(t *testing.T) {
	if !gemmAVX2 {
		t.Skip("no AVX2 on this CPU; nothing to cross-check")
	}
	rng := rand.New(rand.NewSource(31))
	m, k, n := 37, 261, 190
	a := randI8(rng, m*k)
	b := randI8(rng, k*n)

	run := func() []int32 {
		out := make([]int32, m*n)
		var sc scratch
		gemmReserve(i8Kernels, &sc, m, k, n)
		gemmSerial(i8Kernels, out, n, a, k, false, b, n, false, m, k, n, false, &sc)
		sc.release()
		return out
	}
	withAVX := run()
	gemmAVX2 = false
	scalar := run()
	gemmAVX2 = true
	for i := range withAVX {
		if withAVX[i] != scalar[i] {
			t.Fatalf("element %d: avx=%d scalar=%d", i, withAVX[i], scalar[i])
		}
	}
}
