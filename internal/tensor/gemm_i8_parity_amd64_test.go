//go:build amd64 && !noasm

package tensor

import (
	"math/rand"
	"testing"
)

// TestKernI8AVXMatchesScalar pins the asm/noasm contract directly at the
// micro-kernel boundary: gemmKernI8IndAVX and its scalar twin
// kernI8IndScalar must produce identical int32 tiles on randomized
// pair-interleaved A panels, with B read through panelOffs (a packed
// panel) and through random ascending offsets into a plane (the direct
// conv lowering), for both first=true (overwrite) and first=false
// (accumulate onto prior partials).
func TestKernI8AVXMatchesScalar(t *testing.T) {
	if !gemmAVX2 {
		t.Skip("no AVX2 on this CPU; scalar path is the only kernel")
	}
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 200; iter++ {
		kp := rng.Intn(gemmKC/2) + 1
		ap := make([]int16, kp*2*gemmMR)
		for i := range ap {
			ap[i] = int16(rng.Intn(256) - 128)
		}
		offs := panelOffs[:2*kp]
		if iter%2 == 1 {
			offs = make([]int32, 2*kp)
			for k := range offs {
				offs[k] = int32(rng.Intn(40))
				if k > 0 {
					offs[k] += offs[k-1]
				}
			}
		}
		base := randI8(rng, int(offs[2*kp-1])+gemmNR)
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
		gemmKernI8IndAVX(&cAsm[0], ldc, &ap[0], &base[0], &offs[0], kp, first)
		kernI8IndScalar(cRef, ldc, ap, base, offs, gemmMR, kp, first)
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
		op := i8Op{dst: out, ldc: n, a: a, lda: k, panels: panelsOf(a, m), b: b, ldb: n, m: m, k: k, n: n}
		gemmReserve(i8Kernels, &sc, &op)
		gemmSerial(i8Kernels, &op, &sc)
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
