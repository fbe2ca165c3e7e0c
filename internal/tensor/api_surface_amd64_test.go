//go:build amd64 && !noasm

package tensor

import (
	"math/rand"
	"testing"
)

// TestMatMulForcedScalarMatchesAVX flips the kernel gate and requires the
// scalar float32 micro-kernels to reproduce the AVX2 path bit-for-bit
// (the same per-element chains, just unvectorized).
func TestMatMulForcedScalarMatchesAVX(t *testing.T) {
	if !gemmAVX2 {
		t.Skip("no AVX2 on this CPU; scalar path is the only kernel")
	}
	rng := rand.New(rand.NewSource(47))
	a := RandUniform(rng, -1, 1, 23, 65)
	b := RandUniform(rng, -1, 1, 65, 50)
	want := MatMul(a, b)
	gemmAVX2 = false
	got := MatMul(a, b)
	gemmAVX2 = true
	if !got.Equal(want) {
		t.Fatal("forced-scalar MatMul differs from AVX2 path")
	}
}

func TestKernelBackendNames(t *testing.T) {
	saved := gemmAVX2
	defer func() { gemmAVX2 = saved }()
	gemmAVX2 = true
	if KernelBackend() != "avx2" {
		t.Fatalf("KernelBackend with gate on = %q", KernelBackend())
	}
	gemmAVX2 = false
	if KernelBackend() != "scalar" {
		t.Fatalf("KernelBackend with gate off = %q", KernelBackend())
	}
}
