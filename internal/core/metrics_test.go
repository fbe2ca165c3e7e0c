package core

import (
	"math"
	"math/rand"
	"testing"

	"gofi/internal/nn"
	"gofi/internal/obs"
	"gofi/internal/tensor"
)

// sentinel is an injected value no clean activation of the random-weight
// test network can produce.
const sentinel = float32(123456.78)

// captureOutputs snapshots every hooked layer's output during one
// forward pass.
func captureOutputs(inj *Injector, x *tensor.Tensor) [][]float32 {
	outs := make([][]float32, len(inj.Layers()))
	hs := inj.withProfilingHooks(func(i int, out *tensor.Tensor) {
		outs[i] = append([]float32(nil), out.Data()...)
	})
	defer hs.Remove()
	nn.Run(inj.Model(), x)
	return outs
}

// flatNeuronOffsets expands a neuron site into the flat offsets it
// perturbs in its layer's output tensor.
func flatNeuronOffsets(shape []int, s NeuronSite) []int {
	var c, h, w int
	if len(shape) == 4 {
		c, h, w = shape[1], shape[2], shape[3]
	} else {
		c, h, w = shape[1], 1, 1
	}
	at := func(b int) int { return ((b*c+s.C)*h+s.H)*w + s.W }
	if s.Batch == AllBatches {
		offs := make([]int, shape[0])
		for b := range offs {
			offs[b] = at(b)
		}
		return offs
	}
	return []int{at(s.Batch)}
}

// TestPropertyDeclaredNeuronSitesChangeExactly is the satellite property
// test: for random valid neuron sites confined to one layer, the armed
// forward pass must change exactly the declared offsets of that layer's
// output (upstream layers bit-identical, declared offsets exactly the
// sentinel), and the perturbation counters must equal the applied site
// count exactly — catching double-apply and missed-batch bugs.
func TestPropertyDeclaredNeuronSitesChangeExactly(t *testing.T) {
	const batch = 2
	for iter := 0; iter < 20; iter++ {
		rng := rand.New(rand.NewSource(int64(1000 + iter)))
		inj, _ := newTestInjector(t, Config{Batch: batch, Height: 16, Width: 16, IncludeLinear: iter%3 == 0})
		reg := obs.NewRegistry()
		inj.SetMetrics(reg)
		x := tensor.RandUniform(rng, -1, 1, batch, 3, 16, 16)
		clean := captureOutputs(inj, x)

		// Random distinct sites in one random layer; sometimes AllBatches.
		layers := inj.Layers()
		li := layers[rng.Intn(len(layers))]
		k := 1 + rng.Intn(6)
		seen := map[NeuronSite]bool{}
		var sites []NeuronSite
		wantApplied := 0
		for len(sites) < k {
			s := inj.RandomNeuronSite(rng, true)
			s.Layer = li.Index
			// Re-clamp the coordinate to this layer's geometry.
			shape := li.OutShape
			if len(shape) == 4 {
				s.C, s.H, s.W = rng.Intn(shape[1]), rng.Intn(shape[2]), rng.Intn(shape[3])
			} else {
				s.C, s.H, s.W = rng.Intn(shape[1]), 0, 0
			}
			if rng.Intn(4) == 0 {
				s.Batch = AllBatches
			} else {
				s.Batch = rng.Intn(batch)
			}
			if seen[s] {
				continue
			}
			// Reject sites overlapping an already-chosen AllBatches site
			// (or vice versa) so "exactly the declared offsets" stays
			// well-defined.
			overlap := false
			for prev := range seen {
				if prev.C == s.C && prev.H == s.H && prev.W == s.W &&
					(prev.Batch == AllBatches || s.Batch == AllBatches || prev.Batch == s.Batch) {
					overlap = true
					break
				}
			}
			if overlap {
				continue
			}
			seen[s] = true
			sites = append(sites, s)
			if s.Batch == AllBatches {
				wantApplied += batch
			} else {
				wantApplied++
			}
		}
		if err := inj.DeclareNeuronFI(SetValue{V: sentinel}, sites...); err != nil {
			t.Fatalf("iter %d: declare: %v", iter, err)
		}
		faulty := captureOutputs(inj, x)

		wantChanged := map[int]bool{}
		for _, s := range sites {
			for _, off := range flatNeuronOffsets(li.OutShape, s) {
				wantChanged[off] = true
			}
		}
		for l := range clean {
			if l > li.Index {
				continue // downstream layers legitimately diverge
			}
			for off := range clean[l] {
				c, f := clean[l][off], faulty[l][off]
				switch {
				case l == li.Index && wantChanged[off]:
					if f != sentinel {
						t.Fatalf("iter %d: layer %d offset %d = %g, want sentinel", iter, l, off, f)
					}
				default:
					if math.Float32bits(c) != math.Float32bits(f) {
						t.Fatalf("iter %d: undeclared change at layer %d offset %d: %g -> %g",
							iter, l, off, c, f)
					}
				}
			}
		}
		if got := reg.Counter(MetricNeuronPerturbations).Value(); got != int64(wantApplied) {
			t.Fatalf("iter %d: neuron counter = %d, want exactly %d (declared %d sites)",
				iter, got, wantApplied, k)
		}
		if got := reg.Counter(MetricModelPrefix + SetValue{V: sentinel}.Name()).Value(); got != int64(wantApplied) {
			t.Fatalf("iter %d: model tally = %d, want %d", iter, got, wantApplied)
		}
		if inj.Injections != wantApplied {
			t.Fatalf("iter %d: Injections = %d, want %d", iter, inj.Injections, wantApplied)
		}
		inj.Detach()
	}
}

// TestPropertyDeclaredWeightSitesChangeExactly mirrors the neuron
// property for offline weight perturbation: exactly the declared weight
// scalars change, the counter equals the declared count, and Reset
// restores the parameters bit-for-bit.
func TestPropertyDeclaredWeightSitesChangeExactly(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		rng := rand.New(rand.NewSource(int64(2000 + iter)))
		inj, model := newTestInjector(t, Config{Height: 16, Width: 16, IncludeLinear: true})
		reg := obs.NewRegistry()
		inj.SetMetrics(reg)

		before := map[string][]float32{}
		for _, p := range nn.AllParams(model) {
			before[p.Name] = append([]float32(nil), p.Data.Data()...)
		}

		k := 1 + rng.Intn(6)
		seen := map[string]bool{}
		var sites []WeightSite
		for len(sites) < k {
			s := inj.RandomWeightSite(rng)
			if seen[s.String()] {
				continue
			}
			seen[s.String()] = true
			sites = append(sites, s)
		}
		if err := inj.DeclareWeightFI(SetValue{V: sentinel}, sites...); err != nil {
			t.Fatalf("iter %d: declare: %v", iter, err)
		}

		// Exactly the declared scalars changed, each to the sentinel.
		changedWant := map[*tensor.Tensor]map[int]bool{}
		for _, s := range sites {
			wt := inj.hookables()[s.Layer].params.Data
			if changedWant[wt] == nil {
				changedWant[wt] = map[int]bool{}
			}
			changedWant[wt][wt.Offset(s.Idx...)] = true
		}
		for _, p := range nn.AllParams(model) {
			want := changedWant[p.Data]
			now := p.Data.Data()
			for off, v := range now {
				if want[off] {
					if v != sentinel {
						t.Fatalf("iter %d: %s[%d] = %g, want sentinel", iter, p.Name, off, v)
					}
				} else if math.Float32bits(v) != math.Float32bits(before[p.Name][off]) {
					t.Fatalf("iter %d: undeclared weight change %s[%d]", iter, p.Name, off)
				}
			}
		}
		if got := reg.Counter(MetricWeightPerturbations).Value(); got != int64(k) {
			t.Fatalf("iter %d: weight counter = %d, want exactly %d", iter, got, k)
		}

		inj.Reset()
		for _, p := range nn.AllParams(model) {
			for off, v := range p.Data.Data() {
				if math.Float32bits(v) != math.Float32bits(before[p.Name][off]) {
					t.Fatalf("iter %d: Reset did not restore %s[%d]", iter, p.Name, off)
				}
			}
		}
		inj.Detach()
	}
}
