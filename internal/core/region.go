package core

import (
	"gofi/internal/nn"
	"gofi/internal/tensor"
)

// The region suffix. A solo neuron-fault trial runs its armed chain node
// dense — every hook on it fires, so the trace, the perturbation counters
// and Injections are the dense forward's — and then diffs that node's
// output bit for bit against the clean boundary in the checkpoint store.
// The differing box becomes a patch (nn.Region), and every later node
// computes only what its patches reach (nn.Chain.StepRegion), settling
// after each node onto the stored clean boundary: elements bit-equal to
// clean drop out. When nothing is left the fault is masked and the trial
// stops; its outcome is the clean forward's. When a node has no region
// rule, its reach covers the whole plane, or a clean boundary it needs is
// not in the store, the trial writes clean plus patches into scratch and
// resumes the dense forward there, hooks on. Every patch holds the bits
// the dense forward computes (see nn/region.go), so the logits, or the
// masked verdict, are the dense suffix's.

// hookCensus caches, for the injector's model, whether a hook other than
// the injector's own sits on chain node n or later, or on the chain's
// spine (the root and the flattened Sequentials, whose hooks a full
// forward fires): foreignFrom[n], for n in [0, Len]. It is valid while
// nn.HookGeneration reads gen.
type hookCensus struct {
	gen         uint64
	foreignFrom []bool
}

// foreignHooksFrom reports whether a hook other than the injector's own
// could fire from chain node node on; O(1) while no hook anywhere has been
// registered or removed since the last census.
func (r *PrefixRunner) foreignHooksFrom(node int) bool {
	if g := nn.HookGeneration(); r.hooks.foreignFrom == nil || r.hooks.gen != g {
		r.hooks = r.takeHookCensus(g)
	}
	return r.hooks.foreignFrom[node]
}

func (r *PrefixRunner) takeHookCensus(gen uint64) hookCensus {
	hooks := func(root nn.Layer) (n int) {
		nn.Walk(root, func(_ string, l nn.Layer) {
			if h, ok := l.(interface{ HookCount() int }); ok {
				n += h.HookCount()
			}
		})
		return n
	}
	chain := r.plan.chain
	foreign := make([]int, chain.Len())
	if len(r.inj.handles) > 0 {
		for _, node := range r.plan.cutOf {
			foreign[node]-- // the injector's own hook on each hooked layer
		}
	}
	spine := hooks(chain.Root())
	for n := range foreign {
		foreign[n] += hooks(chain.Node(n))
		spine -= hooks(chain.Node(n)) // what remains is the spine's own
	}
	c := hookCensus{gen: gen, foreignFrom: make([]bool, chain.Len()+1)}
	c.foreignFrom[chain.Len()] = spine > 0
	for n := chain.Len() - 1; n >= 0; n-- {
		c.foreignFrom[n] = c.foreignFrom[n+1] || foreign[n] > 0
	}
	return c
}

// RegionLegal reports whether the trial armed on the injector may run its
// suffix by region: neuron sites only, all inside one chain node, no
// weight fault, no activation rounding, and no hook past that node other
// than the injector's own. Its caller adds what the runner cannot see:
// one lane. The check costs the armed layers, not the model.
func (r *PrefixRunner) RegionLegal() bool {
	inj := r.inj
	if inj.quantizeActs || inj.fp16Acts || len(inj.weightUndo) > 0 {
		return false
	}
	lo, hi := len(inj.layers), -1
	for l, sites := range inj.neuronSites {
		if len(sites) > 0 {
			lo, hi = min(lo, l), max(hi, l)
		}
	}
	if hi < 0 {
		return false
	}
	node := r.plan.cutOf[lo]
	return r.plan.cutOf[hi] == node && !r.foreignHooksFrom(node+1)
}

// ForwardRegion runs a RegionLegal trial for item from boundary, the clean
// input of chain node cut (the model input for cut 0; cut is
// Plan().CutFor of the armed layer). It returns the logits, bit-identical
// to the dense suffix's, or masked when the fault died before them — the
// forward's output is then the clean forward's. Its store reads move no
// hit or miss counter.
func (r *PrefixRunner) ForwardRegion(item, cut int, boundary *tensor.Tensor) (logits *tensor.Tensor, masked bool, err error) {
	chain := r.plan.chain
	out, err := chain.Step(cut, boundary)
	if err != nil {
		return nil, false, err
	}
	if r.met.Region != nil {
		r.met.Region.Inc()
	}
	sc := &r.scratch
	sc.Reset()
	var reg *nn.Region
	clean, _, ok := r.store.Get(item, cut+1)
	if ok {
		reg, ok = nn.DiffRegion(out, clean, sc)
	}
	if !ok {
		logits, err = chain.ForwardFrom(cut+1, out)
		return logits, false, err
	}
	n := cut + 1
	for ; ; n++ {
		if len(reg.Patches) == 0 {
			if r.met.MaskedExits != nil {
				r.met.MaskedExits.Inc()
			}
			if r.met.ExitNode != nil {
				r.met.ExitNode.Observe(int64(n - 1))
			}
			return nil, true, nil
		}
		if n == chain.Len() {
			break
		}
		next, _, ok := r.store.Get(item, n+1)
		if !ok {
			break
		}
		stepped, ok, err := chain.StepRegion(n, reg, sc)
		if err != nil {
			return nil, false, err
		}
		if !ok || !stepped.Settle(next, sc) {
			break
		}
		reg = stepped
	}
	logits, err = chain.ForwardFrom(n, reg.Dense(sc))
	return logits, false, err
}
