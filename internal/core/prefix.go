package core

import (
	"fmt"
	"time"

	"gofi/internal/nn"
	"gofi/internal/obs"
	"gofi/internal/tensor"
)

// Clean-prefix activation reuse. In a perturbation campaign nearly every
// trial re-executes the identical clean forward pass up to the injected
// layer; for uniformly drawn single-site faults that wasted prefix
// averages about half the network. The pieces here let a campaign run
// the clean prefix once per (input, boundary), checkpoint the boundary
// activation, and resume each injected trial there — with bit-identical
// results, because the checkpoint is a bitwise copy of exactly what the
// full forward would have fed the suffix.

// MinArmedLayer reports the lowest hooked-layer index an armed fault can
// change the output of: resuming a forward pass from a clean activation
// computed below that layer is sound. A neuron fault counts at its own
// layer; a weight fault at the earliest layer that reads the mutated
// storage (its own, or an earlier one tied to the same weights — see
// weightUndo.reader), because the offline mutation cannot change an
// activation computed before that layer runs. When nothing is armed it
// returns len(Layers()): every hooked layer is clean and any boundary is
// reusable.
//
// ok reports whether such a resume is sound at all. It is true for every
// fault this injector can arm (weight faults used to answer (0, false));
// the result stays in the signature for its callers. What the injector
// cannot see is storage shared with ANOTHER injector; a caller that runs
// replicas concurrently decides that with WeightStorageShared.
func (inj *Injector) MinArmedLayer() (minLayer int, ok bool) {
	minLayer = len(inj.layers)
	for l, sites := range inj.neuronSites {
		if len(sites) > 0 && l < minLayer {
			minLayer = l
		}
	}
	for _, u := range inj.weightUndo {
		if u.reader < minLayer {
			minLayer = u.reader
		}
	}
	return minLayer, true
}

// WeightFaultsArmed reports whether any offline weight perturbation is in
// place (declared and not yet restored).
func (inj *Injector) WeightFaultsArmed() bool { return len(inj.weightUndo) > 0 }

// PrefixPlan maps the injector's hooked-layer indices onto the model's
// pure-chain decomposition (nn.PlanChain). cutOf[i] is the chain node
// containing hooked layer i; the clean prefix for a trial whose earliest
// armed layer is i is chain nodes [0, cutOf[i]).
type PrefixPlan struct {
	chain *nn.Chain
	cutOf []int
}

// BuildPrefixPlan plans the instrumented model's chain and locates every
// hooked layer in it. It fails only if the model's hookable layers cannot
// be re-discovered from the chain nodes — a structurally changed model,
// which also invalidates the injector itself.
func (inj *Injector) BuildPrefixPlan() (*PrefixPlan, error) {
	chain := nn.PlanChain(inj.model)
	cutOf := make([]int, 0, len(inj.layers))
	for node := 0; node < chain.Len(); node++ {
		n := node
		walkHookables(chain.Node(n), inj.cfg.IncludeLinear, func(hookable) {
			cutOf = append(cutOf, n)
		})
	}
	if len(cutOf) != len(inj.layers) {
		return nil, fmt.Errorf("core: prefix plan found %d hookable layers in the chain, injector profiled %d (model changed since New?)", len(cutOf), len(inj.layers))
	}
	return &PrefixPlan{chain: chain, cutOf: cutOf}, nil
}

// Chain returns the underlying chain decomposition.
func (p *PrefixPlan) Chain() *nn.Chain { return p.chain }

// CutFor returns the deepest sound chain cut for a trial whose earliest
// armed hooked layer is minLayer: every armed site lies at or after the
// returned node, so nodes [0, cut) compute clean activations even on an
// armed injector. minLayer == len(cutOf) (nothing armed) cuts at the
// chain end — the boundary is the model output itself. A cut of 0 means
// no reusable prefix exists (the fault sits in the first node).
func (p *PrefixPlan) CutFor(minLayer int) int {
	if minLayer >= len(p.cutOf) {
		return p.chain.Len()
	}
	if minLayer < 0 {
		return 0
	}
	return p.cutOf[minLayer]
}

// PrefixMetrics carries the optional observability handles a
// PrefixRunner records through. Any field may be nil. Hit/miss counts
// depend on scheduling and store pressure, so — like the engine's gauges
// — they describe a particular run, not the (Seed, Trials) contract.
type PrefixMetrics struct {
	// Hits / Misses count checkpoint-store lookups during armed forwards.
	Hits, Misses *obs.Counter
	// Fallbacks counts armed forwards that ran the full model because no
	// clean prefix exists: the earliest layer a fault reaches sits in
	// chain node 0.
	Fallbacks *obs.Counter
	// SavedNS observes, on every hit, the nanoseconds the checkpointed
	// prefix originally cost — the recomputation the hit avoided.
	SavedNS *obs.Histogram
	// Region counts forwards that ran their suffix by region
	// (ForwardRegion); MaskedExits those of them that stopped because the
	// fault was masked, and ExitNode observes the chain node whose output
	// settled back to clean.
	Region, MaskedExits *obs.Counter
	ExitNode            *obs.Histogram
}

// PrefixRunner executes armed inferences for one injector, resuming from
// checkpointed clean-prefix activations whenever a clean prefix exists
// and running the full forward pass otherwise (earliest reached layer in
// the first chain node). Neuron and weight faults resume alike. Like the
// injector and model it wraps, a PrefixRunner is confined to one
// goroutine; the checkpoint store under it is not, and runners over
// replicas of one model share one.
type PrefixRunner struct {
	inj   *Injector
	plan  *PrefixPlan
	store *tensor.CheckpointStore
	met   PrefixMetrics
	// nodeNS holds the minimum observed clean forward cost of each chain
	// node across every checkpoint walk (Warm and Boundary misses). The
	// minimum is the robust estimate: a node's first execution may pay
	// allocation and cache warmup that later walks do not.
	nodeNS []int64
	// scratch holds the region suffix's patches and crops (region.go);
	// hooks is its cached census of the model's hooks.
	scratch nn.RegionScratch
	hooks   hookCensus
}

// NewPrefixRunner builds a runner over inj with a checkpoint store of its
// own, of budgetBytes (see tensor.NewCheckpointStore).
func NewPrefixRunner(inj *Injector, budgetBytes int64) (*PrefixRunner, error) {
	return NewPrefixRunnerWithStore(inj, tensor.NewCheckpointStore(budgetBytes))
}

// NewPrefixRunnerWithStore builds a runner over inj that checkpoints into
// store. Runners may share a store when their injectors instrument
// replicas of one model fed the same items: a clean activation is then
// the same bit pattern whichever replica computed it, which is all a
// snapshot is.
func NewPrefixRunnerWithStore(inj *Injector, store *tensor.CheckpointStore) (*PrefixRunner, error) {
	plan, err := inj.BuildPrefixPlan()
	if err != nil {
		return nil, err
	}
	return &PrefixRunner{inj: inj, plan: plan, store: store}, nil
}

// SetMetrics attaches observability handles; a zero PrefixMetrics (or
// nil fields) keeps the paths unaccounted.
func (r *PrefixRunner) SetMetrics(m PrefixMetrics) { r.met = m }

// Plan returns the runner's prefix plan.
func (r *PrefixRunner) Plan() *PrefixPlan { return r.plan }

// noteNodeCost folds one timed chain-node execution into the runner's
// per-node cost estimates (minimum across walks; see nodeNS).
func (r *PrefixRunner) noteNodeCost(node int, ns int64) {
	if r.nodeNS == nil {
		r.nodeNS = make([]int64, r.plan.chain.Len())
	}
	if ns <= 0 {
		ns = 1 // a degenerate clock read still marks the node observed
	}
	if cur := r.nodeNS[node]; cur == 0 || ns < cur {
		r.nodeNS[node] = ns
	}
}

// NodeCostsNS reports the per-chain-node clean forward costs observed so
// far (minimum nanoseconds across checkpoint walks), or nil if no walk
// has executed. A zero entry means that node has not been walked yet.
// The campaign scheduler prices candidate trial plans with this table.
func (r *PrefixRunner) NodeCostsNS() []int64 {
	if r.nodeNS == nil {
		return nil
	}
	return append([]int64(nil), r.nodeNS...)
}

// Store returns the runner's checkpoint store (diagnostics and tests).
func (r *PrefixRunner) Store() *tensor.CheckpointStore { return r.store }

// Warm runs one clean (disarmed) inference for item, checkpointing every
// chain-node boundary along the way, and returns the model output. A
// campaign that must run a clean pass per input anyway (for reference
// predictions) warms the store for free: while the store's budget holds
// the item's snapshots, every armed trial on it resumes from a direct
// hit, whatever its cut. Warm records no hit/miss metrics — those
// describe armed trial forwards. If anything is armed on the injector,
// Warm refuses the checkpoint walk and behaves as nn.Run.
func (r *PrefixRunner) Warm(item int, x *tensor.Tensor) (*tensor.Tensor, error) {
	if minLayer, ok := r.inj.MinArmedLayer(); !ok || minLayer < len(r.inj.layers) {
		return nn.Run(r.inj.Model(), x), nil
	}
	cur, elapsed := x, int64(0)
	for n := 0; n < r.plan.chain.Len(); n++ {
		t0 := time.Now()
		next, err := r.plan.chain.Step(n, cur)
		if err != nil {
			return nil, err
		}
		stepNS := time.Since(t0).Nanoseconds()
		r.noteNodeCost(n, stepNS)
		elapsed += stepNS
		cur = r.store.Put(item, n+1, next, elapsed)
	}
	return cur, nil
}

// Forward runs one inference with whatever faults are currently armed on
// the injector. item keys the checkpoint store and must identify the
// model input x (campaigns use the sample index). The result is
// bit-identical to nn.Run(inj.Model(), x): the reused prefix is a bitwise
// snapshot of the clean activations the full pass would recompute, every
// armed hook fires in the suffix exactly as it would in the full pass,
// and every layer that reads a mutated weight runs in the suffix.
// Geometry panics in the full-forward path propagate (as they do
// for nn.Run); the caller's trial recovery owns them.
func (r *PrefixRunner) Forward(item int, x *tensor.Tensor) (*tensor.Tensor, error) {
	minLayer, ok := r.inj.MinArmedLayer()
	if ok {
		if cut := r.plan.CutFor(minLayer); cut > 0 {
			boundary, err := r.Boundary(item, cut, func() *tensor.Tensor { return x })
			if err != nil {
				return nil, err
			}
			return r.plan.chain.ForwardFrom(cut, boundary)
		}
	}
	if r.met.Fallbacks != nil {
		r.met.Fallbacks.Inc()
	}
	return nn.Run(r.inj.Model(), x), nil
}

// Boundary returns the clean activation at chain node cut for the model
// input that item keys in the checkpoint store: the tensor that
// ForwardFrom(cut, ...) resumes from. On a store hit it is the
// checkpointed snapshot; on a miss the prefix is recomputed from the
// deepest earlier checkpoint of the item, snapshotting every boundary
// walked along the way (see the miss strategy below). cut == 0 returns
// the input itself — no reusable prefix. input materialises the model
// input and is called only when the walk starts at node 0: a hit, or a
// miss with an earlier checkpoint to resume from, never pays for
// synthesising it. Boundary never executes layers at or
// after cut, so it is sound on an armed injector whenever every armed
// site lies at or after the cut (the MinArmedLayer/CutFor contract): the
// prefix layers' hooks fire, but carry no armed sites to apply, and no
// prefix layer reads a mutated weight. The
// batched campaign path calls this directly and tiles the result across
// K trial lanes before running the suffix once for a whole pack.
func (r *PrefixRunner) Boundary(item, cut int, input func() *tensor.Tensor) (*tensor.Tensor, error) {
	if cut <= 0 {
		return input(), nil
	}
	if cut > r.plan.chain.Len() {
		return nil, fmt.Errorf("core: boundary cut %d outside chain [0,%d]", cut, r.plan.chain.Len())
	}
	boundary, savedNs, hit := r.store.Get(item, cut)
	if hit {
		if r.met.Hits != nil {
			r.met.Hits.Inc()
		}
		if r.met.SavedNS != nil {
			r.met.SavedNS.Observe(savedNs)
		}
		return boundary, nil
	}
	// Miss. Cuts vary trial to trial (the fault site moves), so a
	// store keyed only on the exact cut would miss almost always.
	// Instead, resume from the deepest earlier checkpoint of this
	// item and snapshot every node boundary walked on the way to
	// the cut: after one deep prefix, any future cut for the item
	// is a direct hit. Each boundary's recorded cost accumulates
	// the walk below it, approximating the full [0, node) prefix
	// cost a later hit avoids.
	start, elapsed := 0, int64(0)
	var cur *tensor.Tensor
	for j := cut - 1; j > 0; j-- {
		if b, ns, ok := r.store.Get(item, j); ok {
			start, cur, elapsed = j, b, ns
			break
		}
	}
	if start == 0 {
		cur = input()
	}
	for n := start; n < cut; n++ {
		t0 := time.Now()
		next, err := r.plan.chain.Step(n, cur)
		if err != nil {
			return nil, err
		}
		stepNS := time.Since(t0).Nanoseconds()
		r.noteNodeCost(n, stepNS)
		elapsed += stepNS
		cur = r.store.Put(item, n+1, next, elapsed)
	}
	if r.met.Misses != nil {
		r.met.Misses.Inc()
	}
	return cur, nil
}
