// Package core implements GoFI, the paper's primary contribution: a
// runtime perturbation (fault-injection) tool for DNN models built on the
// nn substrate's forward-hook mechanism.
//
// Mirroring PyTorchFI's three-step workflow:
//
//  1. Build a model (package models or your own nn tree).
//  2. Initialize an Injector — it runs a single profiling ("dummy")
//     inference to learn every hookable layer's output geometry, which is
//     used to validate injection sites and produce precise error messages.
//  3. Declare perturbations: neuron faults are applied *at runtime* by
//     forward hooks; weight faults are applied *offline* by mutating the
//     weight tensors before inference (and are restored on Reset).
//
// When no faults are armed the per-layer hook performs a single length
// check and returns, so instrumentation overhead is negligible — the
// property the paper's Figure 3 measures.
//
// An Injector (and the model it instruments) is not safe for concurrent
// use; campaign code gives each worker goroutine its own injector+model
// replica sharing weight storage (nn.ShareParams).
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"gofi/internal/nn"
	"gofi/internal/obs"
	"gofi/internal/quant"
	"gofi/internal/tensor"
)

// DType selects the numeric behaviour perturbations emulate.
type DType int

// Supported model data types.
const (
	FP32 DType = iota + 1
	FP16
	INT8
)

// String implements fmt.Stringer.
func (d DType) String() string {
	switch d {
	case FP32:
		return "fp32"
	case FP16:
		return "fp16"
	case INT8:
		return "int8"
	default:
		return fmt.Sprintf("DType(%d)", int(d))
	}
}

// Bits returns the representation width bit-flip models draw positions
// from — the same table BitFlip.Perturb uses, exported so fault-space
// layers (stratification over bit positions, dedup keys) can mirror the
// perturb-time draw exactly.
func (d DType) Bits() int { return bitsFor(d) }

// Config parametrizes Injector initialization, mirroring PyTorchFI's
// fault_injection(model, h, w, batch_size, ...) signature.
type Config struct {
	// Batch, Channels, Height, Width describe the inference input. Zero
	// values default to 1, 3, 32, 32.
	Batch, Channels, Height, Width int
	// DType is the emulated model data type (default FP32). INT8 requires
	// a CalibrateINT8 call before bit-flip models can run.
	DType DType
	// IncludeLinear additionally hooks fully-connected layers; by default
	// only convolutions are instrumented, as in PyTorchFI.
	IncludeLinear bool
	// Seed seeds the injector's private RNG used by runtime error models.
	Seed int64
}

func (c Config) canon() Config {
	if c.Batch == 0 {
		c.Batch = 1
	}
	if c.Channels == 0 {
		c.Channels = 3
	}
	if c.Height == 0 {
		c.Height = 32
	}
	if c.Width == 0 {
		c.Width = 32
	}
	if c.DType == 0 {
		c.DType = FP32
	}
	return c
}

// LayerInfo describes one hookable layer discovered by profiling.
type LayerInfo struct {
	Index    int    // dense index among hooked layers, used in Site.Layer
	Path     string // dotted path from nn.Walk
	Kind     string // "conv" or "linear"
	OutShape []int  // output shape observed during the dummy inference
	Weight   []int  // weight tensor shape
}

// Injector instruments a model for fault injection.
type Injector struct {
	model nn.Layer
	cfg   Config
	rng   *rand.Rand

	layers  []LayerInfo
	handles []nn.HookHandle

	// Armed neuron faults, grouped by layer index.
	neuronSites map[int][]armedNeuron

	// Open multi-trial arming lane (see lanes.go).
	laneArm laneState

	// Offline weight perturbations and their undo log.
	weightUndo []weightUndo

	// Reduced-precision activation emulation state.
	scales       []quant.Scale
	calibrated   bool
	quantizeActs bool
	fp16Acts     bool

	// quantized marks the injector as driving a model whose layers carry
	// nn.QuantState plans (see UseQuantizedModel): activation scales come
	// from the plans, and weight faults mutate stored int8 codes.
	quantized bool

	// Injection trace (see EnableTrace).
	traceOn bool
	trace   []InjectionRecord

	// Optional metrics wiring (see SetMetrics); nil keeps the armed path
	// free of accounting.
	met *injMetrics

	// Injections counts neuron perturbations actually applied at runtime
	// since the last Reset (diagnostics and tests).
	Injections int
}

type armedNeuron struct {
	site  NeuronSite
	model ErrorModel
	// declared is the site as the caller spelled it, BEFORE any lane
	// remap. Trace records render this one: a trial's site text must not
	// depend on which batch lane a packed forward happened to assign it
	// (lane placement varies with pack composition, which varies with
	// shard boundaries — and record streams are part of the campaign
	// byte-identity contract).
	declared NeuronSite
	// tally is the per-error-model applied counter, resolved at
	// declaration time (nil when no registry was attached).
	tally *obs.Counter
	// lane marks a site armed through a BeginLane window; site.Batch is
	// then the assigned batch lane, trial tags its records, and rng (the
	// trial's private stream) overrides the injector RNG for perturb-time
	// draws so packed trials draw exactly what they would draw alone.
	lane  bool
	trial int
	rng   *rand.Rand
}

type weightUndo struct {
	// reader is the earliest hooked layer whose forward reads the mutated
	// storage: the faulted layer itself, or an earlier one tied to the
	// same weights. Nothing computed before it can observe the fault.
	reader int

	tensor *tensor.Tensor
	offset int
	value  float32

	// Quantized-domain entries (qs != nil) restore an int8 weight code
	// (with its row sum and panel) instead of a float32 tensor element.
	qs      *nn.QuantState
	oldCode int8
}

type hookable struct {
	layer  nn.Layer
	params *nn.Param
	kind   string
	path   string
}

// quant returns the layer's int8 execution plan, or nil.
func (h hookable) quant() *nn.QuantState {
	switch v := h.layer.(type) {
	case *nn.Conv2d:
		return v.Quant()
	case *nn.Linear:
		return v.Quant()
	}
	return nil
}

// hookRegistrar is satisfied by every layer embedding nn.Base.
type hookRegistrar interface {
	RegisterForwardHook(nn.ForwardHook) nn.HookHandle
}

// walkHookables visits the instrumentable layers (convolutions, plus
// linear layers when includeLinear) in deterministic walk order.
func walkHookables(model nn.Layer, includeLinear bool, fn func(hookable)) {
	nn.Walk(model, func(path string, l nn.Layer) {
		switch v := l.(type) {
		case *nn.Conv2d:
			fn(hookable{layer: l, params: v.Weight(), kind: "conv", path: path})
		case *nn.Linear:
			if includeLinear {
				fn(hookable{layer: l, params: v.Weight(), kind: "linear", path: path})
			}
		}
	})
}

// New profiles the model with a dummy inference and installs the
// per-layer instrumentation hooks. The model must map
// [Batch,Channels,Height,Width] to logits; profiling failures (e.g. a
// geometry the model cannot consume) are reported as errors, not panics.
func New(model nn.Layer, cfg Config) (inj *Injector, err error) {
	cfg = cfg.canon()
	if model == nil {
		return nil, errors.New("core: nil model")
	}
	inj = &Injector{
		model:       model,
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		neuronSites: make(map[int][]armedNeuron),
	}

	// Discover hookable layers in deterministic walk order.
	var hooks []hookable
	walkHookables(model, cfg.IncludeLinear, func(h hookable) {
		hooks = append(hooks, h)
	})
	if len(hooks) == 0 {
		return nil, errors.New("core: model has no hookable (conv) layers")
	}

	// Profiling hooks record output shapes during the dummy inference.
	shapes := make([][]int, len(hooks))
	profHandles := make([]nn.HookHandle, 0, len(hooks))
	for i, h := range hooks {
		i := i
		hb, ok := h.layer.(hookRegistrar)
		if !ok {
			return nil, fmt.Errorf("core: layer %s does not support hooks", h.path)
		}
		profHandles = append(profHandles, hb.RegisterForwardHook(func(_ nn.Layer, _, out *tensor.Tensor) {
			shapes[i] = out.Shape()
		}))
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("core: profiling inference failed for input [%d,%d,%d,%d]: %v",
					cfg.Batch, cfg.Channels, cfg.Height, cfg.Width, r)
			}
		}()
		dummy := tensor.New(cfg.Batch, cfg.Channels, cfg.Height, cfg.Width)
		nn.Run(model, dummy)
	}()
	for _, h := range profHandles {
		h.Remove()
	}
	if err != nil {
		return nil, err
	}

	// Record layer geometry and install the permanent injection hooks.
	inj.layers = make([]LayerInfo, len(hooks))
	inj.scales = make([]quant.Scale, len(hooks))
	for i, h := range hooks {
		if shapes[i] == nil {
			return nil, fmt.Errorf("core: layer %s never executed during profiling (dead branch?)", h.path)
		}
		inj.layers[i] = LayerInfo{
			Index:    i,
			Path:     h.path,
			Kind:     h.kind,
			OutShape: shapes[i],
			Weight:   h.params.Data.Shape(),
		}
		inj.scales[i] = 1
		inj.handles = append(inj.handles, h.layer.(hookRegistrar).RegisterForwardHook(inj.hookFor(i)))
	}
	return inj, nil
}

// hookFor builds layer i's permanent forward hook. The fast path — no
// precision emulation, no armed sites — is two flag checks, a map lookup
// and a length check.
func (inj *Injector) hookFor(i int) nn.ForwardHook {
	return func(_ nn.Layer, _, out *tensor.Tensor) {
		if inj.quantizeActs || inj.fp16Acts {
			inj.roundActivations(i, out)
		}
		sites := inj.neuronSites[i]
		if len(sites) == 0 {
			return
		}
		shape := out.Shape()
		for _, a := range sites {
			inj.applyNeuron(out, shape, i, a)
		}
	}
}

func (inj *Injector) applyNeuron(out *tensor.Tensor, shape []int, layer int, a armedNeuron) {
	// Neuron outputs may be rank 4 (conv) or rank 2 (linear).
	var c, h, w int
	if len(shape) == 4 {
		c, h, w = shape[1], shape[2], shape[3]
	} else {
		c, h, w = shape[1], 1, 1
	}
	apply := func(b int) {
		rng := inj.rng
		if a.rng != nil {
			rng = a.rng
		}
		off := ((b*c+a.site.C)*h+a.site.H)*w + a.site.W
		old := out.AtFlat(off)
		nv := a.model.Perturb(old, PerturbContext{
			Layer: layer,
			Scale: inj.scales[layer],
			DType: inj.cfg.DType,
			Rand:  rng,
		})
		out.SetFlat(off, nv)
		inj.Injections++
		if m := inj.met; m != nil {
			m.neuron.Inc()
			if a.tally != nil {
				a.tally.Inc()
			}
		}
		if inj.traceOn {
			trial := -1
			if a.lane {
				trial = a.trial
			}
			inj.record(InjectionRecord{
				Kind: "neuron", Layer: layer, LayerPath: inj.layers[layer].Path,
				Batch: b, Trial: trial, Site: a.declared.String(), Old: old, New: nv, Model: a.model.Name(),
			})
		}
	}
	if a.site.Batch == AllBatches {
		for b := 0; b < shape[0]; b++ {
			apply(b)
		}
		return
	}
	// Declaration-time validation checks the site against the profiled
	// geometry, but a forward pass may run with a smaller batch than the
	// injector was profiled for (campaign trials feed batch-1 inputs to a
	// batch-K profile). Silently skipping the site here would void the
	// trial without anyone noticing; hooks cannot return errors, so
	// surface the mismatch as a panic naming the layer — campaign trial
	// recovery turns it into a per-trial error.
	if a.site.Batch >= shape[0] {
		panic(fmt.Sprintf("core: armed site %v of layer %s: batch element %d outside runtime batch %d (forward input smaller than profiled batch %d)",
			a.site, inj.layers[layer].Path, a.site.Batch, shape[0], inj.cfg.Batch))
	}
	apply(a.site.Batch)
}

// Layers returns the profiled hookable layers.
func (inj *Injector) Layers() []LayerInfo {
	return append([]LayerInfo(nil), inj.layers...)
}

// Model returns the instrumented model.
func (inj *Injector) Model() nn.Layer { return inj.model }

// Config returns the canonicalized configuration.
func (inj *Injector) Config() Config { return inj.cfg }

// Summary renders the profiled geometry, the tool's "detailed debugging
// messages" aid.
func (inj *Injector) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "GoFI injector: %d hookable layers, input [%d,%d,%d,%d], dtype %s\n",
		len(inj.layers), inj.cfg.Batch, inj.cfg.Channels, inj.cfg.Height, inj.cfg.Width, inj.cfg.DType)
	for _, l := range inj.layers {
		fmt.Fprintf(&b, "  [%3d] %-6s %-40s out %v weight %v\n", l.Index, l.Kind, l.Path, l.OutShape, l.Weight)
	}
	return b.String()
}

// Detach removes all instrumentation hooks; the injector must not be used
// afterwards. Weight perturbations are restored first.
func (inj *Injector) Detach() {
	inj.RestoreWeights()
	for _, h := range inj.handles {
		h.Remove()
	}
	inj.handles = nil
}
