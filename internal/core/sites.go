package core

import (
	"fmt"

	"gofi/internal/nn"
	"gofi/internal/obs"
	"gofi/internal/quant"
	"gofi/internal/tensor"
)

// AllBatches as a NeuronSite.Batch applies the same perturbation to every
// element of the batch (PyTorchFI's same-across-batch mode).
const AllBatches = -1

// NeuronSite addresses one neuron in one layer's output feature map:
// (layer, feature map, row, column) plus the batch element (or AllBatches).
type NeuronSite struct {
	Layer int // index into Injector.Layers()
	Batch int // batch element, or AllBatches
	C     int // feature map (channel); for linear layers, the unit index
	H, W  int // spatial coordinate; must be 0 for linear layers
}

// String implements fmt.Stringer.
func (s NeuronSite) String() string {
	return fmt.Sprintf("neuron{layer %d, batch %d, fmap %d, (%d,%d)}", s.Layer, s.Batch, s.C, s.H, s.W)
}

// WeightSite addresses one scalar in a layer's weight tensor by its
// coordinate (conv: [out, in/groups, ky, kx]; linear: [out, in]).
type WeightSite struct {
	Layer int
	Idx   []int
}

// String implements fmt.Stringer.
func (s WeightSite) String() string {
	return fmt.Sprintf("weight{layer %d, idx %v}", s.Layer, s.Idx)
}

// SiteError describes an illegal injection site with the profiled
// geometry that rejected it, giving users the debugging detail the paper
// emphasizes.
type SiteError struct {
	Site   fmt.Stringer
	Reason string
}

// Error implements error.
func (e *SiteError) Error() string {
	return fmt.Sprintf("core: illegal site %v: %s", e.Site, e.Reason)
}

// validateNeuron checks a neuron site against profiled geometry.
func (inj *Injector) validateNeuron(s NeuronSite) error {
	if s.Layer < 0 || s.Layer >= len(inj.layers) {
		return &SiteError{Site: s, Reason: fmt.Sprintf("layer index outside [0,%d)", len(inj.layers))}
	}
	li := inj.layers[s.Layer]
	shape := li.OutShape
	var c, h, w int
	if len(shape) == 4 {
		c, h, w = shape[1], shape[2], shape[3]
	} else {
		c, h, w = shape[1], 1, 1
	}
	if s.Batch != AllBatches && (s.Batch < 0 || s.Batch >= shape[0]) {
		return &SiteError{Site: s, Reason: fmt.Sprintf("batch outside [0,%d) of layer %s", shape[0], li.Path)}
	}
	if s.C < 0 || s.C >= c {
		return &SiteError{Site: s, Reason: fmt.Sprintf("fmap outside [0,%d) of layer %s", c, li.Path)}
	}
	if s.H < 0 || s.H >= h || s.W < 0 || s.W >= w {
		return &SiteError{Site: s, Reason: fmt.Sprintf("coordinate outside %dx%d of layer %s", h, w, li.Path)}
	}
	return nil
}

// DeclareNeuronFI arms neuron perturbations: at every subsequent forward
// pass, each site's current value is replaced by model.Perturb. Sites
// accumulate until Reset. All sites are validated before any is armed, so
// a failed call leaves the injector unchanged.
func (inj *Injector) DeclareNeuronFI(model ErrorModel, sites ...NeuronSite) error {
	if model == nil {
		return fmt.Errorf("core: nil error model")
	}
	if len(sites) == 0 {
		return fmt.Errorf("core: DeclareNeuronFI with no sites")
	}
	if err := inj.checkDType(model); err != nil {
		return err
	}
	for _, s := range sites {
		if err := inj.validateNeuron(s); err != nil {
			return err
		}
	}
	armed := sites
	if inj.laneArm.active {
		remapped, err := inj.laneRemap(sites)
		if err != nil {
			return err
		}
		armed = remapped
	}
	var tally *obs.Counter
	if inj.met != nil {
		tally = inj.met.modelCounter(model.Name())
	}
	for i, s := range armed {
		a := armedNeuron{site: s, declared: sites[i], model: model, tally: tally}
		if inj.laneArm.active {
			a.lane, a.trial, a.rng = true, inj.laneArm.trial, inj.laneArm.rng
		}
		inj.neuronSites[s.Layer] = append(inj.neuronSites[s.Layer], a)
	}
	return nil
}

// DeclareWeightFI applies weight perturbations immediately ("offline", off
// the inference critical path, the paper's weight-injection optimization).
// The original values are recorded and restored by RestoreWeights/Reset.
// All sites are validated before any weight is touched.
func (inj *Injector) DeclareWeightFI(model ErrorModel, sites ...WeightSite) error {
	if model == nil {
		return fmt.Errorf("core: nil error model")
	}
	if len(sites) == 0 {
		return fmt.Errorf("core: DeclareWeightFI with no sites")
	}
	if err := inj.checkDType(model); err != nil {
		return err
	}
	if inj.laneArm.active {
		// Weights are shared by every lane of a packed forward (and by
		// every worker replica), so a weight fault can never be confined
		// to one trial's lane. Reported before any mutation.
		return fmt.Errorf("%w: weight fault %v", ErrLaneUnsafe, sites[0])
	}
	type resolved struct {
		t      *tensor.Tensor
		qs     *nn.QuantState
		offset int
		layer  int
		reader int
	}
	hooks := inj.hookables()
	rs := make([]resolved, 0, len(sites))
	for _, s := range sites {
		if s.Layer < 0 || s.Layer >= len(inj.layers) {
			return &SiteError{Site: s, Reason: fmt.Sprintf("layer index outside [0,%d)", len(inj.layers))}
		}
		li := inj.layers[s.Layer]
		if len(s.Idx) != len(li.Weight) {
			return &SiteError{Site: s, Reason: fmt.Sprintf("index rank %d does not match weight shape %v of layer %s", len(s.Idx), li.Weight, li.Path)}
		}
		for d, x := range s.Idx {
			if x < 0 || x >= li.Weight[d] {
				return &SiteError{Site: s, Reason: fmt.Sprintf("index %v outside weight shape %v of layer %s", s.Idx, li.Weight, li.Path)}
			}
		}
		wt := hooks[s.Layer].params.Data
		r := resolved{t: wt, offset: wt.Offset(s.Idx...), layer: s.Layer, reader: s.Layer}
		if inj.quantized {
			r.qs = hooks[s.Layer].quant()
			if r.qs == nil {
				return &SiteError{Site: s, Reason: fmt.Sprintf("layer %s lost its QuantState after UseQuantizedModel", li.Path)}
			}
		}
		// Tied weights: an earlier hooked layer reading the same storage
		// sees the fault first.
		store := inj.weightStorage(hooks[s.Layer])
		for l := range hooks[:s.Layer] {
			if inj.weightStorage(hooks[l]) == store {
				r.reader = l
				break
			}
		}
		rs = append(rs, r)
	}
	var tally *obs.Counter
	if inj.met != nil {
		tally = inj.met.modelCounter(model.Name())
	}
	for i, r := range rs {
		var old, nv float32
		if r.qs != nil {
			// Quantized domain: the fault lives in the stored int8 code.
			// Perturb the code's real value under the channel's weight
			// scale, requantize, and set the code (SetCode keeps its row
			// sum and panel in step); the float32 master weights stay
			// untouched.
			oc := r.offset / (len(r.qs.WCodes) / len(r.qs.WScales))
			ws := r.qs.WScales[oc]
			oldCode := r.qs.WCodes[r.offset]
			old = ws.Dequantize(oldCode)
			nv = model.Perturb(old, PerturbContext{
				Layer: r.layer,
				Scale: ws,
				DType: inj.cfg.DType,
				Rand:  inj.rng,
			})
			newCode := ws.Quantize(nv)
			inj.weightUndo = append(inj.weightUndo, weightUndo{reader: r.reader, qs: r.qs, offset: r.offset, oldCode: oldCode})
			r.qs.SetCode(r.offset, newCode)
		} else {
			old = r.t.AtFlat(r.offset)
			inj.weightUndo = append(inj.weightUndo, weightUndo{reader: r.reader, tensor: r.t, offset: r.offset, value: old})
			nv = model.Perturb(old, PerturbContext{
				Layer: r.layer,
				Scale: inj.scales[r.layer],
				DType: inj.cfg.DType,
				Rand:  inj.rng,
			})
			r.t.SetFlat(r.offset, nv)
		}
		if inj.met != nil {
			inj.met.weight.Inc()
			tally.Inc()
		}
		if inj.traceOn {
			inj.record(InjectionRecord{
				Kind: "weight", Layer: r.layer, LayerPath: inj.layers[r.layer].Path,
				Batch: -1, Trial: -1, Site: sites[i].String(), Old: old, New: nv, Model: model.Name(),
			})
		}
	}
	return nil
}

// hookables lists the instrumented layers, index = hooked-layer index.
// Walked on demand, not cached at New: nn.ShareParams / nn.QuantizeModel
// may repoint a layer's weight storage afterwards.
func (inj *Injector) hookables() []hookable {
	hooks := make([]hookable, 0, len(inj.layers))
	walkHookables(inj.model, inj.cfg.IncludeLinear, func(h hookable) {
		hooks = append(hooks, h)
	})
	return hooks
}

// weightStorage identifies the memory a weight fault in h mutates, as a
// comparable value: the int8 plan (codes, row sums, panels) on a quantized
// injector, else the float32 weight buffer. Equal values mean a fault
// declared on one layer is read by the other — tied layers within a
// model, replicas of a layer across workers.
func (inj *Injector) weightStorage(h hookable) any {
	if inj.quantized {
		return h.quant()
	}
	return &h.params.Data.Data()[0]
}

// WeightStorageShared reports whether any two of the injectors mutate the
// same memory when a weight fault is declared on them: replicas built
// with nn.ShareParams / nn.ShareQuant do, deep-copied ones do not. A
// weight fault on one such replica is visible to the others' forwards,
// clean prefix included.
func WeightStorageShared(injs ...*Injector) bool {
	owner := make(map[any]*Injector)
	for _, inj := range injs {
		for _, h := range inj.hookables() {
			store := inj.weightStorage(h)
			if o, seen := owner[store]; seen && o != inj {
				return true
			}
			owner[store] = inj
		}
	}
	return false
}

// checkDType rejects error models that require calibration state the
// injector does not have yet: scale-dependent models (bit flips) on an
// INT8 injector need CalibrateINT8 before they can map values to codes.
func (inj *Injector) checkDType(model ErrorModel) error {
	if nd, ok := model.(interface{ NeedsINT8() bool }); ok && nd.NeedsINT8() {
		if inj.cfg.DType == INT8 && !inj.calibrated {
			return fmt.Errorf("core: error model %s on an INT8 injector requires CalibrateINT8 first", model.Name())
		}
	}
	return nil
}

// RestoreWeights undoes all weight perturbations in reverse order —
// float32 tensor elements and quantized weight codes (with their row sums
// and panels) alike.
func (inj *Injector) RestoreWeights() {
	for i := len(inj.weightUndo) - 1; i >= 0; i-- {
		u := inj.weightUndo[i]
		if u.qs != nil {
			u.qs.SetCode(u.offset, u.oldCode)
			continue
		}
		u.tensor.SetFlat(u.offset, u.value)
	}
	inj.weightUndo = nil
}

// Reset disarms all neuron faults, restores all weights and clears the
// injection counter and trace. The instrumentation hooks stay installed
// (their disarmed cost is a single check, per the paper's design).
func (inj *Injector) Reset() {
	for k := range inj.neuronSites {
		delete(inj.neuronSites, k)
	}
	inj.RestoreWeights()
	inj.Injections = 0
	inj.trace = nil
	inj.laneArm = laneState{}
}

// ArmedNeuronCount reports how many neuron sites are currently armed.
func (inj *Injector) ArmedNeuronCount() int {
	n := 0
	for _, s := range inj.neuronSites {
		n += len(s)
	}
	return n
}

// CalibrateINT8 profiles per-layer activation dynamic ranges on a
// representative input batch and stores symmetric INT8 scales. Required
// before INT8 bit-flip models; also enables EnableActQuant.
func (inj *Injector) CalibrateINT8(x *tensor.Tensor) error {
	if inj.cfg.DType != INT8 {
		return fmt.Errorf("core: CalibrateINT8 on %s injector", inj.cfg.DType)
	}
	maxes := make([]float32, len(inj.layers))
	hs := inj.withProfilingHooks(func(i int, out *tensor.Tensor) {
		if m := out.AbsMax(); m > maxes[i] {
			maxes[i] = m
		}
	})
	defer hs.Remove()
	if err := inj.safeRun(x); err != nil {
		return err
	}
	for i, m := range maxes {
		if m == 0 {
			inj.scales[i] = 1
		} else {
			inj.scales[i] = quant.Scale(m / 127)
		}
	}
	inj.calibrated = true
	return nil
}

// UseQuantizedModel binds an INT8 injector to a model quantized with
// nn.QuantizeModel: every hooked layer must carry a QuantState, whose
// calibrated output grid becomes the layer's injection scale. The int8
// forward path already produces on-grid activations, so no activation
// round-trip emulation is enabled — a BitFlip or StuckAt on a neuron is
// exactly a fault in the stored int8 activation code, and weight faults
// declared afterwards mutate stored int8 weight codes (undone by
// RestoreWeights/Reset) instead of the float32 master weights.
func (inj *Injector) UseQuantizedModel() error {
	if inj.cfg.DType != INT8 {
		return fmt.Errorf("core: UseQuantizedModel on %s injector (set Config.DType to INT8)", inj.cfg.DType)
	}
	idx := 0
	var missing string
	walkHookables(inj.model, inj.cfg.IncludeLinear, func(h hookable) {
		i := idx
		idx++
		qs := h.quant()
		if qs == nil {
			if missing == "" {
				missing = h.path
			}
			return
		}
		inj.scales[i] = qs.Out
	})
	if missing != "" {
		return fmt.Errorf("core: UseQuantizedModel: layer %s has no QuantState (run nn.QuantizeModel first)", missing)
	}
	inj.calibrated = true
	inj.quantized = true
	inj.quantizeActs = false
	return nil
}

// Quantized reports whether the injector drives an int8-quantized model.
func (inj *Injector) Quantized() bool { return inj.quantized }

// EnableActQuant turns on INT8 activation emulation: every hooked layer's
// output is round-tripped through INT8 on each forward pass.
func (inj *Injector) EnableActQuant(on bool) error {
	if on && !inj.calibrated {
		return fmt.Errorf("core: EnableActQuant requires CalibrateINT8 first")
	}
	inj.quantizeActs = on
	return nil
}

// Scales returns the calibrated per-layer INT8 scales.
func (inj *Injector) Scales() []quant.Scale {
	return append([]quant.Scale(nil), inj.scales...)
}

// HandleSet groups hook handles for bulk removal.
type HandleSet []nn.HookHandle

// Remove removes every handle in the set.
func (hs HandleSet) Remove() {
	for _, h := range hs {
		h.Remove()
	}
}

// withProfilingHooks installs a temporary observation hook on every
// hookable layer, calling fn with the layer index and its output.
func (inj *Injector) withProfilingHooks(fn func(i int, out *tensor.Tensor)) HandleSet {
	var hs HandleSet
	idx := 0
	walkHookables(inj.model, inj.cfg.IncludeLinear, func(h hookable) {
		i := idx
		idx++
		hb := h.layer.(hookRegistrar)
		hs = append(hs, hb.RegisterForwardHook(func(_ nn.Layer, _, out *tensor.Tensor) {
			fn(i, out)
		}))
	})
	return hs
}

// ObserveForward runs one forward pass while calling fn with every hooked
// layer's index and its output tensor. Observation hooks are registered
// after the injection (and quantization) hooks installed at construction,
// so fn sees exactly the activations downstream layers consume — including
// any armed perturbations. The hooks are removed before returning. fn must
// not retain out across calls; clone what it needs.
func (inj *Injector) ObserveForward(x *tensor.Tensor, fn func(layer int, out *tensor.Tensor)) (logits *tensor.Tensor, err error) {
	hs := inj.withProfilingHooks(fn)
	defer hs.Remove()
	defer func() {
		if r := recover(); r != nil {
			logits, err = nil, fmt.Errorf("core: observed inference failed: %v", r)
		}
	}()
	return nn.Run(inj.model, x), nil
}

func (inj *Injector) safeRun(x *tensor.Tensor) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: inference failed: %v", r)
		}
	}()
	nn.Run(inj.model, x)
	return nil
}
