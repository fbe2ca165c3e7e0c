package core

import (
	"fmt"
	"time"

	"gofi/internal/nn"
	"gofi/internal/obs"
	"gofi/internal/tensor"
)

// Observability wiring. Two independent, opt-in mechanisms:
//
//   - SetMetrics attaches perturbation accounting (exact counters for
//     applied neuron/weight perturbations, tallied per error model) to
//     the injector. Cost on the armed path is one atomic add per
//     applied perturbation; the disarmed hook path is untouched.
//   - TimeLayers / EnableLayerTiming install per-layer forward timing
//     through the same pre/forward hook mechanism the injector itself
//     uses. Timing hooks only read the clock — they never touch the
//     output tensor, so instrumented inference stays byte-identical.
//
// Both mechanisms accept a nil registry as "off".

// Metric names recorded by an Injector with metrics attached.
const (
	// MetricNeuronPerturbations counts neuron perturbations actually
	// applied at runtime (one per perturbed batch element).
	MetricNeuronPerturbations = "core.perturb.neuron"
	// MetricWeightPerturbations counts weight scalars perturbed offline.
	MetricWeightPerturbations = "core.perturb.weight"
	// MetricModelPrefix prefixes the per-error-model applied tallies,
	// e.g. "core.model.bitflip[rand]".
	MetricModelPrefix = "core.model."
)

// injMetrics holds the pre-resolved counter handles so the armed hot
// path records without map lookups or locks.
type injMetrics struct {
	reg    *obs.Registry
	neuron *obs.Counter
	weight *obs.Counter
}

func (m *injMetrics) modelCounter(name string) *obs.Counter {
	return m.reg.Counter(MetricModelPrefix + name)
}

// SetMetrics attaches (or, with nil, detaches) a metrics registry.
// Perturbations applied afterwards are counted under
// MetricNeuronPerturbations / MetricWeightPerturbations and tallied per
// error model. Call it before declaring faults: per-model tallies are
// resolved at declaration time, so sites armed while no registry was
// attached stay untallied (the aggregate counters still count them).
func (inj *Injector) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		inj.met = nil
		return
	}
	inj.met = &injMetrics{
		reg:    reg,
		neuron: reg.Counter(MetricNeuronPerturbations),
		weight: reg.Counter(MetricWeightPerturbations),
	}
}

// Metrics returns the attached registry (nil when detached).
func (inj *Injector) Metrics() *obs.Registry {
	if inj.met == nil {
		return nil
	}
	return inj.met.reg
}

// timingRegistrar is satisfied by every layer embedding nn.Base; layer
// timing needs the pre-hook to start the clock and the forward hook to
// stop it.
type timingRegistrar interface {
	RegisterForwardHook(nn.ForwardHook) nn.HookHandle
	RegisterForwardPreHook(nn.ForwardPreHook) nn.HookHandle
}

// ObserveLayers installs per-layer forward timing on every hookable
// layer: a pre-hook records the start time and a forward hook hands the
// elapsed wall clock to the layer's observer, which newObserver builds
// once per layer from its walk index and path. Because forward hooks run
// in registration order, timing installed after the injector's own hooks
// includes their cost — which is exactly what the overhead study wants to
// measure. The returned HandleSet removes the instrumentation.
//
// Timing shares the model's single-goroutine discipline: do not run a
// timed model from multiple goroutines.
func ObserveLayers(model nn.Layer, includeLinear bool, newObserver func(index int, path string) func(time.Duration)) HandleSet {
	var hs HandleSet
	idx := 0
	walkHookables(model, includeLinear, func(h hookable) {
		i := idx
		idx++
		tr, ok := h.layer.(timingRegistrar)
		if !ok {
			return
		}
		observe := newObserver(i, h.path)
		var t0 time.Time
		hs = append(hs, tr.RegisterForwardPreHook(func(nn.Layer, *tensor.Tensor) {
			t0 = time.Now()
		}))
		hs = append(hs, tr.RegisterForwardHook(func(nn.Layer, *tensor.Tensor, *tensor.Tensor) {
			observe(time.Since(t0))
		}))
	})
	return hs
}

// TimeLayers is ObserveLayers into reg's histograms named
//
//	<prefix><index>.<path>.forward_ns
//
// (index zero-padded so lexicographic order is walk order). A nil
// registry installs nothing.
func TimeLayers(model nn.Layer, includeLinear bool, reg *obs.Registry, prefix string) HandleSet {
	if reg == nil {
		return nil
	}
	return ObserveLayers(model, includeLinear, func(i int, path string) func(time.Duration) {
		hist := reg.Histogram(fmt.Sprintf("%s%03d.%s.forward_ns", prefix, i, path))
		return func(d time.Duration) { hist.Observe(int64(d)) }
	})
}

// EnableLayerTiming is TimeLayers over the injector's own hookable
// layers, named under "layer.". The timing hooks run after the
// injection hooks installed at New, so the recorded per-layer times
// include the instrumentation cost the paper's Figure 3 claims is
// negligible.
func (inj *Injector) EnableLayerTiming(reg *obs.Registry) HandleSet {
	return TimeLayers(inj.model, inj.cfg.IncludeLinear, reg, "layer.")
}
