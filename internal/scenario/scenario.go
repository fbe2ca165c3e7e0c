// Package scenario implements GoFI's declarative fault-injection
// scenarios: a versioned YAML/JSON config tree that maps onto the
// model's module hierarchy (MRFI-style, Huang et al.), with per-layer
// enable / error-model / bit-range / rate overrides selected by
// glob-or-prefix layer matching, pluggable site selectors (fixed,
// random-by-rate, per-layer, exhaustive sweep) and per-layer observers
// (SDC, MSE against the clean run).
//
// A Scenario is pure data. Compile resolves it against a profiled
// model's layer geometry into a Compiled arming hook that plugs into
// campaign.Config.ArmTrial, so schedules, prefix reuse, trial batching,
// stop rules and sharding all compose unchanged — and a compiled
// scenario whose shape matches a hand-wired config reproduces its
// aggregates byte-for-byte (the draw sequences are identical, see
// compile.go).
//
// Like the serve wire format (DESIGN.md §16) the schema is versioned
// and strict: decoding rejects unknown fields and unsupported versions
// with named errors, and Canon∘Decode is idempotent.
package scenario

import (
	"errors"
	"fmt"
	"strings"

	"gofi/internal/campaign/stats"
	"gofi/internal/core"
)

// Version is the scenario schema version this build reads and writes.
const Version = 1

var (
	// ErrScenario tags every malformed-scenario error: syntax errors,
	// unknown fields, and Validate failures.
	ErrScenario = errors.New("scenario: invalid scenario")
	// ErrVersion tags scenarios whose scenario_version this build does
	// not support.
	ErrVersion = errors.New("scenario: unsupported scenario_version")
	// ErrCompile tags scenarios that are well-formed but do not fit the
	// model they are compiled against (rules matching no layer, sites
	// outside the profiled geometry, ...).
	ErrCompile = errors.New("scenario: scenario does not fit model")
)

// Scenario is the root of the config tree.
type Scenario struct {
	// V is the schema version (scenario_version in the document). Zero
	// canonicalizes to Version; anything else is rejected.
	V int `json:"scenario_version"`
	// Name labels the scenario in reports.
	Name string `json:"name,omitempty"`
	// Model describes the trained fixture the campaign runs against.
	Model ModelSpec `json:"model"`
	// Fault sets the campaign-wide fault domain and the default error
	// model; Layers overrides it per layer.
	Fault FaultSpec `json:"fault"`
	// Layers are per-layer overrides, applied in order to every layer
	// whose dotted path the rule's match selects (later rules win).
	Layers []Rule `json:"layers,omitempty"`
	// Selector chooses which site(s) each trial arms.
	Selector SelectorSpec `json:"selector"`
	// Observers attach per-layer map-reduce folds over the trial stream.
	Observers []ObserverSpec `json:"observers,omitempty"`
	// Run sets the campaign's execution shape.
	Run RunSpec `json:"run"`
}

// ModelSpec mirrors the model-fixture flags of the injection CLIs.
type ModelSpec struct {
	Arch    string   `json:"arch,omitempty"`    // registry name (default resnet18)
	Classes int      `json:"classes,omitempty"` // default 10
	InSize  int      `json:"in_size,omitempty"` // default 32
	Epochs  int      `json:"epochs,omitempty"`  // default 8
	Noise   *float64 `json:"noise,omitempty"`   // default 0.6
}

// FaultSpec is the campaign-wide fault domain.
type FaultSpec struct {
	// Backend selects the execution path: "f32" (default) or "int8"
	// (quantized inference; faults hit stored int8 codes).
	Backend string `json:"backend,omitempty"`
	// DType is the emulated value domain for f32-backend campaigns:
	// "fp32", "fp16" or "int8" (default "int8", the CLI default). The
	// int8 backend forces "int8".
	DType string `json:"dtype,omitempty"`
	// ActZeroPoint lets int8-backend calibration use asymmetric input
	// quantizers (the -act-zp flag).
	ActZeroPoint bool `json:"act_zeropoint,omitempty"`
	// Scope is "neuron" (default) or "weight".
	Scope string `json:"scope,omitempty"`
	// Error is the default error model (default single random bit flip).
	Error *ErrorSpec `json:"error,omitempty"`
	// Bits restricts random bit positions to the inclusive range
	// [lo, hi] of the emulated representation. Only meaningful for
	// bitflip/stuck models; empty means the full width.
	Bits []int `json:"bits,omitempty"`
}

// ErrorSpec names an error model plus its parameters.
type ErrorSpec struct {
	// Kind is one of: bitflip, stuck0, stuck1, random, zero, set,
	// gauss, gain.
	Kind string `json:"kind"`
	// Bit fixes the bit position for bitflip/stuck models (default:
	// drawn uniformly per injection, within the Bits range if any).
	Bit *int `json:"bit,omitempty"`
	// N > 1 turns bitflip into an N-bit upset (distinct positions).
	N int `json:"n,omitempty"`
	// Range is [lo, hi) for kind random (default [-1, 1)).
	Range []float64 `json:"range,omitempty"`
	// Value is the constant for kind set.
	Value float64 `json:"value,omitempty"`
	// Std is the standard deviation for kind gauss (default 1).
	Std float64 `json:"std,omitempty"`
	// Factor is the multiplier for kind gain (default 2).
	Factor float64 `json:"factor,omitempty"`
}

// Rule is one per-layer override. Match selects layers by dotted path:
// a literal matches the exact path or any dot-delimited prefix
// ("features" selects features.3.conv), and * / ? glob over the whole
// path. A rule that matches no layer fails Compile loudly.
type Rule struct {
	Match string `json:"match"`
	// Enable false removes the matched layers from selection.
	Enable *bool `json:"enable,omitempty"`
	// Error overrides the default error model on the matched layers.
	Error *ErrorSpec `json:"error,omitempty"`
	// Bits overrides the default bit range on the matched layers.
	Bits []int `json:"bits,omitempty"`
	// Rate overrides the per-layer fault rate (per-layer selector only).
	Rate *float64 `json:"rate,omitempty"`
}

// SelectorSpec chooses each trial's injection site(s).
type SelectorSpec struct {
	// Kind is one of:
	//   random    — Rate expected faults per trial, uniform over the
	//               enabled layers' sites (default, rate 1 ≡ the
	//               classic single-random-neuron campaign);
	//   per-layer — Rate (overridable per layer) faults in every
	//               enabled layer, in layer-index order;
	//   fixed     — the declared Sites, every trial;
	//   sweep     — exhaustive enumeration of Sweep's site range;
	//               trial t arms site t mod N.
	Kind string `json:"kind,omitempty"`
	// Rate is the expected fault count (random / per-layer; default 1).
	// Integer rates consume no extra randomness; fractional rates add
	// one Bernoulli draw per trial (per layer for per-layer).
	Rate float64 `json:"rate,omitempty"`
	// Sites lists the fixed selector's sites.
	Sites []SiteSpec `json:"sites,omitempty"`
	// Sweep declares the sweep selector's site range.
	Sweep *SweepSpec `json:"sweep,omitempty"`
}

// SiteSpec addresses fixed injection sites. Layer is a match expression
// (same syntax as Rule.Match); every enabled layer it selects gets the
// site.
type SiteSpec struct {
	Layer string `json:"layer"`
	C     int    `json:"c,omitempty"`
	H     int    `json:"h,omitempty"`
	W     int    `json:"w,omitempty"`
	// Idx is the weight coordinate for scope weight (conv:
	// [out, in/groups, ky, kx]; linear: [out, in]).
	Idx []int `json:"idx,omitempty"`
}

// SweepSpec bounds the sweep selector's enumeration: the enabled layers
// selected by Match (default all), crossed with the inclusive
// coordinate ranges (default each coordinate's full extent). Sites
// enumerate layer-major, then C, H, W ascending.
type SweepSpec struct {
	Match string `json:"match,omitempty"`
	C     []int  `json:"c,omitempty"`
	H     []int  `json:"h,omitempty"`
	W     []int  `json:"w,omitempty"`
}

// ObserverSpec attaches one per-layer observer fold.
type ObserverSpec struct {
	// Kind is "sdc" (per-layer SDC rate over the trials that hit the
	// layer) or "mse" (per-layer mean squared activation error vs the
	// clean run, re-executing observed trials on a private replica).
	Kind string `json:"kind"`
	// Limit caps how many trials the mse observer re-executes
	// (in trial-index order; 0 = all).
	Limit int `json:"limit,omitempty"`
}

// RunSpec is the campaign's execution shape. Everything here is a
// budget knob a CLI flag may override; none of it changes which fault a
// given trial index arms.
type RunSpec struct {
	// Trials is the campaign budget (default 1000). With the sweep
	// selector 0 means "one trial per enumerated site", filled at
	// compile time.
	Trials int `json:"trials,omitempty"`
	// Seed is the campaign's single source of randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Workers is the engine worker count (default 4).
	Workers int `json:"workers,omitempty"`
	// SkipErrors selects the SkipAndCount per-trial failure policy.
	SkipErrors bool `json:"skip_errors,omitempty"`
	// Stop configures the sequential early-stopping rule.
	Stop StopSpec `json:"stop,omitempty"`
}

// StopSpec mirrors -stop-ci / -stop-conf / -stop-min.
type StopSpec struct {
	CI   float64 `json:"ci,omitempty"`
	Conf float64 `json:"conf,omitempty"`
	Min  int     `json:"min,omitempty"`
}

// Rule is the stopping rule the block declares (off when CI is 0).
func (s StopSpec) Rule() stats.StopRule {
	return stats.StopRule{HalfWidth: s.CI, Confidence: s.Conf, MinTrials: s.Min}
}

// Selector kinds.
const (
	SelRandom   = "random"
	SelPerLayer = "per-layer"
	SelFixed    = "fixed"
	SelSweep    = "sweep"
)

// Observer kinds.
const (
	ObsSDC = "sdc"
	ObsMSE = "mse"
)

// Canon fills every defaultable field with its canonical value and
// normalizes spellings. Canon is idempotent and never errors; Validate
// checks the result.
func (sc Scenario) Canon() Scenario {
	if sc.V == 0 {
		sc.V = Version
	}
	if sc.Model.Arch == "" {
		sc.Model.Arch = "resnet18"
	}
	if sc.Model.Classes == 0 {
		sc.Model.Classes = 10
	}
	if sc.Model.InSize == 0 {
		sc.Model.InSize = 32
	}
	if sc.Model.Epochs == 0 {
		sc.Model.Epochs = 8
	}
	if sc.Model.Noise == nil {
		n := 0.6
		sc.Model.Noise = &n
	}
	if sc.Fault.Backend == "" {
		sc.Fault.Backend = "f32"
	}
	if sc.Fault.Backend == "int8" || sc.Fault.DType == "" {
		sc.Fault.DType = "int8"
	}
	if sc.Fault.Scope == "" {
		sc.Fault.Scope = "neuron"
	}
	if sc.Fault.Error == nil {
		sc.Fault.Error = &ErrorSpec{}
	}
	e := sc.Fault.Error.canon()
	sc.Fault.Error = &e
	if len(sc.Layers) > 0 {
		// Copy before rewriting rule error specs: Canon is a value method
		// and must not mutate the caller's backing array.
		ls := make([]Rule, len(sc.Layers))
		copy(ls, sc.Layers)
		sc.Layers = ls
		for i, r := range sc.Layers {
			if r.Error != nil {
				e := r.Error.canon()
				sc.Layers[i].Error = &e
			}
		}
	}
	if sc.Selector.Kind == "" {
		sc.Selector.Kind = SelRandom
	}
	sc.Selector.Kind = strings.ToLower(sc.Selector.Kind)
	if (sc.Selector.Kind == SelRandom || sc.Selector.Kind == SelPerLayer) && sc.Selector.Rate == 0 {
		sc.Selector.Rate = 1
	}
	if sc.Run.Trials == 0 && sc.Selector.Kind != SelSweep {
		sc.Run.Trials = 1000
	}
	if sc.Run.Seed == 0 {
		sc.Run.Seed = 1
	}
	if sc.Run.Workers == 0 {
		sc.Run.Workers = 4
	}
	if sc.Run.Stop.CI > 0 && sc.Run.Stop.Conf == 0 {
		sc.Run.Stop.Conf = stats.DefaultConfidence
	}
	return sc
}

func (e ErrorSpec) canon() ErrorSpec {
	e.Kind = strings.ToLower(e.Kind)
	if e.Kind == "" {
		e.Kind = "bitflip"
	}
	switch e.Kind {
	case "bitflip2": // legacy CLI spelling of a 2-bit upset
		e.Kind = "bitflip"
		if e.N == 0 {
			e.N = 2
		}
	case "random":
		if len(e.Range) == 0 {
			e.Range = []float64{-1, 1}
		}
	case "gauss":
		if e.Std == 0 {
			e.Std = 1
		}
	case "gain":
		if e.Factor == 0 {
			e.Factor = 2
		}
	}
	return e
}

// DTypeBits returns the emulated representation width of the
// canonicalized dtype.
func (sc Scenario) DTypeBits() int {
	switch sc.Fault.DType {
	case "fp16":
		return 16
	case "int8":
		return 8
	default:
		return 32
	}
}

// CoreDType maps the canonicalized dtype onto core's enum.
func (sc Scenario) CoreDType() core.DType {
	switch sc.Fault.DType {
	case "fp16":
		return core.FP16
	case "int8":
		return core.INT8
	default:
		return core.FP32
	}
}

func scErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrScenario, fmt.Sprintf(format, args...))
}

// Validate checks a canonicalized scenario. Errors wrap ErrScenario
// (ErrVersion for version mismatches).
func (sc Scenario) Validate() error {
	if sc.V != Version {
		return fmt.Errorf("%w: got %d, this build reads version %d", ErrVersion, sc.V, Version)
	}
	if sc.Model.Classes < 2 {
		return scErrf("model.classes must be ≥ 2, got %d", sc.Model.Classes)
	}
	if sc.Model.InSize < 1 {
		return scErrf("model.in_size must be positive, got %d", sc.Model.InSize)
	}
	if sc.Model.Epochs < 1 {
		return scErrf("model.epochs must be positive, got %d", sc.Model.Epochs)
	}
	if sc.Model.Noise != nil && *sc.Model.Noise < 0 {
		return scErrf("model.noise must be ≥ 0, got %g", *sc.Model.Noise)
	}
	switch sc.Fault.Backend {
	case "f32", "int8":
	default:
		return scErrf("fault.backend must be f32 or int8, got %q", sc.Fault.Backend)
	}
	switch sc.Fault.DType {
	case "fp32", "fp16", "int8":
	default:
		return scErrf("fault.dtype must be fp32, fp16 or int8, got %q", sc.Fault.DType)
	}
	if sc.Fault.Backend == "int8" && sc.Fault.DType != "int8" {
		return scErrf("the int8 backend implies fault.dtype int8, got %q", sc.Fault.DType)
	}
	if sc.Fault.ActZeroPoint && sc.Fault.Backend != "int8" {
		return scErrf("fault.act_zeropoint needs fault.backend int8")
	}
	switch sc.Fault.Scope {
	case "neuron", "weight":
	default:
		return scErrf("fault.scope must be neuron or weight, got %q", sc.Fault.Scope)
	}
	bits := sc.DTypeBits()
	if err := sc.Fault.Error.validate(bits, sc.Fault.Bits); err != nil {
		return fmt.Errorf("%s: %w", "fault", err)
	}
	for i, r := range sc.Layers {
		if r.Match == "" {
			return scErrf("layers[%d]: match is required", i)
		}
		if r.Rate != nil && *r.Rate < 0 {
			return scErrf("layers[%d]: rate must be ≥ 0, got %g", i, *r.Rate)
		}
		e := sc.Fault.Error
		if r.Error != nil {
			e = r.Error
		}
		b := sc.Fault.Bits
		if r.Bits != nil {
			b = r.Bits
		}
		if err := e.validate(bits, b); err != nil {
			return fmt.Errorf("layers[%d]: %w", i, err)
		}
	}
	if err := sc.validateSelector(); err != nil {
		return err
	}
	seen := map[string]bool{}
	for i, o := range sc.Observers {
		if o.Kind != ObsSDC && o.Kind != ObsMSE {
			return scErrf("observers[%d]: kind must be sdc or mse, got %q", i, o.Kind)
		}
		if seen[o.Kind] {
			return scErrf("observers[%d]: duplicate %s observer", i, o.Kind)
		}
		seen[o.Kind] = true
		if o.Limit < 0 {
			return scErrf("observers[%d]: limit must be ≥ 0, got %d", i, o.Limit)
		}
		if o.Limit != 0 && o.Kind != ObsMSE {
			return scErrf("observers[%d]: limit applies to the mse observer only", i)
		}
	}
	return sc.validateRun()
}

func (sc Scenario) validateSelector() error {
	sel := sc.Selector
	switch sel.Kind {
	case SelRandom, SelPerLayer:
		if sel.Rate <= 0 {
			return scErrf("selector.rate must be positive, got %g", sel.Rate)
		}
		if len(sel.Sites) != 0 || sel.Sweep != nil {
			return scErrf("selector.sites/sweep belong to the fixed/sweep selectors")
		}
		if sel.Kind == SelPerLayer && sc.Fault.Scope != "neuron" {
			return scErrf("the per-layer selector covers neuron faults only")
		}
	case SelFixed:
		if len(sel.Sites) == 0 {
			return scErrf("the fixed selector needs at least one site")
		}
		if sel.Rate != 0 || sel.Sweep != nil {
			return scErrf("selector.rate/sweep do not apply to the fixed selector")
		}
		for i, s := range sel.Sites {
			if s.Layer == "" {
				return scErrf("selector.sites[%d]: layer is required", i)
			}
			if sc.Fault.Scope == "weight" {
				if len(s.Idx) == 0 {
					return scErrf("selector.sites[%d]: weight sites need idx", i)
				}
				if s.C != 0 || s.H != 0 || s.W != 0 {
					return scErrf("selector.sites[%d]: weight sites take idx, not c/h/w", i)
				}
			} else if len(s.Idx) != 0 {
				return scErrf("selector.sites[%d]: neuron sites take c/h/w, not idx", i)
			}
			if s.C < 0 || s.H < 0 || s.W < 0 {
				return scErrf("selector.sites[%d]: negative coordinate", i)
			}
			for _, v := range s.Idx {
				if v < 0 {
					return scErrf("selector.sites[%d]: negative weight coordinate", i)
				}
			}
		}
	case SelSweep:
		if sc.Fault.Scope != "neuron" {
			return scErrf("the sweep selector covers neuron faults only")
		}
		if sel.Rate != 0 || len(sel.Sites) != 0 {
			return scErrf("selector.rate/sites do not apply to the sweep selector")
		}
		if sel.Sweep != nil {
			for _, rng := range [][]int{sel.Sweep.C, sel.Sweep.H, sel.Sweep.W} {
				if len(rng) == 0 {
					continue
				}
				if len(rng) != 2 || rng[0] < 0 || rng[1] < rng[0] {
					return scErrf("selector.sweep ranges are inclusive [lo, hi] with 0 ≤ lo ≤ hi, got %v", rng)
				}
			}
		}
	default:
		return scErrf("selector.kind must be random, per-layer, fixed or sweep, got %q", sel.Kind)
	}
	return nil
}

func (sc Scenario) validateRun() error {
	r := sc.Run
	if r.Trials < 0 {
		return scErrf("run.trials must be ≥ 0, got %d", r.Trials)
	}
	if r.Trials == 0 && sc.Selector.Kind != SelSweep {
		return scErrf("run.trials is required")
	}
	if r.Workers < 1 {
		return scErrf("run.workers must be positive, got %d", r.Workers)
	}
	if r.Stop.CI < 0 || r.Stop.CI >= 1 {
		return scErrf("run.stop.ci must be in [0, 1), got %g", r.Stop.CI)
	}
	if r.Stop.CI > 0 && (r.Stop.Conf <= 0 || r.Stop.Conf >= 1) {
		return scErrf("run.stop.conf must be in (0, 1), got %g", r.Stop.Conf)
	}
	if r.Stop.Min < 0 {
		return scErrf("run.stop.min must be ≥ 0, got %d", r.Stop.Min)
	}
	if (r.Stop.Conf != 0 || r.Stop.Min != 0) && r.Stop.CI == 0 {
		return scErrf("run.stop.conf/min need run.stop.ci")
	}
	return nil
}

func (e *ErrorSpec) validate(dtypeBits int, bitRange []int) error {
	switch e.Kind {
	case "bitflip", "stuck0", "stuck1":
	case "random":
		if len(e.Range) != 2 || !(e.Range[0] < e.Range[1]) {
			return scErrf("error.range must be [lo, hi) with lo < hi, got %v", e.Range)
		}
	case "zero", "set":
	case "gauss":
		if e.Std <= 0 {
			return scErrf("error.std must be positive, got %g", e.Std)
		}
	case "gain":
	default:
		return scErrf("error.kind must be bitflip, stuck0, stuck1, random, zero, set, gauss or gain, got %q", e.Kind)
	}
	bitKind := e.Kind == "bitflip" || e.Kind == "stuck0" || e.Kind == "stuck1"
	if !bitKind {
		if e.Bit != nil || e.N != 0 || len(bitRange) != 0 {
			return scErrf("error.bit/n and bits apply to bitflip/stuck models only (kind %q)", e.Kind)
		}
		return nil
	}
	if e.Bit != nil && (*e.Bit < 0 || *e.Bit >= dtypeBits) {
		return scErrf("error.bit %d outside the %d-bit representation", *e.Bit, dtypeBits)
	}
	if e.N < 0 {
		return scErrf("error.n must be ≥ 0, got %d", e.N)
	}
	if e.N > 1 {
		if e.Kind != "bitflip" {
			return scErrf("error.n applies to bitflip only")
		}
		if e.Bit != nil || len(bitRange) != 0 {
			return scErrf("multi-bit flips (n > 1) take no bit/bits restriction")
		}
		if e.N > dtypeBits {
			return scErrf("error.n %d exceeds the %d-bit representation", e.N, dtypeBits)
		}
	}
	if len(bitRange) != 0 {
		if len(bitRange) != 2 || bitRange[0] < 0 || bitRange[1] < bitRange[0] || bitRange[1] >= dtypeBits {
			return scErrf("bits must be inclusive [lo, hi] with 0 ≤ lo ≤ hi < %d, got %v", dtypeBits, bitRange)
		}
		if e.Bit != nil {
			return scErrf("error.bit and bits are mutually exclusive")
		}
		if e.Kind != "bitflip" && bitRange[0] != bitRange[1] && !(bitRange[0] == 0 && bitRange[1] == dtypeBits-1) {
			return scErrf("stuck models take a fixed bit or the full range, got bits %v", bitRange)
		}
	}
	return nil
}
