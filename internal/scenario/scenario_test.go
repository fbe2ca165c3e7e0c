package scenario

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"gofi/internal/core"
)

// minimal returns the smallest scenario whose Canon validates.
func minimal() Scenario {
	return Scenario{Run: RunSpec{Trials: 10}}
}

func TestCanonDefaults(t *testing.T) {
	sc := minimal().Canon()
	if sc.V != Version {
		t.Errorf("V = %d, want %d", sc.V, Version)
	}
	if sc.Model.Arch != "resnet18" || sc.Model.Classes != 10 || sc.Model.InSize != 32 || sc.Model.Epochs != 8 {
		t.Errorf("model defaults wrong: %+v", sc.Model)
	}
	if sc.Model.Noise == nil || *sc.Model.Noise != 0.6 {
		t.Errorf("noise default wrong: %v", sc.Model.Noise)
	}
	if sc.Fault.Backend != "f32" || sc.Fault.DType != "int8" || sc.Fault.Scope != "neuron" {
		t.Errorf("fault defaults wrong: %+v", sc.Fault)
	}
	if sc.Fault.Error == nil || sc.Fault.Error.Kind != "bitflip" {
		t.Errorf("error default wrong: %+v", sc.Fault.Error)
	}
	if sc.Selector.Kind != SelRandom || sc.Selector.Rate != 1 {
		t.Errorf("selector defaults wrong: %+v", sc.Selector)
	}
	if sc.Run.Seed != 1 || sc.Run.Workers != 4 {
		t.Errorf("run defaults wrong: %+v", sc.Run)
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("canonical minimal scenario must validate: %v", err)
	}
}

func TestCanonIdempotent(t *testing.T) {
	scenarios := []Scenario{
		minimal(),
		{
			Fault: FaultSpec{Backend: "int8", Error: &ErrorSpec{Kind: "BITFLIP2"}},
			Layers: []Rule{
				{Match: "a", Error: &ErrorSpec{Kind: "random"}},
				{Match: "b", Error: &ErrorSpec{Kind: "gauss"}},
				{Match: "c", Error: &ErrorSpec{Kind: "gain"}},
			},
			Run: RunSpec{Stop: StopSpec{CI: 0.01}},
		},
		{Selector: SelectorSpec{Kind: "sweep"}},
	}
	for i, sc := range scenarios {
		once := sc.Canon()
		twice := once.Canon()
		if !reflect.DeepEqual(once, twice) {
			t.Errorf("scenario %d: Canon not idempotent:\nonce:  %+v\ntwice: %+v", i, once, twice)
		}
	}
}

func TestCanonDoesNotMutateCaller(t *testing.T) {
	rules := []Rule{{Match: "a", Error: &ErrorSpec{Kind: "BitFlip2"}}}
	sc := Scenario{Layers: rules, Run: RunSpec{Trials: 5}}
	_ = sc.Canon()
	if rules[0].Error.Kind != "BitFlip2" || rules[0].Error.N != 0 {
		t.Errorf("Canon mutated the caller's rule slice: %+v", rules[0].Error)
	}
}

func TestCanonErrorSpellings(t *testing.T) {
	cases := []struct {
		in   ErrorSpec
		want ErrorSpec
	}{
		{ErrorSpec{}, ErrorSpec{Kind: "bitflip"}},
		{ErrorSpec{Kind: "Bitflip2"}, ErrorSpec{Kind: "bitflip", N: 2}},
		{ErrorSpec{Kind: "bitflip2", N: 3}, ErrorSpec{Kind: "bitflip", N: 3}},
		{ErrorSpec{Kind: "random"}, ErrorSpec{Kind: "random", Range: []float64{-1, 1}}},
		{ErrorSpec{Kind: "gauss"}, ErrorSpec{Kind: "gauss", Std: 1}},
		{ErrorSpec{Kind: "gain"}, ErrorSpec{Kind: "gain", Factor: 2}},
		{ErrorSpec{Kind: "gain", Factor: 3}, ErrorSpec{Kind: "gain", Factor: 3}},
	}
	for _, c := range cases {
		if got := c.in.canon(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("canon(%+v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestDTypeMapping(t *testing.T) {
	for _, c := range []struct {
		dtype string
		bits  int
		core  core.DType
	}{
		{"fp32", 32, core.FP32},
		{"fp16", 16, core.FP16},
		{"int8", 8, core.INT8},
	} {
		sc := minimal()
		sc.Fault.DType = c.dtype
		sc = sc.Canon()
		if got := sc.DTypeBits(); got != c.bits {
			t.Errorf("DTypeBits(%s) = %d, want %d", c.dtype, got, c.bits)
		}
		if got := sc.CoreDType(); got != c.core {
			t.Errorf("CoreDType(%s) = %v, want %v", c.dtype, got, c.core)
		}
	}
}

// mutate builds a canonical scenario and applies one edit.
func mutate(edit func(*Scenario)) Scenario {
	sc := minimal().Canon()
	edit(&sc)
	return sc
}

func TestValidateRejects(t *testing.T) {
	iptr := func(v int) *int { return &v }
	fptr := func(v float64) *float64 { return &v }
	cases := []struct {
		name string
		sc   Scenario
		frag string
	}{
		{"bad version", mutate(func(s *Scenario) { s.V = 2 }), "version"},
		{"classes", mutate(func(s *Scenario) { s.Model.Classes = 1 }), "classes"},
		{"in_size", mutate(func(s *Scenario) { s.Model.InSize = -1 }), "in_size"},
		{"epochs", mutate(func(s *Scenario) { s.Model.Epochs = -1 }), "epochs"},
		{"noise", mutate(func(s *Scenario) { n := -0.1; s.Model.Noise = &n }), "noise"},
		{"backend", mutate(func(s *Scenario) { s.Fault.Backend = "tpu" }), "backend"},
		{"dtype", mutate(func(s *Scenario) { s.Fault.DType = "fp8" }), "dtype"},
		{"int8 backend dtype", mutate(func(s *Scenario) { s.Fault.Backend = "int8"; s.Fault.DType = "fp32" }), "int8 backend"},
		{"act zp on f32", mutate(func(s *Scenario) { s.Fault.ActZeroPoint = true }), "act_zeropoint"},
		{"scope", mutate(func(s *Scenario) { s.Fault.Scope = "fmap" }), "scope"},
		{"error kind", mutate(func(s *Scenario) { s.Fault.Error.Kind = "nope" }), "error.kind"},
		{"random range", mutate(func(s *Scenario) { s.Fault.Error = &ErrorSpec{Kind: "random", Range: []float64{1, 1}} }), "error.range"},
		{"gauss std", mutate(func(s *Scenario) { s.Fault.Error = &ErrorSpec{Kind: "gauss", Std: -1} }), "error.std"},
		{"bit on zero model", mutate(func(s *Scenario) { s.Fault.Error = &ErrorSpec{Kind: "zero", Bit: iptr(3)} }), "bitflip/stuck"},
		{"bits on set model", mutate(func(s *Scenario) {
			s.Fault.Error = &ErrorSpec{Kind: "set", Value: 2}
			s.Fault.Bits = []int{0, 3}
		}), "bitflip/stuck"},
		{"bit outside dtype", mutate(func(s *Scenario) { s.Fault.Error.Bit = iptr(8) }), "8-bit"},
		{"negative n", mutate(func(s *Scenario) { s.Fault.Error.N = -1 }), "error.n"},
		{"n on stuck", mutate(func(s *Scenario) { s.Fault.Error = &ErrorSpec{Kind: "stuck0", N: 2} }), "bitflip only"},
		{"n with bits", mutate(func(s *Scenario) { s.Fault.Error.N = 2; s.Fault.Bits = []int{0, 3} }), "no bit"},
		{"n too wide", mutate(func(s *Scenario) { s.Fault.Error.N = 9 }), "exceeds"},
		{"bits shape", mutate(func(s *Scenario) { s.Fault.Bits = []int{3} }), "bits"},
		{"bits order", mutate(func(s *Scenario) { s.Fault.Bits = []int{5, 2} }), "bits"},
		{"bits outside dtype", mutate(func(s *Scenario) { s.Fault.Bits = []int{0, 8} }), "bits"},
		{"bit and bits", mutate(func(s *Scenario) { s.Fault.Error.Bit = iptr(2); s.Fault.Bits = []int{0, 3} }), "mutually exclusive"},
		{"stuck sub-range", mutate(func(s *Scenario) {
			s.Fault.Error = &ErrorSpec{Kind: "stuck1"}
			s.Fault.Bits = []int{2, 5}
		}), "stuck models"},
		{"rule without match", mutate(func(s *Scenario) { s.Layers = []Rule{{}} }), "match is required"},
		{"rule rate", mutate(func(s *Scenario) { s.Layers = []Rule{{Match: "a", Rate: fptr(-1)}} }), "rate"},
		{"rule error", mutate(func(s *Scenario) {
			s.Layers = []Rule{{Match: "a", Error: &ErrorSpec{Kind: "gauss", Std: -2}}}
		}), "layers[0]"},
		{"rule bits", mutate(func(s *Scenario) { s.Layers = []Rule{{Match: "a", Bits: []int{9, 9}}} }), "layers[0]"},
		{"selector kind", mutate(func(s *Scenario) { s.Selector.Kind = "nope" }), "selector.kind"},
		{"random rate", mutate(func(s *Scenario) { s.Selector.Rate = -1 }), "selector.rate"},
		{"random with sites", mutate(func(s *Scenario) { s.Selector.Sites = []SiteSpec{{Layer: "a"}} }), "fixed/sweep"},
		{"per-layer weight scope", mutate(func(s *Scenario) {
			s.Selector.Kind = SelPerLayer
			s.Fault.Scope = "weight"
		}), "neuron faults only"},
		{"fixed without sites", mutate(func(s *Scenario) { s.Selector = SelectorSpec{Kind: SelFixed} }), "at least one site"},
		{"fixed with rate", mutate(func(s *Scenario) {
			s.Selector = SelectorSpec{Kind: SelFixed, Rate: 1, Sites: []SiteSpec{{Layer: "a"}}}
		}), "do not apply"},
		{"fixed site without layer", mutate(func(s *Scenario) {
			s.Selector = SelectorSpec{Kind: SelFixed, Sites: []SiteSpec{{}}}
		}), "layer is required"},
		{"fixed neuron site with idx", mutate(func(s *Scenario) {
			s.Selector = SelectorSpec{Kind: SelFixed, Sites: []SiteSpec{{Layer: "a", Idx: []int{1}}}}
		}), "not idx"},
		{"fixed weight site without idx", mutate(func(s *Scenario) {
			s.Fault.Scope = "weight"
			s.Selector = SelectorSpec{Kind: SelFixed, Sites: []SiteSpec{{Layer: "a"}}}
		}), "need idx"},
		{"fixed weight site with chw", mutate(func(s *Scenario) {
			s.Fault.Scope = "weight"
			s.Selector = SelectorSpec{Kind: SelFixed, Sites: []SiteSpec{{Layer: "a", C: 1, Idx: []int{1}}}}
		}), "idx, not c/h/w"},
		{"fixed negative coordinate", mutate(func(s *Scenario) {
			s.Selector = SelectorSpec{Kind: SelFixed, Sites: []SiteSpec{{Layer: "a", C: -1}}}
		}), "negative"},
		{"fixed negative idx", mutate(func(s *Scenario) {
			s.Fault.Scope = "weight"
			s.Selector = SelectorSpec{Kind: SelFixed, Sites: []SiteSpec{{Layer: "a", Idx: []int{-1}}}}
		}), "negative"},
		{"sweep weight scope", mutate(func(s *Scenario) {
			s.Fault.Scope = "weight"
			s.Selector = SelectorSpec{Kind: SelSweep}
		}), "neuron faults only"},
		{"sweep with rate", mutate(func(s *Scenario) { s.Selector = SelectorSpec{Kind: SelSweep, Rate: 1} }), "do not apply"},
		{"sweep range shape", mutate(func(s *Scenario) {
			s.Selector = SelectorSpec{Kind: SelSweep, Sweep: &SweepSpec{C: []int{3}}}
		}), "inclusive"},
		{"sweep range order", mutate(func(s *Scenario) {
			s.Selector = SelectorSpec{Kind: SelSweep, Sweep: &SweepSpec{H: []int{5, 2}}}
		}), "inclusive"},
		{"observer kind", mutate(func(s *Scenario) { s.Observers = []ObserverSpec{{Kind: "latency"}} }), "sdc or mse"},
		{"observer duplicate", mutate(func(s *Scenario) {
			s.Observers = []ObserverSpec{{Kind: ObsSDC}, {Kind: ObsSDC}}
		}), "duplicate"},
		{"observer negative limit", mutate(func(s *Scenario) {
			s.Observers = []ObserverSpec{{Kind: ObsMSE, Limit: -1}}
		}), "limit"},
		{"observer limit on sdc", mutate(func(s *Scenario) {
			s.Observers = []ObserverSpec{{Kind: ObsSDC, Limit: 3}}
		}), "mse observer only"},
		{"negative trials", mutate(func(s *Scenario) { s.Run.Trials = -1 }), "run.trials"},
		{"zero trials non-sweep", mutate(func(s *Scenario) { s.Run.Trials = 0 }), "run.trials"},
		{"workers", mutate(func(s *Scenario) { s.Run.Workers = 0 }), "run.workers"},
		{"stop ci", mutate(func(s *Scenario) { s.Run.Stop.CI = 1 }), "run.stop.ci"},
		{"stop conf", mutate(func(s *Scenario) { s.Run.Stop = StopSpec{CI: 0.01, Conf: 1} }), "run.stop.conf"},
		{"stop min", mutate(func(s *Scenario) { s.Run.Stop = StopSpec{CI: 0.01, Conf: 0.95, Min: -1} }), "run.stop.min"},
		{"stop conf without ci", mutate(func(s *Scenario) { s.Run.Stop = StopSpec{Conf: 0.9} }), "need run.stop.ci"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.sc.Validate()
			if err == nil {
				t.Fatal("Validate must fail")
			}
			if !errors.Is(err, ErrScenario) && !errors.Is(err, ErrVersion) {
				t.Errorf("error %v wraps neither ErrScenario nor ErrVersion", err)
			}
			if c.name == "bad version" && !errors.Is(err, ErrVersion) {
				t.Errorf("version mismatch must wrap ErrVersion, got %v", err)
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("error %q does not mention %q", err, c.frag)
			}
		})
	}
}

func TestValidateAccepts(t *testing.T) {
	iptr := func(v int) *int { return &v }
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"stuck full range", mutate(func(s *Scenario) {
			s.Fault.Error = &ErrorSpec{Kind: "stuck0"}
			s.Fault.Bits = []int{0, 7}
		})},
		{"stuck single position", mutate(func(s *Scenario) {
			s.Fault.Error = &ErrorSpec{Kind: "stuck1"}
			s.Fault.Bits = []int{4, 4}
		})},
		{"fixed bit", mutate(func(s *Scenario) { s.Fault.Error.Bit = iptr(7) })},
		{"multi-bit", mutate(func(s *Scenario) { s.Fault.Error.N = 3 })},
		{"weight fixed sites", mutate(func(s *Scenario) {
			s.Fault.Scope = "weight"
			s.Selector = SelectorSpec{Kind: SelFixed, Sites: []SiteSpec{{Layer: "a", Idx: []int{0, 1}}}}
		})},
		{"sweep without trials", func() Scenario {
			sc := Scenario{Selector: SelectorSpec{Kind: SelSweep}}
			return sc.Canon()
		}()},
		{"observers", mutate(func(s *Scenario) {
			s.Observers = []ObserverSpec{{Kind: ObsSDC}, {Kind: ObsMSE, Limit: 4}}
		})},
		{"stop rule", mutate(func(s *Scenario) { s.Run.Stop = StopSpec{CI: 0.01, Conf: 0.99, Min: 50} })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.sc.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}
